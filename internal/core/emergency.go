package core

import (
	"fmt"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/enforcer"
	"heimdall/internal/netmodel"
)

// Emergency mode implements the paper's §7 escape hatch: for issues the
// twin cannot faithfully reproduce (hardware faults, timing bugs), the
// reference monitor bypasses the twin and sends commands directly to the
// production network *through the policy enforcer*. Least privilege still
// holds — every command is checked against the ticket's Privilegemsp — and
// every write is a one-device emergency commit (CommitRequest.Emergency): gated,
// verified, journaled and handed over like any other, accepted when it
// introduces no new policy violation. Everything is audited with an
// EMERGENCY marker.

// EnableEmergency authorizes emergency mode for this engagement. The call
// models the customer admin's explicit approval (how to *decide* when a
// problem needs it is the paper's open question; the mechanism requires
// the decision to be explicit and it lands on the audit trail).
func (e *Engagement) EnableEmergency(approvedBy string) {
	e.emergency = true
	e.emergencyNote(audit.KindSession, true, "mode enabled (approved by %s)", approvedBy)
}

// emergencyNote appends an EMERGENCY-marked entry to the audit trail.
func (e *Engagement) emergencyNote(kind audit.Kind, ok bool, format string, args ...any) {
	e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, kind, "EMERGENCY "+fmt.Sprintf(format, args...), ok)
}

// EmergencyConsole opens a mediated console that executes directly against
// the production network. It requires EnableEmergency first and the device
// to be inside the ticket's slice.
func (e *Engagement) EmergencyConsole(device string) (*EmergencySession, error) {
	if !e.emergency {
		return nil, fmt.Errorf("core: emergency mode not enabled for %s", e.Ticket.ID)
	}
	if prod, _ := e.sys.Enforcer.View(false); !e.Slice[device] || prod.Devices[device] == nil {
		e.emergencyNote(audit.KindDecision, false, "deny console on %s (outside slice)", device)
		return nil, fmt.Errorf("core: no such device %q", device)
	}
	e.emergencyNote(audit.KindSession, true, "console opened on %s", device)
	return &EmergencySession{eng: e, device: device}, nil
}

// EmergencySession is a mediated, enforcer-guarded console on a production
// device.
type EmergencySession struct {
	eng    *Engagement
	device string
}

// Device returns the session's device name.
func (s *EmergencySession) Device() string { return s.device }

// Exec runs one command: privilege check first; a read then executes on
// production, and a write is applied persistently to its production device
// (console.Command.Apply), whose diff the enforcer commits. A write that
// does not apply, or that the enforcer refuses, leaves production untouched.
func (s *EmergencySession) Exec(line string) (string, error) {
	e, sys := s.eng, s.eng.sys
	cmd, err := console.New(s.device, nil).Parse(line)
	if err != nil {
		e.emergencyNote(audit.KindCommand, false, "[%s] %s (parse error)", s.device, line)
		return "", err
	}
	e.emergencyNote(audit.KindCommand, true, "[%s] %s", s.device, line)
	if !e.Spec.Compile().Allows(cmd.Action, cmd.Resource) {
		e.emergencyNote(audit.KindDecision, false, "deny %s on %s", cmd.Action, cmd.Resource)
		return "", fmt.Errorf("core: permission denied: %s on %s", cmd.Action, cmd.Resource)
	}
	e.emergencyNote(audit.KindDecision, true, "allow %s on %s", cmd.Action, cmd.Resource)

	if !cmd.Write {
		out, err := console.New(s.device, console.NewEnvSeeded(sys.Enforcer.View(true))).Execute(cmd)
		if err != nil {
			e.emergencyNote(audit.KindCommand, true, "[%s] %s failed: %v", s.device, line, err)
		}
		return out, err
	}
	// The write runs inside the commit, so the device it diffs is the one
	// the commit lands on. Apply never writes it; the diff is empty for a
	// write that changes nothing, which then commits nothing.
	d, err := sys.Enforcer.Submit(enforcer.CommitRequest{Spec: e.Spec, Emergency: func(prod *netmodel.Network) ([]config.Change, error) {
		old := prod.Devices[s.device]
		nd, _, err := cmd.Apply(old)
		if err != nil {
			return nil, fmt.Errorf("core: shadow apply failed: %w", err)
		}
		return config.DiffDevice(old, nd), nil
	}})
	if d != nil && len(d.Violations) > 0 {
		err = fmt.Errorf("core: command would violate %s: %s", d.Violations[0].Policy.ID, d.Violations[0].Reason)
	}
	if err != nil {
		e.emergencyNote(audit.KindVerify, false, "write refused: %v", err)
		return "", err
	}
	// The commit's own change entries record what reached production.
	e.emergencyNote(audit.KindSession, true, "applied [%s] %s", s.device, line)
	return "", nil
}
