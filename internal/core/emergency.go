package core

import (
	"fmt"

	"heimdall/internal/audit"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/verify"
)

// Emergency mode implements the paper's §7 escape hatch: for issues the
// twin cannot faithfully reproduce (hardware faults, timing bugs), the
// reference monitor bypasses the twin and sends commands directly to the
// production network *through the policy enforcer*. Least privilege still
// holds — every command is checked against the ticket's Privilegemsp — and
// every write is shadow-verified against the network policies before it
// executes on production. Everything is audited with an EMERGENCY marker.

// EnableEmergency authorizes emergency mode for this engagement. The call
// models the customer admin's explicit approval (how to *decide* when a
// problem needs it is the paper's open question; the mechanism requires
// the decision to be explicit and it lands on the audit trail).
func (e *Engagement) EnableEmergency(approvedBy string) {
	e.emergency = true
	e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindSession,
		fmt.Sprintf("EMERGENCY mode enabled (approved by %s)", approvedBy), true)
}

// EmergencyConsole opens a mediated console that executes directly against
// the production network. It requires EnableEmergency first and the device
// to be inside the ticket's slice.
func (e *Engagement) EmergencyConsole(device string) (*EmergencySession, error) {
	if !e.emergency {
		return nil, fmt.Errorf("core: emergency mode not enabled for %s", e.Ticket.ID)
	}
	if !e.Slice[device] || e.sys.production.Devices[device] == nil {
		e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindDecision,
			fmt.Sprintf("EMERGENCY deny console on %s (outside slice)", device), false)
		return nil, fmt.Errorf("core: no such device %q", device)
	}
	e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindSession,
		"EMERGENCY console opened on "+device, true)
	return &EmergencySession{eng: e, con: console.New(device, e.sys.prodEnv())}, nil
}

// prodEnv lazily builds the production console environment. It reads the
// enforcer's production snapshot, so an emergency console sees what every
// commit since it opened did, and its writes invalidate like any other
// production mutation.
func (s *System) prodEnv() *console.Env {
	s.prodMu.Lock()
	defer s.prodMu.Unlock()
	if s.prodConsoleEnv == nil {
		s.prodConsoleEnv = &console.Env{
			Net:        s.production,
			Snapshot:   func() *dataplane.Snapshot { return s.Enforcer.ProductionSnapshot(s.production) },
			Invalidate: s.Enforcer.InvalidateReviews,
		}
	}
	return s.prodConsoleEnv
}

// EmergencySession is a mediated, enforcer-guarded console on a production
// device.
type EmergencySession struct {
	eng *Engagement
	con *console.Console
}

// Device returns the session's device name.
func (s *EmergencySession) Device() string { return s.con.Device() }

// Exec runs one command: privilege check first, and for writes a shadow
// verification against the policy set before the command touches
// production. Violating writes are refused.
func (s *EmergencySession) Exec(line string) (string, error) {
	e := s.eng
	trail := e.sys.Enforcer.Trail()
	cmd, err := s.con.Parse(line)
	if err != nil {
		trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindCommand,
			fmt.Sprintf("EMERGENCY [%s] %s (parse error)", s.Device(), line), false)
		return "", err
	}
	trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindCommand,
		fmt.Sprintf("EMERGENCY [%s] %s", s.Device(), line), true)
	if !e.Spec.Allows(cmd.Action, cmd.Resource) {
		trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindDecision,
			fmt.Sprintf("EMERGENCY deny %s on %s", cmd.Action, cmd.Resource), false)
		return "", fmt.Errorf("core: permission denied: %s on %s", cmd.Action, cmd.Resource)
	}
	trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindDecision,
		fmt.Sprintf("EMERGENCY allow %s on %s", cmd.Action, cmd.Resource), true)

	// Writes (and the reads serving them) execute under the production
	// lock so emergency changes never interleave with commits.
	if cmd.Write {
		e.sys.prodMu.Lock()
		defer e.sys.prodMu.Unlock()
		if err := s.shadowVerify(line); err != nil {
			trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindVerify,
				fmt.Sprintf("EMERGENCY write refused: %v", err), false)
			return "", err
		}
	} else {
		e.sys.prodMu.RLock()
		defer e.sys.prodMu.RUnlock()
	}
	out, err := s.con.Execute(cmd)
	if err != nil {
		trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindCommand,
			fmt.Sprintf("EMERGENCY [%s] %s failed: %v", s.Device(), line, err), true)
		return "", err
	}
	if cmd.Write {
		// The write bypassed the commit pipeline; the console invalidated
		// the enforcer's verdicts and production snapshot on the way out
		// (prodEnv).
		trail.Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindChange,
			fmt.Sprintf("EMERGENCY applied [%s] %s", s.Device(), line), true)
	}
	return out, nil
}

// shadowVerify applies the command to a shadow of production and checks
// that no policy that held before becomes violated. Policies already
// broken (the incident itself) stay out of scope so emergency repairs are
// not blocked by the very outage they address. The shadow clones only the
// session's device (a console command writes no other), and its snapshot
// derives from production's through a seeded console environment.
func (s *EmergencySession) shadowVerify(line string) error {
	e := s.eng
	prod := e.sys.production
	prodSnap := e.sys.Enforcer.ProductionSnapshot(prod)
	pre := make(map[string]bool)
	for _, v := range verify.Check(prodSnap, e.sys.policies).Violations {
		pre[v.Policy.ID] = true
	}
	shadow := prod.CloneCOW(s.Device())
	env := console.NewEnvSeeded(shadow, prodSnap)
	if _, err := console.New(s.Device(), env).Run(line); err != nil {
		return fmt.Errorf("core: shadow apply failed: %w", err)
	}
	res := verify.Check(env.Snapshot(), e.sys.policies)
	for _, v := range res.Violations {
		if !pre[v.Policy.ID] {
			return fmt.Errorf("core: command would violate %s: %s", v.Policy.ID, v.Reason)
		}
	}
	return nil
}
