package privilege

import (
	"fmt"
	"sort"
)

// TaskKind classifies the ticket driving a privilege template, mirroring
// the issue classes of the paper's evaluation (§5).
type TaskKind string

const (
	// TaskConnectivity is a generic "A cannot reach B" ticket.
	TaskConnectivity TaskKind = "connectivity"
	// TaskACL is a firewall/ACL misconfiguration ticket.
	TaskACL TaskKind = "acl"
	// TaskVLAN is a VLAN assignment/trunking ticket.
	TaskVLAN TaskKind = "vlan"
	// TaskOSPF is a routing-protocol ticket.
	TaskOSPF TaskKind = "ospf"
	// TaskISP is an ISP/static-route reconfiguration ticket.
	TaskISP TaskKind = "isp"
	// TaskInterface is an interface-down/up ticket.
	TaskInterface TaskKind = "interface"
	// TaskMonitoring is read-only performance monitoring.
	TaskMonitoring TaskKind = "monitoring"
)

// TemplateInput describes a ticket to the privilege generator.
type TemplateInput struct {
	Ticket     string
	Technician string
	Kind       TaskKind
	// Scope lists devices inside the twin's task-driven slice: read access
	// is granted on these.
	Scope []string
	// Suspects lists devices where the root cause may live: write access
	// for the task's configuration domain is granted on these.
	Suspects []string
	// Sensitive lists devices that must stay untouchable regardless of
	// scope (explicit deny, which overrides any allow).
	Sensitive []string
}

// writeActionsByKind maps each task kind to the configuration actions it
// legitimately needs. These deliberately exclude everything else: an ACL
// ticket grants no interface shutdowns, and vice versa.
var writeActionsByKind = map[TaskKind][]string{
	TaskConnectivity: {"config.acl.*", "config.interface.set", "config.route.*"},
	TaskACL:          {"config.acl.*"},
	TaskVLAN:         {"config.vlan.*", "config.interface.set"},
	TaskOSPF:         {"config.ospf.*", "config.interface.set"},
	TaskISP:          {"config.route.*", "config.bgp.*", "config.interface.set", "config.gateway.set"},
	TaskInterface:    {"config.interface.set"},
	TaskMonitoring:   nil,
}

// Generate builds the task-driven Privilegemsp for a ticket: read/diagnose
// privileges across the scope, task-specific write privileges on suspect
// devices, and explicit denies on sensitive devices. This is the automation
// the paper proposes so that admins do not hand-write predicates per ticket.
func Generate(in TemplateInput) (*Spec, error) {
	if in.Ticket == "" || in.Technician == "" {
		return nil, fmt.Errorf("privilege: template needs ticket and technician")
	}
	writes, ok := writeActionsByKind[in.Kind]
	if !ok {
		return nil, fmt.Errorf("privilege: unknown task kind %q", in.Kind)
	}
	s := &Spec{Ticket: in.Ticket, Technician: in.Technician,
		Rules: make([]Rule, 0, 2*len(in.Scope)+len(writes)*len(in.Suspects)+len(in.Sensitive))}

	scope := append([]string(nil), in.Scope...)
	sort.Strings(scope)
	for _, dev := range scope {
		res := "device:" + dev
		s.Rules = append(s.Rules,
			Rule{Effect: AllowEffect, Action: "show.*", Resource: res},
			Rule{Effect: AllowEffect, Action: "diag.*", Resource: res},
		)
	}

	suspects := append([]string(nil), in.Suspects...)
	sort.Strings(suspects)
	for _, dev := range suspects {
		res := "device:" + dev
		for _, a := range writes {
			s.Rules = append(s.Rules, Rule{Effect: AllowEffect, Action: a, Resource: res})
		}
	}

	sensitive := append([]string(nil), in.Sensitive...)
	sort.Strings(sensitive)
	for _, dev := range sensitive {
		s.Rules = append(s.Rules, Rule{Effect: DenyEffect, Action: "*", Resource: "device:" + dev})
	}
	return s, nil
}

// Escalation is a request to widen a ticket's privileges mid-task
// (paper §7, "Privilege escalation"). It must be approved by the admin
// before the rule takes effect.
type Escalation struct {
	Ticket        string
	Technician    string
	Rule          Rule
	Justification string
	Approved      bool
}

// RequestEscalation creates a pending escalation for the spec's ticket.
func (s *Spec) RequestEscalation(rule Rule, justification string) *Escalation {
	return &Escalation{
		Ticket:        s.Ticket,
		Technician:    s.Technician,
		Rule:          rule,
		Justification: justification,
	}
}

// Approve applies an approved escalation to the spec, appending its rule.
// It returns an error for escalations belonging to another ticket or for
// deny rules (escalations only ever widen privileges; narrowing is done by
// issuing a new spec).
func (s *Spec) Approve(e *Escalation) error {
	if e.Ticket != s.Ticket {
		return fmt.Errorf("privilege: escalation for ticket %s applied to %s", e.Ticket, s.Ticket)
	}
	if e.Rule.Effect != AllowEffect {
		return fmt.Errorf("privilege: escalations must be allow rules")
	}
	e.Approved = true
	s.Rules = append(s.Rules, e.Rule)
	return nil
}
