// Package privilege implements Heimdall's Privilegemsp: the fine-grained
// privilege specification an enterprise admin writes for each MSP ticket
// (paper §4.1).
//
// A specification is a set of predicates, each allowing or denying an
// (action, resource) pair:
//
//	allow(show.*, device:*)
//	allow(config.interface.set, device:r3:interface:Gi0/1)
//	deny(config.acl.*, device:r3)
//
// Actions are dot-separated paths ("config.acl.add"); resources are
// colon-separated paths ("device:r3:acl:CORE-IN"). Patterns match
// hierarchically: a pattern that is a (wildcard-aware) prefix of the value
// matches, so "device:r3" covers every resource on r3. Evaluation is
// deny-overrides with a default-deny.
package privilege

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Effect is the verdict of a rule or an evaluation.
type Effect int

const (
	// DenyEffect forbids the action.
	DenyEffect Effect = iota
	// AllowEffect permits the action.
	AllowEffect
)

// String returns "allow" or "deny".
func (e Effect) String() string {
	if e == AllowEffect {
		return "allow"
	}
	return "deny"
}

// Rule is one predicate of a Privilegemsp.
type Rule struct {
	Effect   Effect
	Action   string
	Resource string
}

// String renders the rule in the text DSL form.
func (r Rule) String() string {
	return r.Effect.String() + "(" + r.Action + ", " + r.Resource + ")"
}

// Matches reports whether the rule covers the (action, resource) pair.
func (r Rule) Matches(action, resource string) bool {
	return matchPath(r.Action, action, '.') && matchPath(r.Resource, resource, ':')
}

// matchPath matches a pattern against a value, both split on sep. A "*"
// segment matches any one value segment. A pattern that is a prefix of the
// value matches (hierarchical containment); a pattern longer than the value
// does not.
func matchPath(pattern, value string, sep byte) bool {
	if pattern == "*" || pattern == value {
		return true
	}
	ps := strings.Split(pattern, string(sep))
	vs := strings.Split(value, string(sep))
	if len(ps) > len(vs) {
		return false
	}
	for i, p := range ps {
		if p != "*" && p != vs[i] {
			return false
		}
	}
	return true
}

// Spec is a complete Privilegemsp: the privileges one technician holds for
// one ticket.
type Spec struct {
	Ticket     string
	Technician string
	Rules      []Rule
}

// Evaluate returns the effect for the (action, resource) pair:
// deny-overrides across matching rules, default deny when nothing matches.
func (s *Spec) Evaluate(action, resource string) Effect {
	allowed := false
	for _, r := range s.Rules {
		if !r.Matches(action, resource) {
			continue
		}
		if r.Effect == DenyEffect {
			return DenyEffect
		}
		allowed = true
	}
	if allowed {
		return AllowEffect
	}
	return DenyEffect
}

// Allows reports whether Evaluate yields AllowEffect.
func (s *Spec) Allows(action, resource string) bool {
	return s.Evaluate(action, resource) == AllowEffect
}

// String renders the spec in the text DSL, one predicate per line.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Privilegemsp ticket=%s technician=%s\n", s.Ticket, s.Technician)
	for _, r := range s.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// RulesDigest returns a content digest of the spec's rule set. Two specs
// digest equal exactly when they authorize the same (action, resource)
// pairs: evaluation is deny-overrides over the whole rule set, so rule
// order is irrelevant and the digest hashes the rules sorted. Ticket and
// technician identity are deliberately excluded — many technicians
// working the same scenario template hold textually identical privileges,
// and the enforcer's review cache keys on what a spec permits, not on who
// holds it.
func (s *Spec) RulesDigest() string {
	lines := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Devices returns the sorted set of device names the spec's allow rules
// mention ("*" patterns excluded).
func (s *Spec) Devices() []string {
	set := make(map[string]bool)
	for _, r := range s.Rules {
		if r.Effect != AllowEffect {
			continue
		}
		parts := strings.Split(r.Resource, ":")
		if len(parts) >= 2 && parts[0] == "device" && parts[1] != "*" {
			set[parts[1]] = true
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// ParseSpec parses the text DSL: comment lines start with '#', every other
// non-blank line is "allow(action, resource)" or "deny(action, resource)".
func ParseSpec(ticket, technician, text string) (*Spec, error) {
	s := &Spec{Ticket: ticket, Technician: technician}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("privilege: line %d: %w", i+1, err)
		}
		s.Rules = append(s.Rules, r)
	}
	return s, nil
}

// ParseRule parses one "allow(action, resource)" predicate.
func ParseRule(line string) (Rule, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return Rule{}, fmt.Errorf("malformed predicate %q", line)
	}
	var eff Effect
	switch strings.TrimSpace(line[:open]) {
	case "allow":
		eff = AllowEffect
	case "deny":
		eff = DenyEffect
	default:
		return Rule{}, fmt.Errorf("unknown effect in %q", line)
	}
	body := line[open+1 : len(line)-1]
	parts := strings.SplitN(body, ",", 2)
	if len(parts) != 2 {
		return Rule{}, fmt.Errorf("predicate needs (action, resource): %q", line)
	}
	action := strings.TrimSpace(parts[0])
	resource := strings.TrimSpace(parts[1])
	if action == "" || resource == "" {
		return Rule{}, fmt.Errorf("empty action or resource in %q", line)
	}
	return Rule{Effect: eff, Action: action, Resource: resource}, nil
}

// specJSON is the JSON frontend format (the paper's Batfish-based UI).
type specJSON struct {
	Ticket     string     `json:"ticket"`
	Technician string     `json:"technician"`
	Rules      []ruleJSON `json:"rules"`
}

type ruleJSON struct {
	Effect   string `json:"effect"`
	Action   string `json:"action"`
	Resource string `json:"resource"`
}

// MarshalJSON implements json.Marshaler.
func (s *Spec) MarshalJSON() ([]byte, error) {
	j := specJSON{Ticket: s.Ticket, Technician: s.Technician}
	for _, r := range s.Rules {
		j.Rules = append(j.Rules, ruleJSON{Effect: r.Effect.String(), Action: r.Action, Resource: r.Resource})
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var j specJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out := Spec{Ticket: j.Ticket, Technician: j.Technician}
	for _, r := range j.Rules {
		var eff Effect
		switch r.Effect {
		case "allow":
			eff = AllowEffect
		case "deny":
			eff = DenyEffect
		default:
			return fmt.Errorf("privilege: unknown effect %q", r.Effect)
		}
		if r.Action == "" || r.Resource == "" {
			return fmt.Errorf("privilege: rule with empty action or resource")
		}
		out.Rules = append(out.Rules, Rule{Effect: eff, Action: r.Action, Resource: r.Resource})
	}
	*s = out
	return nil
}
