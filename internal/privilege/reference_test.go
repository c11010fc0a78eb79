package privilege

// The reference evaluator: a scan of every rule that splits both patterns
// on each call. CompiledSpec is the evaluator every program uses, and
// TestCompiledMatchesEvaluate holds it to this one.

import "strings"

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
