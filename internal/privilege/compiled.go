package privilege

import "strings"

// CompiledSpec is a Spec compiled into segment tries for fast evaluation.
// The reference evaluator (Spec.Evaluate, kept in reference_test.go) scans
// every rule and splits both patterns on each call, but the attack-surface
// sweep and the twin's mediation path evaluate the same spec thousands of
// times. The compiled
// form walks the action through a pattern trie (one branch per literal
// segment plus a wildcard branch) and, wherever an action pattern ends,
// walks the resource through that rule group's resource trie. Deny rules
// and allow rules compile into separate tries, preserving deny-overrides
// exactly; prefix containment is preserved by treating every
// pattern-terminal node as a match regardless of remaining value segments.
// Evaluate and Allows perform no allocations.
type CompiledSpec struct {
	deny  *trieNode
	allow *trieNode
}

// trieNode is one segment-trie node, shared by the action and resource
// layers: action-trie nodes carry res (the resource patterns of rules
// whose action pattern ends there), resource-trie nodes carry terminal.
type trieNode struct {
	children map[string]*trieNode
	star     *trieNode // the "*" wildcard branch
	res      *trieNode // action layer: resource trie of rules ending here
	terminal bool      // resource layer: a resource pattern ends here
}

func (n *trieNode) child(seg string) *trieNode {
	if seg == "*" {
		if n.star == nil {
			n.star = &trieNode{}
		}
		return n.star
	}
	if n.children == nil {
		n.children = make(map[string]*trieNode)
	}
	c := n.children[seg]
	if c == nil {
		c = &trieNode{}
		n.children[seg] = c
	}
	return c
}

// Compile builds the trie form of the spec. The result is immutable and
// safe for concurrent use; it reflects the rules at compile time, so
// recompile after appending rules.
func (s *Spec) Compile() *CompiledSpec {
	c := &CompiledSpec{deny: &trieNode{}, allow: &trieNode{}}
	for _, r := range s.Rules {
		root := c.allow
		if r.Effect == DenyEffect {
			root = c.deny
		}
		nd := root
		for _, seg := range strings.Split(r.Action, ".") {
			nd = nd.child(seg)
		}
		if nd.res == nil {
			nd.res = &trieNode{}
		}
		rn := nd.res
		for _, seg := range strings.Split(r.Resource, ":") {
			rn = rn.child(seg)
		}
		rn.terminal = true
	}
	return c
}

// Evaluate returns the effect for an action on a resource, identical to
// Spec.Evaluate on the rules the spec held at compile time: deny wins over
// allow, and no matching rule denies.
func (c *CompiledSpec) Evaluate(action, resource string) Effect {
	if actionMatch(c.deny, action, false, resource) {
		return DenyEffect
	}
	if actionMatch(c.allow, action, false, resource) {
		return AllowEffect
	}
	return DenyEffect
}

// Allows reports whether Evaluate yields AllowEffect.
func (c *CompiledSpec) Allows(action, resource string) bool {
	return c.Evaluate(action, resource) == AllowEffect
}

// actionMatch walks the action value through the pattern trie. Wherever a
// rule's action pattern ends (nd.res) — matchPath's prefix containment
// means any node on the walk, not just where the value runs out — the
// resource value is matched against that rule group's resource trie.
func actionMatch(nd *trieNode, rest string, exhausted bool, resource string) bool {
	if nd == nil {
		return false
	}
	if nd.res != nil && resourceMatch(nd.res, resource, false) {
		return true
	}
	if exhausted {
		return false
	}
	seg, tail, ex := splitSeg(rest, '.')
	if actionMatch(nd.children[seg], tail, ex, resource) {
		return true
	}
	return actionMatch(nd.star, tail, ex, resource)
}

// resourceMatch walks the resource value through a resource trie; any
// terminal node reached is a match (prefix containment again).
func resourceMatch(nd *trieNode, rest string, exhausted bool) bool {
	if nd == nil {
		return false
	}
	if nd.terminal {
		return true
	}
	if exhausted {
		return false
	}
	seg, tail, ex := splitSeg(rest, ':')
	if resourceMatch(nd.children[seg], tail, ex) {
		return true
	}
	return resourceMatch(nd.star, tail, ex)
}

// splitSeg splits off the first sep-delimited segment, mirroring
// strings.Split semantics (an empty string is one empty segment); ex
// reports that no segments remain after seg.
func splitSeg(rest string, sep byte) (seg, tail string, ex bool) {
	if i := strings.IndexByte(rest, sep); i >= 0 {
		return rest[:i], rest[i+1:], false
	}
	return rest, "", true
}
