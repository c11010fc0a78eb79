package netmodel

// Change-classification helpers: predicates that let callers (the
// enforcer's shadow derivation, the attack-surface sweep) decide how
// narrow a dataplane change class a mutation belongs to.

// InterfaceL2Only reports whether the interface participates in the
// dataplane only through the L2 switching fabric: it is not an SVI and is
// either an access/trunk switchport or carries no address. Toggling such
// an interface (shutdown, VLAN move) can rewire L2 adjacency but can never
// change address ownership, connected routes, static-route resolution,
// OSPF participation, or BGP session endpoints on its own device — the
// contract behind the dataplane's L2-only change class. Nil is not
// L2-only: an unknown interface gets the conservative answer.
func InterfaceL2Only(itf *Interface) bool {
	if itf == nil || itf.IsSVI() {
		return false
	}
	return itf.Mode == Access || itf.Mode == Trunk || !itf.HasAddr()
}
