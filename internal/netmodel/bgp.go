package netmodel

import "net/netip"

// BGPNeighbor is one configured eBGP peering.
type BGPNeighbor struct {
	// Addr is the peer's interface address (sessions form over directly
	// connected subnets, the standard eBGP deployment).
	Addr netip.Addr
	// RemoteAS is the AS number expected from the peer; a mismatch keeps
	// the session down (the classic "wrong remote-as" misconfiguration).
	RemoteAS int
}

// BGPProcess is a device's BGP configuration. Only eBGP is modeled: the
// enterprise-edge-to-ISP peering the paper's ISP-reconfiguration tickets
// concern.
type BGPProcess struct {
	LocalAS  int
	RouterID netip.Addr
	// Neighbors lists configured peerings.
	Neighbors []BGPNeighbor
	// Networks are prefixes originated by this router.
	Networks []netip.Prefix
	// RedistributeConnected additionally originates every connected subnet.
	RedistributeConnected bool
}

// Clone returns a deep copy of the BGP process.
func (b *BGPProcess) Clone() *BGPProcess {
	c := *b
	c.Neighbors = append([]BGPNeighbor(nil), b.Neighbors...)
	c.Networks = append([]netip.Prefix(nil), b.Networks...)
	return &c
}

// Neighbor returns the neighbor entry for the given address, or nil.
func (b *BGPProcess) Neighbor(addr netip.Addr) *BGPNeighbor {
	for i := range b.Neighbors {
		if b.Neighbors[i].Addr == addr {
			return &b.Neighbors[i]
		}
	}
	return nil
}

// SetNeighbor adds or updates a neighbor entry.
func (b *BGPProcess) SetNeighbor(addr netip.Addr, remoteAS int) {
	if n := b.Neighbor(addr); n != nil {
		n.RemoteAS = remoteAS
		return
	}
	b.Neighbors = append(b.Neighbors, BGPNeighbor{Addr: addr, RemoteAS: remoteAS})
}
