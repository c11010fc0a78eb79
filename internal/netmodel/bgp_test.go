package netmodel

import (
	"net/netip"
	"testing"
)

func TestBGPNeighborManagement(t *testing.T) {
	g := &BGPProcess{LocalAS: 65001}
	a := netip.MustParseAddr("203.0.113.2")
	b := netip.MustParseAddr("203.0.113.6")

	g.SetNeighbor(a, 65010)
	g.SetNeighbor(b, 65020)
	if len(g.Neighbors) != 2 {
		t.Fatalf("neighbors = %d", len(g.Neighbors))
	}
	// SetNeighbor on an existing address updates in place.
	g.SetNeighbor(a, 65011)
	if len(g.Neighbors) != 2 || g.Neighbor(a).RemoteAS != 65011 {
		t.Fatalf("update in place failed: %+v", g.Neighbors)
	}
	if g.Neighbor(netip.MustParseAddr("9.9.9.9")) != nil {
		t.Fatal("unknown neighbor returned")
	}
}

func TestBGPProcessClone(t *testing.T) {
	g := &BGPProcess{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("1.1.1.1"),
		Networks: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	g.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65010)

	c := g.Clone()
	c.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 99)
	c.Networks = append(c.Networks, netip.MustParsePrefix("172.16.0.0/12"))
	c.LocalAS = 65099

	if g.LocalAS != 65001 || g.Neighbors[0].RemoteAS != 65010 || len(g.Networks) != 1 {
		t.Fatalf("clone aliases original: %+v", g)
	}
}

func TestDeviceCloneIncludesBGP(t *testing.T) {
	d := NewDevice("edge", Router)
	d.BGP = &BGPProcess{LocalAS: 65001}
	d.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65010)
	c := d.Clone()
	c.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 99)
	if d.BGP.Neighbors[0].RemoteAS != 65010 {
		t.Fatal("device clone shares BGP state")
	}
	// Devices without BGP clone to nil, not an empty process.
	d2 := NewDevice("r1", Router)
	if d2.Clone().BGP != nil {
		t.Fatal("nil BGP became non-nil on clone")
	}
}
