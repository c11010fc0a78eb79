package dataplane

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"heimdall/internal/netmodel"
)

// assertInternalsEqual compares every internal structure of two snapshots
// of the same network — not just the observable surface. This is stricter
// than the external oracle: a derived snapshot must be bit-for-bit the
// snapshot a full compute would have built. Every route cell of both is
// built and compared, and so is every source's OSPF result.
func assertInternalsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Error("adjacency diverged")
	}
	if !reflect.DeepEqual(got.sessions, want.sessions) {
		t.Errorf("BGP sessions diverged: %+v vs %+v", got.sessions, want.sessions)
	}
	if g, w := routes(got.lsdb), routes(want.lsdb); !reflect.DeepEqual(g, w) {
		t.Errorf("OSPF routes diverged:\n%+v\nvs\n%+v", g, w)
	}
	if !reflect.DeepEqual(got.bgpRoutes, want.bgpRoutes) {
		t.Errorf("BGP routes diverged:\n%+v\nvs\n%+v", got.bgpRoutes, want.bgpRoutes)
	}
	if !reflect.DeepEqual(got.names, want.names) || len(got.cells) != len(got.names) {
		t.Fatalf("device positions diverged: %v (%d cells) vs %v", got.names, len(got.cells), want.names)
	}
	for i, dev := range want.names {
		g, w := got.cell(i), want.cell(i)
		if !reflect.DeepEqual(g.rib, w.rib) {
			t.Errorf("%s: RIB diverged", dev)
		}
		if !reflect.DeepEqual(g.fib, w.fib) {
			t.Errorf("%s: FIB diverged", dev)
		}
	}
	got.positions()
	want.positions()
	if !reflect.DeepEqual(got.hops, want.hops) {
		t.Error("hop index diverged")
	}
}

// sharedCells lists the devices whose route cell a and b share by identity.
func sharedCells(a, b *Snapshot) map[string]bool {
	out := make(map[string]bool)
	for i, dev := range a.names {
		if a.cells[i] == b.cells[i] {
			out[dev] = true
		}
	}
	return out
}

// cellOf returns the device's route cell in s, unbuilt or not.
func cellOf(t *testing.T, s *Snapshot, dev string) *routeCell {
	t.Helper()
	i, ok := slices.BinarySearch(s.names, dev)
	if !ok {
		t.Fatalf("no device %s", dev)
	}
	return s.cells[i]
}

// TestDeriveBGPWithdraw covers the ChangeBGP class on the peering topology:
// withdrawing an advertised network, removing a neighbor (session teardown),
// and removing the whole process.
func TestDeriveBGPWithdraw(t *testing.T) {
	cases := []struct {
		name   string
		device string
		apply  func(d *netmodel.Device)
	}{
		{"withdraw-network", "isp1", func(d *netmodel.Device) {
			d.BGP.Networks = nil
		}},
		{"remove-neighbor", "edge", func(d *netmodel.Device) {
			d.BGP.Neighbors = slices.DeleteFunc(d.BGP.Neighbors, func(nb netmodel.BGPNeighbor) bool { return nb.Addr == netip.MustParseAddr("203.0.113.2") })
		}},
		{"remove-process", "isp2", func(d *netmodel.Device) {
			d.BGP = nil
		}},
		{"wrong-as", "edge", func(d *netmodel.Device) {
			d.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65011)
		}},
	}
	base := peeringNet()
	snap := Compute(base)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := base.CloneCOW(tc.device)
			tc.apply(mutated.Devices[tc.device])
			derived := snap.Derive(mutated, ChangeSet{{Device: tc.device, Kind: ChangeBGP}})
			assertInternalsEqual(t, derived, Compute(mutated))
		})
	}
}

// TestDeriveInternalsPerClass re-runs the sharing-sensitive classes on the
// peering net and asserts full internal equality, including which cells are
// shared: an ACL derivation must alias the parent's cells outright, a static
// derivation must alias every untouched device's cell.
func TestDeriveInternalsPerClass(t *testing.T) {
	base := peeringNet()
	snap := Compute(base)

	t.Run("acl-shares-everything", func(t *testing.T) {
		mutated := base.CloneCOW("edge")
		d := mutated.Devices["edge"]
		d.ACL("BLOCK", true).InsertEntry(netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto})
		d.Interface("Gi0/0").ACLIn = "BLOCK"
		// Binding an ACL to an interface is still an ACL-class change: it
		// gates traces, not routing.
		derived := snap.Derive(mutated, ChangeSet{{Device: "edge", Kind: ChangeACL}})
		assertInternalsEqual(t, derived, Compute(mutated))
		if len(derived.cells) == 0 || &derived.cells[0] != &snap.cells[0] {
			t.Error("ACL derivation did not share the parent's cells")
		}
	})

	t.Run("static-shares-untouched-devices", func(t *testing.T) {
		mutated := base.CloneCOW("isp1")
		mutated.Devices["isp1"].StaticRoutes = append(mutated.Devices["isp1"].StaticRoutes,
			netmodel.StaticRoute{Prefix: netip.MustParsePrefix("198.51.100.0/24"),
				NextHop: netip.MustParseAddr("203.0.113.10")})
		derived := snap.Derive(mutated, ChangeSet{{Device: "isp1", Kind: ChangeStatic}})
		assertInternalsEqual(t, derived, Compute(mutated))
		shared := sharedCells(derived, snap)
		for _, dev := range snap.names {
			if shared[dev] == (dev == "isp1") {
				t.Errorf("%s: cell shared = %v, want %v", dev, shared[dev], dev != "isp1")
			}
		}
	})

	t.Run("topology-falls-back", func(t *testing.T) {
		mutated := base.CloneCOW("isp2")
		mutated.Devices["isp2"].Interface("Gi0/0").Shutdown = true
		derived := snap.Derive(mutated, ChangeSet{{Device: "isp2", Kind: ChangeTopology}})
		assertInternalsEqual(t, derived, Compute(mutated))
	})

	t.Run("l3topo-interface-down", func(t *testing.T) {
		mutated := base.CloneCOW("isp2")
		mutated.Devices["isp2"].Interface("Gi0/0").Shutdown = true
		derived := snap.Derive(mutated, ChangeSet{{Device: "isp2", Kind: ChangeL3Topology}})
		assertInternalsEqual(t, derived, Compute(mutated))
	})

	t.Run("l2-shares-everything", func(t *testing.T) {
		mutated := base.CloneCOW("edge")
		mutated.Devices["edge"].VLANs[999] = &netmodel.VLAN{ID: 999, Name: "qa"}
		derived := snap.Derive(mutated, ChangeSet{{Device: "edge", Kind: ChangeL2}})
		assertInternalsEqual(t, derived, Compute(mutated))
		// The ChangeL2 contract is sharing by identity, not just equality:
		// the structures themselves must be the parent's.
		if len(derived.cells) == 0 || &derived.cells[0] != &snap.cells[0] {
			t.Error("L2 derivation copied the cells")
		}
		if derived.lsdb != snap.lsdb {
			t.Error("L2 derivation rebuilt the LSDB")
		}
		if reflect.ValueOf(derived.bgpRoutes).Pointer() != reflect.ValueOf(snap.bgpRoutes).Pointer() {
			t.Error("L2 derivation rebuilt the BGP route map")
		}
		if len(derived.sessions) > 0 && &derived.sessions[0] != &snap.sessions[0] {
			t.Error("L2 derivation rebuilt the BGP session list")
		}
		if derived.hops != snap.hops {
			t.Error("L2 derivation started a new hop index")
		}
	})
}

// twoIslandNet builds two disjoint OSPF islands in one network: r1—r2 and
// r3—r4 with no links between the pairs. The LSDB splits into two
// components, so a change inside one island must leave every SPF result of
// the other island shared by identity.
func twoIslandNet() *netmodel.Network {
	n := netmodel.NewNetwork("islands")
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.AddDevice(r, netmodel.Router)
	}
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	n.MustConnect("r3", "Gi0/0", "r4", "Gi0/0")
	set := func(dev, itf, addr string) { n.Devices[dev].Interface(itf).Addr = pfx(addr) }
	set("r1", "Gi0/0", "10.1.0.1/30")
	set("r2", "Gi0/0", "10.1.0.2/30")
	set("r3", "Gi0/0", "10.2.0.1/30")
	set("r4", "Gi0/0", "10.2.0.2/30")
	// A loopback per router so every SPF run produces at least one route.
	n.Devices["r1"].AddInterface("Loopback0").Addr = pfx("10.1.1.1/32")
	n.Devices["r2"].AddInterface("Loopback0").Addr = pfx("10.1.2.1/32")
	n.Devices["r3"].AddInterface("Loopback0").Addr = pfx("10.2.1.1/32")
	n.Devices["r4"].AddInterface("Loopback0").Addr = pfx("10.2.2.1/32")
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.Devices[r].OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{"Loopback0": true}}
	}
	return n
}

// TestDeriveAffectedSourceReuse pins the affected-source SPF optimization:
// an OSPF cost bump in one island gives new cells only to that island's
// sources; the untouched island's cells come through by identity.
func TestDeriveAffectedSourceReuse(t *testing.T) {
	base := twoIslandNet()
	snap := Compute(base)
	mutated := base.CloneCOW("r1")
	mutated.Devices["r1"].Interface("Gi0/0").OSPFCost = 7
	derived := snap.Derive(mutated, ChangeSet{{Device: "r1", Kind: ChangeOSPF}})
	for _, src := range []string{"r3", "r4"} {
		if cellOf(t, derived, src) != cellOf(t, snap, src) {
			t.Errorf("%s has a new cell despite its component being untouched", src)
		}
	}
	// r1's own routes must reflect the new cost, so its cell is new.
	if cellOf(t, derived, "r1") == cellOf(t, snap, "r1") {
		t.Error("r1 cell shared even though its cost changed")
	}
	assertInternalsEqual(t, derived, Compute(mutated))
	if len(snap.RIB("r3")) == 0 || &derived.RIB("r3")[0] != &snap.RIB("r3")[0] {
		t.Error("r3's RIB is not the parent's")
	}
}
