package dataplane

import (
	"net/netip"
	"reflect"
	"testing"

	"heimdall/internal/netmodel"
)

// assertInternalsEqual compares every internal structure of two snapshots
// of the same network — not just the observable surface. This is stricter
// than the external oracle: a derived snapshot must be bit-for-bit the
// snapshot a full compute would have built.
func assertInternalsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Error("adjacency diverged")
	}
	if !reflect.DeepEqual(got.sessions, want.sessions) {
		t.Errorf("BGP sessions diverged: %+v vs %+v", got.sessions, want.sessions)
	}
	if !reflect.DeepEqual(got.ospfRoutes, want.ospfRoutes) {
		t.Errorf("OSPF routes diverged:\n%+v\nvs\n%+v", got.ospfRoutes, want.ospfRoutes)
	}
	if !reflect.DeepEqual(got.bgpRoutes, want.bgpRoutes) {
		t.Errorf("BGP routes diverged:\n%+v\nvs\n%+v", got.bgpRoutes, want.bgpRoutes)
	}
	if !reflect.DeepEqual(got.ribs, want.ribs) {
		t.Error("RIBs diverged")
	}
	if !reflect.DeepEqual(got.fibs, want.fibs) {
		t.Error("FIB tries diverged")
	}
	if !reflect.DeepEqual(got.owner, want.owner) {
		t.Error("owner index diverged")
	}
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
			d.BGP.RemoveNeighbor(netip.MustParseAddr("203.0.113.2"))
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
// peering net and asserts full internal equality, including which maps are
// shared: an ACL derivation must alias the parent's maps outright, a static
// derivation must alias every untouched device's RIB slice.
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
		if !sameRIBMap(derived.ribs, snap.ribs) {
			t.Error("ACL derivation did not share the parent's RIB map")
		}
	})

	t.Run("static-shares-untouched-devices", func(t *testing.T) {
		mutated := base.CloneCOW("isp1")
		mutated.Devices["isp1"].StaticRoutes = append(mutated.Devices["isp1"].StaticRoutes,
			netmodel.StaticRoute{Prefix: netip.MustParsePrefix("198.51.100.0/24"),
				NextHop: netip.MustParseAddr("203.0.113.10")})
		derived := snap.Derive(mutated, ChangeSet{{Device: "isp1", Kind: ChangeStatic}})
		assertInternalsEqual(t, derived, Compute(mutated))
		for dev := range snap.ribs {
			if dev == "isp1" {
				continue
			}
			if len(derived.ribs[dev]) > 0 && &derived.ribs[dev][0] != &snap.ribs[dev][0] {
				t.Errorf("static derivation rebuilt untouched device %s", dev)
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
		// the maps themselves must be the parent's.
		if reflect.ValueOf(derived.ribs).Pointer() != reflect.ValueOf(snap.ribs).Pointer() {
			t.Error("L2 derivation copied the RIB map")
		}
		if reflect.ValueOf(derived.fibs).Pointer() != reflect.ValueOf(snap.fibs).Pointer() {
			t.Error("L2 derivation copied the FIB map")
		}
		if reflect.ValueOf(derived.ospfRoutes).Pointer() != reflect.ValueOf(snap.ospfRoutes).Pointer() {
			t.Error("L2 derivation rebuilt the OSPF route map")
		}
		if reflect.ValueOf(derived.bgpRoutes).Pointer() != reflect.ValueOf(snap.bgpRoutes).Pointer() {
			t.Error("L2 derivation rebuilt the BGP route map")
		}
		if len(derived.sessions) > 0 && &derived.sessions[0] != &snap.sessions[0] {
			t.Error("L2 derivation rebuilt the BGP session list")
		}
		if reflect.ValueOf(derived.owner).Pointer() != reflect.ValueOf(snap.owner).Pointer() {
			t.Error("L2 derivation rebuilt the owner index")
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
	set := func(dev, itf, addr string) { n.Device(dev).Interface(itf).Addr = pfx(addr) }
	set("r1", "Gi0/0", "10.1.0.1/30")
	set("r2", "Gi0/0", "10.1.0.2/30")
	set("r3", "Gi0/0", "10.2.0.1/30")
	set("r4", "Gi0/0", "10.2.0.2/30")
	// A loopback per router so every SPF run produces at least one route.
	n.Device("r1").AddInterface("Loopback0").Addr = pfx("10.1.1.1/32")
	n.Device("r2").AddInterface("Loopback0").Addr = pfx("10.1.2.1/32")
	n.Device("r3").AddInterface("Loopback0").Addr = pfx("10.2.1.1/32")
	n.Device("r4").AddInterface("Loopback0").Addr = pfx("10.2.2.1/32")
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.Device(r).OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{"Loopback0": true}}
	}
	return n
}

// TestDeriveAffectedSourceReuse pins the affected-source SPF optimization:
// an OSPF cost bump in one island recomputes only that island's sources;
// the untouched island's route slices come through by identity.
func TestDeriveAffectedSourceReuse(t *testing.T) {
	base := twoIslandNet()
	snap := Compute(base)
	mutated := base.CloneCOW("r1")
	mutated.Devices["r1"].Interface("Gi0/0").OSPFCost = 7
	derived := snap.Derive(mutated, ChangeSet{{Device: "r1", Kind: ChangeOSPF}})
	assertInternalsEqual(t, derived, Compute(mutated))
	for _, src := range []string{"r3", "r4"} {
		if len(snap.ospfRoutes[src]) == 0 {
			t.Fatalf("expected OSPF routes for %s in the base snapshot", src)
		}
		if &derived.ospfRoutes[src][0] != &snap.ospfRoutes[src][0] {
			t.Errorf("%s SPF recomputed despite its component being untouched", src)
		}
	}
	// r1's own routes must reflect the new cost, so its slice is fresh.
	if len(derived.ospfRoutes["r1"]) > 0 && len(snap.ospfRoutes["r1"]) > 0 &&
		&derived.ospfRoutes["r1"][0] == &snap.ospfRoutes["r1"][0] {
		t.Error("r1 SPF slice shared even though its cost changed")
	}
}

// sameRIBMap reports whether two RIB maps share identical backing slices
// for every device (i.e. one map's contents alias the other's).
func sameRIBMap(a, b map[string][]FIBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for dev, rib := range a {
		other := b[dev]
		if len(rib) != len(other) {
			return false
		}
		if len(rib) > 0 && &rib[0] != &other[0] {
			return false
		}
	}
	return true
}
