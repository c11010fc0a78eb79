package dataplane

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"heimdall/internal/netmodel"
)

// threeAreaNet builds a small hierarchical OSPF network: backbone router r0,
// two ABRs (abr1 into area 1 with an `area range` aggregate, abr2 into
// area 2 without one), and leaf routers in the nonzero areas. It exercises
// every structure deriveLSDB patches: multi-area membership, ABR summaries,
// aggregation ranges, and the global prefix rank.
func threeAreaNet() *netmodel.Network {
	n := netmodel.NewNetwork("three-area")
	for _, r := range []string{"r0", "abr1", "abr2", "r1a", "r1b", "r2a"} {
		n.AddDevice(r, netmodel.Router)
	}
	n.MustConnect("r0", "Gi0/0", "abr1", "Gi0/0")
	n.MustConnect("r0", "Gi0/1", "abr2", "Gi0/0")
	n.MustConnect("abr1", "Gi1/0", "r1a", "Gi0/0")
	n.MustConnect("abr1", "Gi1/1", "r1b", "Gi0/0")
	n.MustConnect("abr2", "Gi1/0", "r2a", "Gi0/0")
	set := func(dev, itf, addr string) { n.Devices[dev].Interface(itf).Addr = pfx(addr) }
	set("r0", "Gi0/0", "10.0.0.1/30")
	set("abr1", "Gi0/0", "10.0.0.2/30")
	set("r0", "Gi0/1", "10.0.0.5/30")
	set("abr2", "Gi0/0", "10.0.0.6/30")
	set("abr1", "Gi1/0", "10.1.0.1/30")
	set("r1a", "Gi0/0", "10.1.0.2/30")
	set("abr1", "Gi1/1", "10.1.0.5/30")
	set("r1b", "Gi0/0", "10.1.0.6/30")
	set("abr2", "Gi1/0", "10.2.0.1/30")
	set("r2a", "Gi0/0", "10.2.0.2/30")
	n.Devices["r0"].AddInterface("Loopback0").Addr = pfx("10.0.255.1/32")
	n.Devices["r1a"].AddInterface("Loopback0").Addr = pfx("10.1.255.1/32")
	n.Devices["r1b"].AddInterface("Loopback0").Addr = pfx("10.1.255.2/32")
	n.Devices["r2a"].AddInterface("Loopback0").Addr = pfx("10.2.255.1/32")
	ospf := func(dev string, nets []netmodel.OSPFNetwork, ranges []netmodel.OSPFNetwork) {
		n.Devices[dev].OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: nets, Ranges: ranges,
			Passive: map[string]bool{"Loopback0": true}}
	}
	area := func(p string, a int) netmodel.OSPFNetwork {
		return netmodel.OSPFNetwork{Prefix: pfx(p), Area: a}
	}
	ospf("r0", []netmodel.OSPFNetwork{area("10.0.0.0/16", 0)}, nil)
	ospf("abr1", []netmodel.OSPFNetwork{area("10.0.0.0/24", 0), area("10.1.0.0/16", 1)},
		[]netmodel.OSPFNetwork{area("10.1.0.0/16", 1)})
	ospf("abr2", []netmodel.OSPFNetwork{area("10.0.0.0/24", 0), area("10.2.0.0/16", 2)}, nil)
	ospf("r1a", []netmodel.OSPFNetwork{area("10.1.0.0/16", 1)}, nil)
	ospf("r1b", []netmodel.OSPFNetwork{area("10.1.0.0/16", 1)}, nil)
	ospf("r2a", []netmodel.OSPFNetwork{area("10.2.0.0/16", 2)}, nil)
	return n
}

// routes runs the SPF pass for every source of the LSDB and returns the
// per-device OSPF routes, or nil when no router participates: the whole
// link-state result two LSDBs are compared by.
func routes(l *ospfLSDB) map[string][]FIBEntry {
	if len(l.sources) == 0 {
		return nil
	}
	out := make(map[string][]FIBEntry, len(l.sources))
	for i, src := range l.sources {
		if r := l.routesFrom(i); len(r.rows) > 0 {
			out[src] = r.entries()
		}
	}
	return out
}

// assertLSDBEqual compares two LSDBs of one network row by row (lsdbDiff).
func assertLSDBEqual(t *testing.T, got, want *ospfLSDB) {
	t.Helper()
	if err := lsdbDiff(got, want); err != nil {
		t.Error(err)
	}
}

// TestDeriveLSDBMatchesBuild pins deriveLSDB's contract: for every change
// class — patchable or fallback — the patched LSDB must be semantically
// identical to a from-scratch buildLSDB of the mutated network (same rows,
// same routes), and it reports a fallback exactly for structural drift.
func TestDeriveLSDBMatchesBuild(t *testing.T) {
	cases := []struct {
		name     string
		device   string
		topo     bool // adjacency rebuilt (L3-topology class)
		fallback bool // structural drift: full rebuild, patched = false
		apply    func(d *netmodel.Device)
	}{
		{"ospf-cost", "abr1", false, false, func(d *netmodel.Device) {
			d.Interface("Gi1/0").OSPFCost = 7
		}},
		{"passive-toggle", "abr1", false, false, func(d *netmodel.Device) {
			d.OSPF.Passive["Gi1/1"] = true
		}},
		{"leaf-interface-down", "r1b", true, false, func(d *netmodel.Device) {
			d.Interface("Gi0/0").Shutdown = true
		}},
		{"backbone-interface-down", "r0", true, false, func(d *netmodel.Device) {
			d.Interface("Gi0/1").Shutdown = true
		}},
		{"range-added", "abr2", false, false, func(d *netmodel.Device) {
			d.OSPF.Ranges = []netmodel.OSPFNetwork{{Prefix: pfx("10.2.0.0/16"), Area: 2}}
		}},
		{"range-removed", "abr1", false, false, func(d *netmodel.Device) {
			d.OSPF.Ranges = nil
		}},
		{"new-advertised-prefix", "r2a", false, false, func(d *netmodel.Device) {
			d.AddInterface("Loopback1").Addr = pfx("10.2.254.1/32")
		}},
		// Structural drift: each of these must take the full-rebuild
		// fallback and still come out exact.
		{"router-leaves", "r2a", false, true, func(d *netmodel.Device) {
			d.OSPF = nil
		}},
		{"area-membership-changes", "abr2", false, true, func(d *netmodel.Device) {
			d.OSPF.Networks = []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/24"), Area: 0}}
		}},
		{"new-area-id", "r2a", false, true, func(d *netmodel.Device) {
			d.OSPF.Networks = []netmodel.OSPFNetwork{{Prefix: pfx("10.2.0.0/16"), Area: 7}}
		}},
	}
	base := threeAreaNet()
	oldAdj := computeAdjacency(base)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := buildLSDB(base, oldAdj)
			mutated := base.CloneCOW(tc.device)
			tc.apply(mutated.Devices[tc.device])
			newAdj := oldAdj
			if tc.topo {
				newAdj = computeAdjacency(mutated)
			}
			derived, patched := deriveLSDB(old, base, mutated, oldAdj, newAdj, tc.topo,
				map[string]bool{tc.device: true})
			if patched == tc.fallback {
				t.Errorf("patched = %v, want %v", patched, !tc.fallback)
			}
			fresh := buildLSDB(mutated, newAdj)
			assertLSDBEqual(t, derived, fresh)
			if !reflect.DeepEqual(routes(derived), routes(fresh)) {
				t.Errorf("routes diverged:\n%+v\nvs\n%+v", routes(derived), routes(fresh))
			}
		})
	}
}

// TestDeriveLSDBSharesUntouchedAreas pins the invariant SPF reuse rests on:
// between a patched LSDB and its parent a row is shared by identity exactly
// when its content is unchanged — untouched rows, and rows deriveLSDB
// rebuilt to equal content, are the parent's; only rows that really moved
// are new.
func TestDeriveLSDBSharesUntouchedAreas(t *testing.T) {
	base := threeAreaNet()
	// A switched stub off r2a: r2a and a host share VLAN 50, so moving the
	// host's access port rewires r2a's L2 adjacency without touching any
	// OSPF edge.
	sw := base.AddDevice("sw", netmodel.Switch)
	base.AddDevice("h", netmodel.Host)
	base.MustConnect("r2a", "Gi0/1", "sw", "Gi1/0/1")
	base.MustConnect("h", "eth0", "sw", "Gi1/0/2")
	sw.VLANs[50] = &netmodel.VLAN{ID: 50, Name: "stub"}
	for _, port := range []string{"Gi1/0/1", "Gi1/0/2"} {
		p := sw.Interface(port)
		p.Mode, p.AccessVLAN = netmodel.Access, 50
	}
	base.Devices["r2a"].Interface("Gi0/1").Addr = pfx("10.2.1.1/24")
	base.Devices["h"].Interface("eth0").Addr = pfx("10.2.1.10/24")

	oldAdj := computeAdjacency(base)
	old := buildLSDB(base, oldAdj)
	// assertShared checks every row of derived against old: the rows named
	// in moved ("area/router") must be new, every other one old's own.
	assertShared := func(t *testing.T, derived *ospfLSDB, moved map[string]bool) {
		t.Helper()
		for ai, area := range derived.areas {
			for li, si := range derived.members[ai] {
				key := fmt.Sprintf("%d/%s", area, derived.sources[si])
				if got := !sharedRow(derived.aGraph[ai][li], old.aGraph[ai][li]); got != moved[key] {
					t.Errorf("graph row %s: rebuilt = %v, want %v", key, got, moved[key])
				}
				if !sharedRow(derived.aAdv[ai][li], old.aAdv[ai][li]) {
					t.Errorf("advertisement row %s rebuilt although no prefix moved", key)
				}
			}
		}
		for si, src := range derived.sources {
			if !sharedRow(derived.ranges[si], old.ranges[si]) || !sharedRow(derived.adv[si], old.adv[si]) {
				t.Errorf("%s: range or advertisement row rebuilt although none moved", src)
			}
		}
		if !sharedRow(derived.ranked, old.ranked) {
			t.Error("rank table rebuilt despite an unchanged prefix union")
		}
	}

	t.Run("cost-change", func(t *testing.T) {
		mutated := base.CloneCOW("r1a")
		mutated.Devices["r1a"].Interface("Gi0/0").OSPFCost = 5
		derived, patched := deriveLSDB(old, base, mutated, oldAdj, oldAdj, false,
			map[string]bool{"r1a": true})
		if !patched {
			t.Fatal("a cost change fell back to a full rebuild")
		}
		// abr1 is adjacent to the changed device, so deriveLSDB rebuilds its
		// edge lists in both its areas; they come out equal (an edge carries
		// the local interface's cost) and must be the parent's rows.
		assertShared(t, derived, map[string]bool{"1/r1a": true})
	})

	t.Run("l2-rewire", func(t *testing.T) {
		mutated := base.CloneCOW("sw")
		mutated.Devices["sw"].Interface("Gi1/0/2").AccessVLAN = 60
		newAdj := computeAdjacency(mutated)
		r2aStub := netmodel.Endpoint{Device: "r2a", Interface: "Gi0/1"}
		if slices.Equal(oldAdj[r2aStub], newAdj[r2aStub]) {
			t.Fatal("fixture: the port move did not rewire r2a's adjacency")
		}
		derived, patched := deriveLSDB(old, base, mutated, oldAdj, newAdj, true,
			map[string]bool{"sw": true})
		if !patched {
			t.Fatal("an L2 rewire fell back to a full rebuild")
		}
		assertShared(t, derived, nil)
		if derived.staleSources(old) != nil {
			t.Error("sources marked stale although every row is the parent's")
		}
	})
}

// LSDBChain is the state of the patched-LSDB oracle, for the external
// seeded test and fuzz target over scenario networks: a network, its
// adjacency and its LSDB, each LSDB derived from the one before.
type LSDBChain struct {
	net  *netmodel.Network
	adj  adjacency
	lsdb *ospfLSDB
}

// NewLSDBChain starts a chain at n's built LSDB.
func NewLSDBChain(n *netmodel.Network) *LSDBChain {
	adj := computeAdjacency(n)
	return &LSDBChain{n, adj, buildLSDB(n, adj)}
}

// ThreeAreaNet is threeAreaNet, for the external oracle.
func ThreeAreaNet() *netmodel.Network { return threeAreaNet() }

// Step derives the LSDB of n — the chain's network written in place, or a
// copy of it written — across the changed devices, as Derive does: with
// topo the adjacency is recomputed and declared rebuilt. The result must
// equal buildLSDB of n row for row; when it is a patch, every row whose
// content did not change must be its parent's row by identity (what
// staleSources reads), and every source whose routes moved must be stale.
// The chain then moves to n. Step returns the first divergence found.
func (c *LSDBChain) Step(n *netmodel.Network, topo bool, changed ...string) error {
	adj := c.adj
	if topo {
		adj = computeAdjacency(n)
	}
	set := make(map[string]bool, len(changed))
	for _, dev := range changed {
		set[dev] = true
	}
	old := c.lsdb
	derived, patched := deriveLSDB(old, c.net, n, c.adj, adj, topo, set)
	if err := lsdbDiff(derived, buildLSDB(n, adj)); err != nil {
		return fmt.Errorf("patched=%v: %w", patched, err)
	}
	if patched {
		if err := keptIdentity(derived, old); err != nil {
			return err
		}
		stale := derived.staleSources(old)
		for si, src := range derived.sources {
			if moved := !reflect.DeepEqual(old.routesFrom(si).entries(), derived.routesFrom(si).entries()); moved && (stale == nil || !stale[si]) {
				return fmt.Errorf("%s: routes moved, but the source is not stale", src)
			}
		}
	}
	c.net, c.adj, c.lsdb = n, adj, derived
	return nil
}

// lsdbDiff compares two LSDBs of one network row by row — layout, rank
// table, per-area graph and advertisement rows, per-source advertisements
// and ranges — and returns the first divergence. Rows compare by content,
// so nil and empty rows are equal.
func lsdbDiff(got, want *ospfLSDB) error {
	if !slices.Equal(got.sources, want.sources) || !slices.Equal(got.areas, want.areas) ||
		!slices.EqualFunc(got.members, want.members, slices.Equal) || !slices.Equal(got.ranked, want.ranked) {
		return fmt.Errorf("layout or rank diverged: sources %v areas %v vs sources %v areas %v",
			got.sources, got.areas, want.sources, want.areas)
	}
	for ai, area := range want.areas {
		for li, si := range want.members[ai] {
			if !slices.Equal(got.aGraph[ai][li], want.aGraph[ai][li]) {
				return fmt.Errorf("area %d, %s: edges %v, want %v", area, want.sources[si], got.aGraph[ai][li], want.aGraph[ai][li])
			}
			if !slices.Equal(got.aAdv[ai][li], want.aAdv[ai][li]) {
				return fmt.Errorf("area %d, %s: advertisements %v, want %v", area, want.sources[si], got.aAdv[ai][li], want.aAdv[ai][li])
			}
		}
	}
	for si, src := range want.sources {
		if !slices.Equal(got.adv[si], want.adv[si]) || !slices.Equal(got.ranges[si], want.ranges[si]) {
			return fmt.Errorf("%s: advertisements %v ranges %v, want %v %v", src, got.adv[si], got.ranges[si], want.adv[si], want.ranges[si])
		}
	}
	return nil
}

// keptIdentity checks that every row of l with its parent's content is its
// parent's row.
func keptIdentity(l, old *ospfLSDB) error {
	kept := func(what string, a, b []netip.Prefix) error {
		if slices.Equal(a, b) && !sharedRow(a, b) {
			return fmt.Errorf("%s: equal content, new row", what)
		}
		return nil
	}
	for ai, area := range l.areas {
		for li, si := range l.members[ai] {
			if a, b := l.aGraph[ai][li], old.aGraph[ai][li]; slices.Equal(a, b) && !sharedRow(a, b) {
				return fmt.Errorf("area %d, %s: edge row of equal content is new", area, l.sources[si])
			}
			if err := kept(fmt.Sprintf("area %d, %s advertisements", area, l.sources[si]), l.aAdv[ai][li], old.aAdv[ai][li]); err != nil {
				return err
			}
		}
	}
	for si, src := range l.sources {
		if err := kept(src+" advertisements", l.adv[si], old.adv[si]); err != nil {
			return err
		}
		if a, b := l.ranges[si], old.ranges[si]; slices.Equal(a, b) && !sharedRow(a, b) {
			return fmt.Errorf("%s: range row of equal content is new", src)
		}
	}
	return kept("rank table", l.ranked, old.ranked)
}
