package dataplane_test

import (
	"net/netip"
	"slices"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// Every device of every scenario family: the merged RIB equals the
// sort-based reference entry for entry (hosts with only a default route,
// ABRs with inter-area ECMP, BGP speakers, statics over OSPF).
func TestMergeBestMatchesReferenceOnScenarios(t *testing.T) {
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}), generate.WAN(generate.WANParams{}),
	} {
		snap := dataplane.Compute(scen.Network)
		entries := 0
		for _, dev := range scen.Network.DeviceNames() {
			got, want := snap.RIB(dev), dataplane.ReferenceRIB(snap, dev)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s:\n got %v\nwant %v", scen.Name, dev, got, want)
			}
			entries += len(got)
		}
		if entries == 0 {
			t.Fatalf("%s: no routes compared", scen.Name)
		}
	}
}

// Allocations are part of Compute's budget (ROADMAP aim 1): a per-prefix or
// per-bit allocation creeping back into the RIB/FIB assembly fails here, not
// at the next benchmark run. A Compute builds a device's routes at their
// first read, so the op reads every RIB: the whole build. Ceilings sit
// ~13 % above the measured counts (university 2,299 and fat-tree k=4 1,540;
// 2,272 and 1,505 while route cells held FIBEntries and the LSDB's layout
// was built through maps; 2,279 and 1,521 while the routes were built
// eagerly and sorted by interned strings, 16,990 and 4,508 before the
// RIB/FIB assembly was reworked).
func TestComputeAllocBudget(t *testing.T) {
	if dataplane.RaceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	for _, tc := range []struct {
		scen    *scenarios.Scenario
		ceiling float64
	}{
		{scenarios.University(), 2600},
		{generate.FatTree(generate.FatTreeParams{K: 4}), 1730},
	} {
		names := tc.scen.Network.DeviceNames()
		got := testing.AllocsPerRun(5, func() {
			s := dataplane.Compute(tc.scen.Network)
			for _, dev := range names {
				s.RIB(dev)
			}
		})
		t.Logf("%s: %.0f allocs per Compute and every RIB read", tc.scen.Name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per Compute, budget %.0f", tc.scen.Name, got, tc.ceiling)
		}
	}
}

// BenchmarkLPM compares the FIB's longest-prefix-match table against a
// linear scan of the RIB, on the university network's route mix.
func BenchmarkLPM(b *testing.B) {
	snap := dataplane.Compute(scenarios.University().Network)
	rib, lookup := snap.RIB("r1"), dataplane.FIBLookup(snap, "r1")
	probes := make([]netip.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, netip.AddrFrom4([4]byte{10, byte(i % 18), 0, 10}))
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookup(probes[i%len(probes)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addr := probes[i%len(probes)]
			best := -1
			for j := range rib {
				if rib[j].Prefix.Contains(addr) && rib[j].Prefix.Bits() > best {
					best = rib[j].Prefix.Bits()
				}
			}
			_ = best
		}
	})
}
