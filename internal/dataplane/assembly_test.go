package dataplane_test

import (
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
// first read, so the op reads every RIB: the whole build. Ceilings sit ~15 %
// above the measured counts (university 2,272 and fat-tree k=4 1,505; 2,279
// and 1,521 while the routes were built eagerly and sorted by interned
// strings, 16,990 and 4,508 before the RIB/FIB assembly was reworked).
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
