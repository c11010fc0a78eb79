package dataplane_test

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// refEntryString and refFormatRIB are the renderers FIBEntry.String and
// FormatRIB replaced — a Sprintf per route, a string sort and a Join — kept
// as the oracle the append renderer must match byte for byte.
func refEntryString(e dataplane.FIBEntry) string {
	if e.Connected() {
		return fmt.Sprintf("%s %s is directly connected, %s", e.Proto, e.Prefix, e.OutIf)
	}
	return fmt.Sprintf("%s %s [%d/%d] via %s, %s", e.Proto, e.Prefix, e.AD, e.Metric, e.NextHop, e.OutIf)
}

func refFormatRIB(s *dataplane.Snapshot, device string) string {
	rib := s.RIB(device)
	if rib == nil {
		return "% no routing table"
	}
	lines := make([]string, 0, len(rib))
	for _, e := range rib {
		lines = append(lines, refEntryString(e))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// FormatRIB and FIBEntry.String equal the reference on every device of every
// scenario family, and on the entries no computed RIB holds.
func TestFormatRIBMatchesReference(t *testing.T) {
	routes := 0
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}), generate.FatTree(generate.FatTreeParams{K: 8}),
		generate.ISP(generate.ISPParams{}), generate.WAN(generate.WANParams{}),
	} {
		snap := dataplane.Compute(scen.Network)
		for _, dev := range append(scen.Network.DeviceNames(), "no-such-device") {
			if got, want := snap.FormatRIB(dev), refFormatRIB(snap, dev); got != want {
				t.Fatalf("%s %s: FormatRIB diverges from the reference:\n got:\n%s\nwant:\n%s", scen.Name, dev, got, want)
			}
			for _, e := range snap.RIB(dev) {
				if got, want := e.String(), refEntryString(e); got != want {
					t.Fatalf("%s %s: String = %q, reference %q", scen.Name, dev, got, want)
				}
				routes++
			}
		}
	}
	t.Logf("compared %d routes", routes)
	if routes < 5000 {
		t.Fatalf("compared only %d routes", routes)
	}
	for _, e := range []dataplane.FIBEntry{
		{},
		{Proto: dataplane.BGP, Prefix: netip.MustParsePrefix("2001:db8::/32"), NextHop: netip.MustParseAddr("fe80::1"), AD: -1, Metric: 1 << 40, OutIf: "Gi0/0"},
		{Proto: dataplane.RouteProto(9), Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: netip.MustParseAddr("::ffff:10.0.0.1")},
	} {
		if got, want := e.String(), refEntryString(e); got != want {
			t.Errorf("String = %q, reference %q", got, want)
		}
	}
}

// The routing table renders in a fixed handful of allocations however many
// routes it holds (the reference: 1,289 on this device).
func TestRenderAllocBudget(t *testing.T) {
	if dataplane.RaceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	snap := dataplane.Compute(scenarios.University().Network)
	got := testing.AllocsPerRun(20, func() { snap.FormatRIB("r2") })
	t.Logf("FormatRIB(university r2): %.0f allocs, %d routes", got, len(snap.RIB("r2")))
	if got > 8 {
		t.Errorf("FormatRIB(university r2): %.0f allocs, budget 8", got)
	}
}
