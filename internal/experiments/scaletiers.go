package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"heimdall/internal/attacksurface"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// ScaleTier is one generated topology's size and timing row: structural
// counts plus full-vs-derive timings at that scale. The derive mutation per
// tier is the class the topology stresses — a backbone (area 0) link down,
// which the partitioned SPF localizes.
type ScaleTier struct {
	Devices  int // routers + switches
	Hosts    int
	Links    int
	Policies int

	// SnapshotComputeMs is one full dataplane computation.
	SnapshotComputeMs float64

	// Full clone+compute versus Derive for the tier's bench mutations.
	FullComputeNsOp   float64
	DeriveL3TopoNsOp  float64
	DeriveL3TopoSpeed float64
	DeriveOSPFNsOp    float64
	DeriveOSPFSpeed   float64

	// SweepCases fault cases (of SweepCasesTotal enumerated — the cap keeps
	// the tier affordable; the acceptance bound is the capped time) swept
	// with all three techniques at mutation budget 4, serial. The biggest
	// tiers enumerate from a stride-sampled host-pair walk (pairBudget), so
	// their SweepCasesTotal is of the sampled catalog, not the full one.
	SweepCases          int
	SweepCasesTotal     int
	SweepBoundedSeconds float64
}

// timeIt runs fn count times and returns mean ns/op.
func timeIt(count int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < count; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(count)
}

// scaleTierSpec names one generated tier and its derive bench mutations.
type scaleTierSpec struct {
	name  string
	build func() *scenarios.Scenario
	// l3dev/l3if is the ChangeL3Topology mutation (link shutdown); on the
	// hierarchical topologies it is a redundant backbone/parallel link, so
	// the per-area fingerprints localize the recompute.
	l3dev, l3if string
	// ospfDev/ospfIf takes an OSPF cost bump (ChangeOSPF).
	ospfDev, ospfIf string
	// computes/derives are the timing iteration counts (kept small: the
	// big tiers pay seconds per full compute).
	computes, derives int
	// sweepCap overrides sweepCaseCap (0 = the default); pairBudget bounds
	// the fault enumeration's host-pair walk (0 = all pairs) — the k=16
	// tier's 1024 hosts make the unbounded quadratic walk minutes long.
	sweepCap, pairBudget int
}

// sweepCaseCap bounds the fault cases each tier's bounded sweep evaluates.
const sweepCaseCap = 12

// RunScaleTiers measures the generated-topology tiers (fat-tree
// datacenters, ISP backbone, multi-site WAN) — the only timing of them;
// the hand-built scenarios' numbers are Go benchmarks.
func RunScaleTiers() map[string]ScaleTier {
	tiers := []scaleTierSpec{
		{
			name:  "fattree-k4",
			build: func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4}) },
			l3dev: "c0-0", l3if: "Gi0/0", ospfDev: "c0-0", ospfIf: "Gi0/1",
			computes: 10, derives: 50,
		},
		{
			name:  "fattree-k8",
			build: func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 8}) },
			l3dev: "c0-0", l3if: "Gi0/0", ospfDev: "c0-0", ospfIf: "Gi0/1",
			computes: 3, derives: 10,
		},
		{
			// The routine k=16 run (ROADMAP item 2 follow-up): 320 devices,
			// 1024 hosts. Time-boxed hard — one timed compute, three
			// derives, a stride-sampled fault walk and a four-case sweep —
			// so the whole tier stays around ten seconds in CI.
			name:  "fattree-k16",
			build: func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 16}) },
			l3dev: "c0-0", l3if: "Gi0/0", ospfDev: "c0-0", ospfIf: "Gi0/1",
			computes: 1, derives: 3,
			sweepCap: 4, pairBudget: 4096,
		},
		{
			name:  "isp",
			build: func() *scenarios.Scenario { return generate.ISP(generate.ISPParams{}) },
			// The customer edge runs BGP only, so its host-port shutdown
			// leaves the OSPF LSDB untouched — the common "customer work
			// order" mutation the derive path should make nearly free.
			l3dev: "ce00", l3if: "Gi0/1", ospfDev: "p0", ospfIf: "Gi0/0",
			computes: 5, derives: 20,
		},
		{
			name:  "wan",
			build: func() *scenarios.Scenario { return generate.WAN(generate.WANParams{}) },
			// One of site 1's parallel router-pair links: no distance or ABR
			// summary changes, so every other area derives by identity.
			l3dev: "sr1-0", l3if: "Gi0/2", ospfDev: "sr1-0", ospfIf: "Gi0/2",
			computes: 10, derives: 50,
		},
	}
	out := make(map[string]ScaleTier, len(tiers))
	for _, spec := range tiers {
		out[spec.name] = runScaleTier(spec)
	}
	return out
}

func runScaleTier(spec scaleTierSpec) ScaleTier {
	// Fence off the previous tier's garbage (mining a k8 policy set
	// allocates hundreds of MB) so its collection doesn't land inside
	// this tier's timed sections.
	runtime.GC()
	scen := spec.build()
	t := ScaleTier{
		Devices:  len(scen.Network.RoutersAndSwitches()),
		Hosts:    len(scen.Network.Hosts()),
		Links:    len(scen.Network.Links),
		Policies: len(scen.Policies),
	}
	base := scen.Network
	snap := dataplane.Compute(base)
	t.SnapshotComputeMs = timeIt(spec.computes, func() {
		dataplane.Compute(base)
	}) / 1e6

	shutdown := func(n *netmodel.Network) {
		n.Devices[spec.l3dev].Interfaces[spec.l3if].Shutdown = true
	}
	t.FullComputeNsOp = timeIt(spec.computes, func() {
		trial := base.Clone()
		shutdown(trial)
		dataplane.Compute(trial)
	})
	t.DeriveL3TopoNsOp = timeIt(spec.derives, func() {
		trial := base.CloneCOW(spec.l3dev)
		shutdown(trial)
		snap.Derive(trial, dataplane.ChangeSet{{Device: spec.l3dev, Kind: dataplane.ChangeL3Topology}})
	})
	t.DeriveOSPFNsOp = timeIt(spec.derives, func() {
		trial := base.CloneCOW(spec.ospfDev)
		trial.Devices[spec.ospfDev].Interfaces[spec.ospfIf].OSPFCost = 7
		snap.Derive(trial, dataplane.ChangeSet{{Device: spec.ospfDev, Kind: dataplane.ChangeOSPF}})
	})
	if t.DeriveL3TopoNsOp > 0 {
		t.DeriveL3TopoSpeed = t.FullComputeNsOp / t.DeriveL3TopoNsOp
	}
	if t.DeriveOSPFNsOp > 0 {
		t.DeriveOSPFSpeed = t.FullComputeNsOp / t.DeriveOSPFNsOp
	}

	// Bounded attack-surface sweep: all three techniques, serial, mutation
	// budget 4, capped at sweepCaseCap fault cases.
	ev := &attacksurface.Evaluator{
		Base:           base,
		Policies:       scen.Policies,
		Sensitive:      scen.Sensitive,
		MutationBudget: 4,
		Workers:        1,
	}
	cases := attacksurface.InterfaceFaultsBudget(base, ev.BaseSnapshot(), spec.pairBudget)
	t.SweepCasesTotal = len(cases)
	caseCap := spec.sweepCap
	if caseCap == 0 {
		caseCap = sweepCaseCap
	}
	if len(cases) > caseCap {
		cases = cases[:caseCap]
	}
	t.SweepCases = len(cases)
	start := time.Now()
	for _, tech := range []attacksurface.Technique{attacksurface.All, attacksurface.Neighbor, attacksurface.Heimdall} {
		ev.Evaluate(tech, cases)
	}
	t.SweepBoundedSeconds = time.Since(start).Seconds()
	return t
}

// FormatScaleTiers renders the tier table, smallest first.
func FormatScaleTiers(tiers map[string]ScaleTier) string {
	names := make([]string, 0, len(tiers))
	for name := range tiers {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return tiers[names[i]].Devices < tiers[names[j]].Devices })
	var b strings.Builder
	b.WriteString("Scale tiers: generated topologies\n")
	fmt.Fprintf(&b, "%-11s %8s %6s %6s %9s %11s %11s %9s %9s %14s\n",
		"tier", "devices", "hosts", "links", "policies", "compute_ms", "full_ms/op", "l3topo_x", "ospf_x", "sweep(cases)")
	for _, name := range names {
		t := tiers[name]
		fmt.Fprintf(&b, "%-11s %8d %6d %6d %9d %11.1f %11.1f %8.1fx %8.1fx %8.1fs (%d/%d)\n",
			name, t.Devices, t.Hosts, t.Links, t.Policies,
			t.SnapshotComputeMs, t.FullComputeNsOp/1e6,
			t.DeriveL3TopoSpeed, t.DeriveOSPFSpeed,
			t.SweepBoundedSeconds, t.SweepCases, t.SweepCasesTotal)
	}
	return b.String()
}
