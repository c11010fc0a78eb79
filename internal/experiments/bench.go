package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"heimdall/internal/attacksurface"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/service"
	"heimdall/internal/verify"
)

// BenchReport is the machine-readable performance trajectory emitted by
// `cmd/experiments -bench-json`. Each PR checks one in (BENCH_<n>.json) so
// regressions and wins are chartable across the repo's history. Timings
// are single-shot wall-clock measurements on whatever machine ran them —
// coarse by design; the Go benchmarks are the precise instrument.
type BenchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`

	// Figure8SerialSeconds is the full enterprise sweep (mutation budget 0,
	// one worker) — the acceptance-criteria headline.
	Figure8SerialSeconds float64 `json:"figure8_serial_seconds"`
	// Figure9BoundedSeconds is the university sweep at mutation budget 8
	// (the CI-sized search; the full search is minutes).
	Figure9BoundedSeconds float64 `json:"figure9_bounded_seconds"`

	// SnapshotComputeMs is the full dataplane computation per scenario.
	SnapshotComputeMs map[string]float64 `json:"snapshot_compute_ms"`

	// Per-trial cost at university scale, nanoseconds per operation:
	// a full Clone+Compute versus Derive per change class.
	FullComputeNsOp   float64 `json:"full_compute_ns_op"`
	DeriveStaticNsOp  float64 `json:"derive_static_ns_op"`
	DeriveACLNsOp     float64 `json:"derive_acl_ns_op"`
	DeriveOSPFNsOp    float64 `json:"derive_ospf_ns_op"`
	DeriveL2NsOp      float64 `json:"derive_l2_ns_op"`
	DeriveL3TopoNsOp  float64 `json:"derive_l3topo_ns_op"`
	DeriveStaticSpeed float64 `json:"derive_static_speedup"`
	DeriveACLSpeed    float64 `json:"derive_acl_speedup"`
	DeriveOSPFSpeed   float64 `json:"derive_ospf_speedup"`
	DeriveL2Speed     float64 `json:"derive_l2_speedup"`
	DeriveL3TopoSpeed float64 `json:"derive_l3topo_speedup"`

	// FlowCacheHitRate is hits/(hits+misses) over two consecutive full
	// policy verifications on one university snapshot (the warm-verify
	// pattern AffectedBy leans on).
	FlowCacheHitRate float64 `json:"flowcache_hit_rate"`

	// Service-layer headline: the multi-tenant load generator at the
	// acceptance scale (50 tenants x 20 concurrent scripted technician
	// sessions on university+enterprise), mediated commands per second and
	// mediation latency percentiles through the full twin/enforcer path,
	// plus the peak verify-queue depth behind the bounded pool.
	ServiceTenants    int     `json:"service_tenants"`
	ServiceSessions   int     `json:"service_sessions"`
	ServiceCmdsPerSec float64 `json:"service_cmds_per_sec"`
	// ServiceP50Ms/P99Ms are mediated Exec latency only; verify-pool queue
	// wait (submit to worker dequeue) is reported separately so a deep
	// review backlog reads as queue pressure, not slow mediation.
	ServiceP50Ms            float64 `json:"service_p50_ms"`
	ServiceP99Ms            float64 `json:"service_p99_ms"`
	ServiceVerifyQueueP50Ms float64 `json:"service_verify_queue_p50_ms"`
	ServiceVerifyQueueP99Ms float64 `json:"service_verify_queue_p99_ms"`
	ServicePeakQueueDepth   int     `json:"service_peak_queue_depth"`
	// Review-dedup headline: of ServiceReviews total, how many were served
	// from the enforcer's verdict cache and how many coalesced onto an
	// in-flight identical verification (the rest ran fresh).
	ServiceReviews         int64 `json:"service_reviews"`
	ServiceReviewCacheHits int64 `json:"service_review_cache_hits"`
	ServiceReviewCoalesced int64 `json:"service_review_coalesced"`

	// Replicated-enforcer headline: wall-clock per quorum commit (intent
	// proposal, three replica votes, change fan-out, terminal mirror) on a
	// fault-free three-replica group, and the Byzantine detections across
	// the full replication chaos deck — which must equal its lying
	// schedules, or the sweep itself would have failed.
	QuorumCommitP50Ms      float64 `json:"quorum_commit_p50_ms"`
	QuorumCommitP99Ms      float64 `json:"quorum_commit_p99_ms"`
	ByzantineDetectedTotal int     `json:"byzantine_detected_total"`

	// ScaleTiers are the generated-topology tiers (fat-tree datacenters,
	// ISP backbone, multi-site WAN): structural counts plus the same
	// full-vs-derive timings at each scale. The derive mutation per tier
	// is the class the topology stresses — a backbone (area 0) link down,
	// which the partitioned SPF localizes.
	ScaleTiers map[string]ScaleTier `json:"scale_tiers"`
}

// ScaleTier is one generated topology's size and timing row.
type ScaleTier struct {
	Devices  int `json:"devices"` // routers + switches
	Hosts    int `json:"hosts"`
	Links    int `json:"links"`
	Policies int `json:"policies"`

	// GenerateMs is the full scenario build: topology synthesis, config
	// rendering, baseline snapshot and (partitioned) policy mining.
	GenerateMs float64 `json:"generate_ms"`
	// SnapshotComputeMs is one full dataplane computation.
	SnapshotComputeMs float64 `json:"snapshot_compute_ms"`

	// Full clone+compute versus Derive for the tier's bench mutations.
	FullComputeNsOp   float64 `json:"full_compute_ns_op"`
	DeriveL3TopoNsOp  float64 `json:"derive_l3topo_ns_op"`
	DeriveL3TopoSpeed float64 `json:"derive_l3topo_speedup"`
	DeriveOSPFNsOp    float64 `json:"derive_ospf_ns_op"`
	DeriveOSPFSpeed   float64 `json:"derive_ospf_speedup"`

	// SweepCases fault cases (of SweepCasesTotal enumerated — the cap keeps
	// the tier affordable; the acceptance bound is the capped time) swept
	// with all three techniques at mutation budget 4, serial. The biggest
	// tiers enumerate from a stride-sampled host-pair walk (pairBudget), so
	// their SweepCasesTotal is of the sampled catalog, not the full one.
	SweepCases          int     `json:"sweep_cases"`
	SweepCasesTotal     int     `json:"sweep_cases_total"`
	SweepBoundedSeconds float64 `json:"sweep_bounded_seconds"`
}

// timeIt runs fn count times and returns mean ns/op.
func timeIt(count int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < count; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(count)
}

// RunBench measures the report's metrics. It takes tens of seconds — the
// Figure 8 sweep runs in full.
func RunBench() BenchReport {
	r := BenchReport{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		SnapshotComputeMs: make(map[string]float64),
	}

	// The scale tiers run first, on a clean heap: they are the most
	// allocation-sensitive measurement here, and running them after the
	// figure sweeps and the service load (whose live heaps linger) was
	// observed to inflate the k8 derive timings several-fold through GC
	// pressure at GOMAXPROCS=1.
	r.ScaleTiers = RunScaleTiers()

	ent, uni := scenarios.Enterprise(), scenarios.University()

	start := time.Now()
	Figure89(ent, 0, 1)
	r.Figure8SerialSeconds = time.Since(start).Seconds()

	start = time.Now()
	Figure89(uni, 8, 1)
	r.Figure9BoundedSeconds = time.Since(start).Seconds()

	for _, scen := range []*scenarios.Scenario{ent, uni} {
		scen := scen
		r.SnapshotComputeMs[scen.Name] = timeIt(20, func() {
			dataplane.Compute(scen.Network)
		}) / 1e6
	}

	// Per-trial derive vs full compute, university scale (the Figure 9
	// inner loop). Mutations mirror BenchmarkDerive.
	base := uni.Network
	snap := dataplane.Compute(base)
	blackhole := netip.MustParseAddr("10.200.0.3")
	addStatic := func(n *netmodel.Network) {
		n.Devices["r2"].StaticRoutes = append(n.Devices["r2"].StaticRoutes,
			netmodel.StaticRoute{Prefix: netip.MustParsePrefix("10.5.0.0/24"), NextHop: blackhole})
	}
	r.FullComputeNsOp = timeIt(20, func() {
		trial := base.Clone()
		addStatic(trial)
		dataplane.Compute(trial)
	})
	r.DeriveStaticNsOp = timeIt(200, func() {
		trial := base.CloneCOW("r2")
		addStatic(trial)
		snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeStatic}})
	})
	r.DeriveACLNsOp = timeIt(1000, func() {
		trial := base.CloneCOW("r2")
		d := trial.Devices["r2"]
		d.ACL(d.ACLNames()[0], true).InsertEntry(netmodel.ACLEntry{
			Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto,
		})
		snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeACL}})
	})
	r.DeriveOSPFNsOp = timeIt(20, func() {
		trial := base.CloneCOW("r2")
		d := trial.Devices["r2"]
		for _, ifName := range d.InterfaceNames() {
			d.OSPF.Passive[ifName] = true
		}
		snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeOSPF}})
	})
	r.DeriveL2NsOp = timeIt(200, func() {
		trial := base.CloneCOW("r2")
		trial.Devices["r2"].VLANs[999] = &netmodel.VLAN{ID: 999, Name: "qa"}
		snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeL2}})
	})
	r.DeriveL3TopoNsOp = timeIt(20, func() {
		trial := base.CloneCOW("r2")
		d := trial.Devices["r2"]
		for _, ifName := range d.InterfaceNames() {
			if itf := d.Interfaces[ifName]; itf.Up() && itf.HasAddr() {
				itf.Shutdown = true
				break
			}
		}
		snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeL3Topology}})
	})
	if r.DeriveStaticNsOp > 0 {
		r.DeriveStaticSpeed = r.FullComputeNsOp / r.DeriveStaticNsOp
	}
	if r.DeriveACLNsOp > 0 {
		r.DeriveACLSpeed = r.FullComputeNsOp / r.DeriveACLNsOp
	}
	if r.DeriveOSPFNsOp > 0 {
		r.DeriveOSPFSpeed = r.FullComputeNsOp / r.DeriveOSPFNsOp
	}
	if r.DeriveL2NsOp > 0 {
		r.DeriveL2Speed = r.FullComputeNsOp / r.DeriveL2NsOp
	}
	if r.DeriveL3TopoNsOp > 0 {
		r.DeriveL3TopoSpeed = r.FullComputeNsOp / r.DeriveL3TopoNsOp
	}

	// Flow-cache hit rate over a cold + warm verification pass.
	warm := dataplane.Compute(uni.Network)
	verify.Check(warm, uni.Policies)
	verify.Check(warm, uni.Policies)
	hits, misses := warm.FlowCacheStats()
	if hits+misses > 0 {
		r.FlowCacheHitRate = float64(hits) / float64(hits+misses)
	}

	// Multi-tenant service throughput at the acceptance scale.
	if rep, err := service.RunLoad(service.LoadConfig{
		ServiceConfig: service.Config{VerifyQueue: 4096},
		Reviews:       true,
		Commits:       true,
	}); err == nil {
		r.ServiceTenants = rep.Tenants
		r.ServiceSessions = rep.Sessions
		r.ServiceCmdsPerSec = rep.CmdsPerSec
		r.ServiceP50Ms = rep.P50Ms
		r.ServiceP99Ms = rep.P99Ms
		r.ServiceVerifyQueueP50Ms = rep.VerifyQueueP50Ms
		r.ServiceVerifyQueueP99Ms = rep.VerifyQueueP99Ms
		r.ServicePeakQueueDepth = rep.PeakQueueDepth
		r.ServiceReviews = rep.Reviews
		r.ServiceReviewCacheHits = rep.CacheHits
		r.ServiceReviewCoalesced = rep.Coalesced
	}

	// Replicated-enforcer quorum commits and the chaos deck's Byzantine
	// detections.
	if p50, p99, err := QuorumCommitBench(100); err == nil {
		r.QuorumCommitP50Ms = p50
		r.QuorumCommitP99Ms = p99
	}
	if s, err := ReplicaChaos(); err == nil {
		r.ByzantineDetectedTotal = s.ByzantineDetected
	}

	return r
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

// RunScaleTiers measures the generated-topology tiers. Separated from
// RunBench so cmd/experiments can emit tier rows without the full bench.
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
	start := time.Now()
	scen := spec.build()
	t := ScaleTier{
		GenerateMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		Devices:    len(scen.Network.RoutersAndSwitches()),
		Hosts:      len(scen.Network.Hosts()),
		Links:      len(scen.Network.Links),
		Policies:   len(scen.Policies),
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
	start = time.Now()
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

// WriteJSON renders the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
