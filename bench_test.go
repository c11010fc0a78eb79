// Benchmarks regenerating every table and figure of the paper's evaluation
// plus ablations of the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure 9's full mutation search takes ~11 minutes; the benchmark bounds
// it by default. Set HEIMDALL_FULL=1 for the complete search (whose
// results are recorded in EXPERIMENTS.md).
package heimdall

import (
	"bytes"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"heimdall/internal/attacksurface"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/experiments"
	"heimdall/internal/latency"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/service"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// figure9Budget bounds the university sweep's mutation search: the full
// search takes ~11 minutes (its results are recorded in EXPERIMENTS.md),
// so the benchmark defaults to a bounded search. Set HEIMDALL_FULL=1 to
// run the complete search.
func figure9Budget() int {
	if os.Getenv("HEIMDALL_FULL") != "" {
		return 0
	}
	return 8
}

// BenchmarkTable1 regenerates Table 1 (scenario generation + policy
// mining) and reports the row values as metrics.
func BenchmarkTable1(b *testing.B) {
	var rows []scenarios.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	b.ReportMetric(float64(rows[0].ConfigLines), "enterprise-config-lines")
	b.ReportMetric(float64(rows[1].ConfigLines), "university-config-lines")
	b.ReportMetric(float64(rows[0].Policies), "enterprise-policies")
	b.ReportMetric(float64(rows[1].Policies), "university-policies")
}

// BenchmarkFigure7 runs the pilot study (three issues, both approaches,
// full Heimdall workflow) and reports the modeled overheads.
func BenchmarkFigure7(b *testing.B) {
	model := latency.Default()
	var runs []experiments.Figure7Run
	var err error
	for i := 0; i < b.N; i++ {
		runs, err = experiments.Figure7(model)
		if err != nil {
			b.Fatal(err)
		}
	}
	var total float64
	for _, r := range runs {
		b.ReportMetric(r.Overhead().Seconds(), r.Issue+"-overhead-s")
		total += r.Overhead().Seconds()
	}
	b.ReportMetric(total/float64(len(runs)), "mean-overhead-s")
}

func benchFigure89(b *testing.B, scen *scenarios.Scenario, budget, workers int) {
	var results []*attacksurface.Result
	for i := 0; i < b.N; i++ {
		results = experiments.Figure89(scen, budget, workers)
	}
	for _, r := range results {
		b.ReportMetric(r.Feasibility()*100, r.Technique+"-feasibility-pct")
		b.ReportMetric(r.MeanSurface(), r.Technique+"-surface-pct")
	}
}

// BenchmarkFigure8 runs the enterprise feasibility/attack-surface sweep
// with the full mutation search, serially.
func BenchmarkFigure8(b *testing.B) { benchFigure89(b, scenarios.Enterprise(), 0, 1) }

// BenchmarkFigure9 runs the university sweep serially. The mutation
// search is bounded by default (see figure9Budget); EXPERIMENTS.md
// records the full-search results.
func BenchmarkFigure9(b *testing.B) { benchFigure89(b, scenarios.University(), figure9Budget(), 1) }

// BenchmarkFigure9Parallel is BenchmarkFigure9 with the worker pool at
// GOMAXPROCS — the delta against BenchmarkFigure9 is the parallel
// speedup (results are byte-identical; see TestParallelEquivalence).
func BenchmarkFigure9Parallel(b *testing.B) {
	benchFigure89(b, scenarios.University(), figure9Budget(), runtime.GOMAXPROCS(0))
}

// BenchmarkVerifyCost measures real verification throughput on the
// university policy set — the §4.3 anchor (the paper's prototype needed
// ~25 s for 175 constraints; the simulator's real cost is reported here).
func BenchmarkVerifyCost(b *testing.B) {
	scen := scenarios.University()
	snap := scen.Snapshot()
	b.ResetTimer()
	var res *verify.Result
	for i := 0; i < b.N; i++ {
		res = verify.Check(snap, scen.Policies)
	}
	if !res.OK() {
		b.Fatal("baseline violated")
	}
	b.ReportMetric(float64(res.Checked), "policies")
}

// ── Ablations (DESIGN.md §5) ────────────────────────────────────────────

// BenchmarkSliceStrategies compares the three slice strategies' size and
// computation cost on the enterprise network — the knob behind the
// Figure 8 trade-off.
func BenchmarkSliceStrategies(b *testing.B) {
	scen := scenarios.Enterprise()
	snap := scen.Snapshot()
	for _, strat := range []twin.SliceStrategy{twin.SliceAll, twin.SliceNeighbors, twin.SliceTaskDriven} {
		b.Run(strat.String(), func(b *testing.B) {
			var slice map[string]bool
			for i := 0; i < b.N; i++ {
				slice = twin.ComputeSlice(scen.Network, snap, strat, "h2", "h3", nil)
			}
			b.ReportMetric(float64(len(slice)), "devices")
		})
	}
}

// BenchmarkContinuousVsBatch compares the §4.3 strawman (verify after
// every technician action) against Heimdall's verify-once-at-commit.
func BenchmarkContinuousVsBatch(b *testing.B) {
	scen := scenarios.Enterprise()
	issue := scen.Issues[2] // isp: pure diagnosis+fix script
	build := func() *netmodel.Network {
		n := scen.Network.Clone()
		if err := issue.Fault.Inject(n); err != nil {
			b.Fatal(err)
		}
		return n
	}

	b.Run("continuous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := build()
			env := console.NewEnv(n)
			checks := 0
			for _, cmd := range issue.Script {
				if _, err := console.New(cmd.Device, env).Run(cmd.Line); err != nil {
					b.Fatal(err)
				}
				verify.Check(dataplane.Compute(n), scen.Policies)
				checks++
			}
			b.ReportMetric(float64(checks), "verifications")
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := build()
			env := console.NewEnv(n)
			for _, cmd := range issue.Script {
				if _, err := console.New(cmd.Device, env).Run(cmd.Line); err != nil {
					b.Fatal(err)
				}
			}
			verify.Check(dataplane.Compute(n), scen.Policies)
			b.ReportMetric(1, "verifications")
		}
	})
}

// BenchmarkLPM compares the FIB's longest-prefix-match table against a
// linear scan, on the university network's route mix.
func BenchmarkLPM(b *testing.B) {
	scen := scenarios.University()
	snap := scen.Snapshot()
	rib := snap.RIB("r1")
	probes := make([]netip.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, netip.AddrFrom4([4]byte{10, byte(i % 18), 0, 10}))
	}

	b.Run("table", func(b *testing.B) {
		var t dataplane.LPM
		for _, e := range rib {
			t.Insert(e.Prefix, []dataplane.FIBEntry{e})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(probes[i%len(probes)])
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

// BenchmarkMonitorOverhead measures the reference monitor's per-command
// cost: a mediated twin session versus a raw console.
func BenchmarkMonitorOverhead(b *testing.B) {
	scen := scenarios.Enterprise()

	b.Run("direct", func(b *testing.B) {
		env := console.NewEnv(scen.Network.Clone())
		con := console.New("r1", env)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := con.Run("show ip route"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mediated", func(b *testing.B) {
		spec := &privilege.Spec{Ticket: "B", Technician: "bench", Rules: []privilege.Rule{
			{Effect: privilege.AllowEffect, Action: "*", Resource: "*"},
		}}
		tw, err := twin.New(twin.Config{
			Ticket: "B", Technician: "bench",
			Production: scen.Network, Spec: spec,
		})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := tw.OpenConsole("r1")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("show ip route"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonitorOverheadInstrumented is the mediated benchmark with a
// live telemetry registry wired into the twin, so the delta against
// BenchmarkMonitorOverhead/mediated is the full cost of instrumentation
// (counter lookups, histogram observations) on the hot mediation path.
func BenchmarkMonitorOverheadInstrumented(b *testing.B) {
	scen := scenarios.Enterprise()
	spec := &privilege.Spec{Ticket: "B", Technician: "bench", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "*", Resource: "*"},
	}}
	tw, err := twin.New(twin.Config{
		Ticket: "B", Technician: "bench",
		Production: scen.Network, Spec: spec,
		Meter: telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := tw.OpenConsole("r1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec("show ip route"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowCache measures the snapshot flow cache on the university
// network: "trace" is the uncached per-flow trace cost (TraceFrom, the
// cache's miss path minus map bookkeeping), "memoized" the hit path, and
// "verify-warm" a full 175-policy verification once the cache is warm —
// the cost AffectedBy and repeated Check calls pay per policy after the
// first pass.
func BenchmarkFlowCache(b *testing.B) {
	scen := scenarios.University()
	snap := scen.Snapshot()
	hosts := scen.Network.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]

	b.Run("trace", func(b *testing.B) {
		a1, _ := scen.Network.HostAddr(src)
		a2, _ := scen.Network.HostAddr(dst)
		f := dataplane.Flow{Proto: netmodel.ICMP, Src: a1, Dst: a2}
		for i := 0; i < b.N; i++ {
			snap.TraceFrom(src, f)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.Reach(src, dst, netmodel.ICMP, 0); err != nil {
				b.Fatal(err)
			}
		}
		hits, misses := snap.FlowCacheStats()
		b.ReportMetric(float64(hits), "hits")
		b.ReportMetric(float64(misses), "misses")
	})
	b.Run("verify-warm", func(b *testing.B) {
		warm := scen.Snapshot()
		verify.Check(warm, scen.Policies)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			verify.Check(warm, scen.Policies)
		}
	})
}

// reviewFixture is the review-fresh workload of benchmark/ in process: the
// fat-tree catalog tenant (k=4, 400 policies), an enforcer holding a
// production snapshot one review has already warmed, and a never-repeating
// change set on the storage guard of e0-0, so no review is answered from
// the verdict cache and every one derives, carries production's verdicts
// and retraces the rest.
func reviewFixture(tb testing.TB) (review func(i int) *enforcer.Decision, carried func() float64) {
	scen := generate.FatTree(generate.FatTreeParams{K: 4})
	e := enforcer.New(enclave.NewPlatformFromSeed("review-bench").Load("heimdall-enforcer-v1"), scen.Policies)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	spec := &privilege.Spec{Ticket: "T-BENCH", Technician: "bench", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:e0-0"},
	}}
	review = func(i int) *enforcer.Decision {
		d := e.Review(scen.Network, []config.Change{{
			Device: "e0-0", Op: config.OpAddACLEntry, ACLName: "STORAGE-GUARD",
			Entry: &netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP,
				Src: netip.MustParsePrefix("10.0.1.0/24"), Dst: netip.MustParsePrefix("10.0.0.0/24"), DstPort: uint16(1024 + i%60000)},
		}}, spec)
		if !d.Accepted || d.Checked != len(scen.Policies) {
			tb.Fatalf("review %d: %+v", i, d)
		}
		return d
	}
	review(0)
	return review, func() float64 { return reg.CounterValue("heimdall_verify_policies_carried_total") }
}

// BenchmarkReview measures one uncached review against a warm held
// snapshot: ns/op and allocs/op (run with -benchmem) plus how many of the
// 400 policy verdicts each review took over from production instead of
// retracing and deciding (carried/op).
func BenchmarkReview(b *testing.B) {
	review, carried := reviewFixture(b)
	before := carried()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		review(i)
	}
	b.ReportMetric((carried()-before)/float64(b.N), "carried/op")
}

// TestReviewAllocBudget pins the allocations of one uncached review on a
// warm held snapshot. Measured at 715 (1,460 while each of the 308 policies
// production already answers was carried as a trace — a memo entry each in
// a cache thrown away with the review — and decided again, not taken as a
// verdict; 1,659 while each of the 92 retraced flows sorted its two hosts'
// interface names to find their addresses; 3,198 before reviews carried
// anything: each retraced flow costs a Trace, its hops and two memo
// entries); the ceiling leaves ~10 % for the hash trie's per-map seed. If a
// change legitimately moves the count, re-measure with -v and reset the
// ceiling; don't just raise it.
func TestReviewAllocBudget(t *testing.T) {
	const ceiling = 790
	review, carried := reviewFixture(t)
	i, before := 0, carried()
	allocs := testing.AllocsPerRun(50, func() { i++; review(i) })
	t.Logf("%.0f allocs and %.0f carried verdicts per review", allocs, (carried()-before)/float64(i))
	if allocs > ceiling {
		t.Errorf("a review allocates %.0f times, budget %d", allocs, ceiling)
	}
}

// ticketFixture is the ticket-churn workload of benchmark/ in process: one
// university tenant at service.Service level, and run plays the three issues
// as whole tickets — inject (declared, so the held production snapshot is
// derived across it and the open computes nothing), open, script, review (a
// verdict-cache miss), review again (a hit), commit, close. One ticket has
// been played when it returns, so pools, the registry's series and the held
// snapshot are warm.
func ticketFixture(tb testing.TB) (run func(), reg *telemetry.Registry) {
	reg = telemetry.NewRegistry()
	svc := service.New(service.Config{Meter: reg, PlatformSeed: "ticket-bench", VerifyWorkers: 1})
	tb.Cleanup(svc.Close)
	if _, err := svc.CreateTenant("bench", "university"); err != nil {
		tb.Fatal(err)
	}
	tn, err := svc.Tenant("bench")
	if err != nil {
		tb.Fatal(err)
	}
	must := func(step string, res service.ReviewResult, err error) {
		if err != nil || !res.Accepted || res.Checked != 175 {
			tb.Fatalf("%s: %+v, %v", step, res, err)
		}
	}
	run = func() {
		for _, is := range tn.ScenarioData().Issues {
			tk, err := svc.InjectIssue("bench", is.Name, "bench")
			if err != nil {
				tb.Fatal(err)
			}
			info, err := svc.CreateSession("bench", "tech", tk.ID)
			if err != nil {
				tb.Fatal(err)
			}
			for _, c := range is.Script {
				if _, err := svc.Exec("bench", info.Session, info.Token, c.Device, c.Line); err != nil {
					tb.Fatalf("%s on %s: %v", c.Line, c.Device, err)
				}
			}
			for _, step := range []string{"review", "review again"} {
				res, err := svc.Review("bench", info.Session, info.Token)
				must(step, res, err)
			}
			res, err := svc.Commit("bench", info.Session, info.Token)
			must("commit", res, err)
			if err := svc.CloseSession("bench", info.Session, info.Token); err != nil {
				tb.Fatal(err)
			}
		}
	}
	run()
	return run, reg
}

// The two counters a ticket run is read by: devices the twins diffed, and
// production snapshots computed from scratch.
const (
	ticketDiffed   = "heimdall_twin_devices_diffed_total"
	ticketComputed = "heimdall_enforcer_prod_snapshot_misses_total"
)

// BenchmarkTicket measures three whole tickets per op: ns/op and allocs/op
// (run with -benchmem) plus how many devices the twins diffed for the nine
// change-set requests in them (diffed-devices/op: one per ticket, each
// ticket's writes land on one device, where a whole-network diff would
// read 30 devices nine times) and how many production snapshots were
// computed from scratch (computed-snapshots/op: none — injections and
// commits both derive the held one; it was one per ticket while an
// injection dropped it).
func BenchmarkTicket(b *testing.B) {
	run, reg := ticketFixture(b)
	diffed, computed := reg.CounterValue(ticketDiffed), reg.CounterValue(ticketComputed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric((reg.CounterValue(ticketDiffed)-diffed)/float64(b.N), "diffed-devices/op")
	b.ReportMetric((reg.CounterValue(ticketComputed)-computed)/float64(b.N), "computed-snapshots/op")
}

// TestTicketAllocBudget pins the allocations of three whole tickets.
// Measured at 17,955 (22,802 while a review and a post-apply check decided
// every policy again and every request digested the privilege rules twice
// through Sprintf; 24,146 while the trail and the journal each keyed an
// HMAC per append; 31,384 while an injection dropped the production
// snapshot, each open paid a from-scratch Compute and every trace sorted its
// hosts' interface names; 35,450 before the twin recorded its change set,
// when every review and commit diffed all 30 devices); the ceiling leaves
// ~10 %. If a change legitimately moves the
// count, re-measure with -v and reset the ceiling; don't just raise it.
func TestTicketAllocBudget(t *testing.T) {
	const ceiling = 19750
	run, reg := ticketFixture(t)
	diffed, computed := reg.CounterValue(ticketDiffed), reg.CounterValue(ticketComputed)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, run)
	// AllocsPerRun calls run once more than it measures, to warm up.
	t.Logf("%.0f allocs and %.1f diffed devices per three tickets", allocs, (reg.CounterValue(ticketDiffed)-diffed)/(runs+1))
	if allocs > ceiling {
		t.Errorf("three tickets allocate %.0f times, budget %d", allocs, ceiling)
	}
	if n := reg.CounterValue(ticketComputed) - computed; n != 0 {
		t.Errorf("%.0f production snapshots computed from scratch over %d tickets, want 0", n, 3*(runs+1))
	}
}

// BenchmarkSnapshotCompute measures dataplane computation on both
// evaluation networks (the twin rebuild cost after each write command).
func BenchmarkSnapshotCompute(b *testing.B) {
	for _, scen := range []*scenarios.Scenario{scenarios.Enterprise(), scenarios.University()} {
		b.Run(scen.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dataplane.Compute(scen.Network)
			}
		})
	}
}

// BenchmarkRender measures the three stages of a large console read: the
// running-config printer and the routing-table renderer (both append into
// one buffer; TestPrintMatchesReference and TestFormatRIBMatchesReference
// pin their bytes to the fmt-based renderers they replaced), and a whole
// mediated "show running-config" through the HTTP handler, where the 8 KB
// reply is encoded once into a pooled buffer. Run with -benchmem: the
// allocation counts are the point (TestRenderAllocBudget holds them).
func BenchmarkRender(b *testing.B) {
	uni := scenarios.University()
	uniSnap := dataplane.Compute(uni.Network)
	k8 := generate.FatTree(generate.FatTreeParams{K: 8})
	k8Snap := dataplane.Compute(k8.Network)

	b.Run("print/university-r2", func(b *testing.B) {
		r2 := uni.Network.Devices["r2"]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = config.Print(r2)
		}
		b.SetBytes(int64(len(renderSink)))
	})
	b.Run("rib/university-r2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = uniSnap.FormatRIB("r2")
		}
		b.SetBytes(int64(len(renderSink)))
	})
	b.Run("rib/fattree-k8-core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = k8Snap.FormatRIB("c0-0")
		}
		b.SetBytes(int64(len(renderSink)))
	})
	b.Run("encode/exec-8k", func(b *testing.B) {
		svc := service.New(service.Config{PlatformSeed: "bench"})
		defer svc.Close()
		if _, err := svc.CreateTenant("acme", "university"); err != nil {
			b.Fatal(err)
		}
		tk, err := svc.InjectIssue("acme", "acl", "bench")
		if err != nil {
			b.Fatal(err)
		}
		info, err := svc.CreateSession("acme", "bench", tk.ID)
		if err != nil {
			b.Fatal(err)
		}
		if !slices.Contains(info.Slice, "r2") {
			b.Fatalf("r2 is not in the ticket's slice %v", info.Slice)
		}
		h := svc.Handler()
		path := "/v1/tenants/acme/sessions/" + info.Session + "/exec"
		body := []byte(`{"device":"r2","line":"show running-config"}`)
		replyLen := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", path, bytes.NewReader(body))
			req.Header.Set(service.TokenHeader, info.Token)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 || rec.Body.Len() < 8000 {
				b.Fatalf("status %d, %d bytes", rec.Code, rec.Body.Len())
			}
			replyLen = rec.Body.Len()
		}
		b.SetBytes(int64(replyLen))
	})
}

// renderSink keeps BenchmarkRender's results alive past the compiler.
var renderSink string

// BenchmarkDerive measures incremental snapshot derivation against a full
// recompute at university scale — the per-trial cost of the mutation
// sweep. "full-compute" is the old path (deep Clone + Compute);
// "derive-static" rebuilds one device's RIB+FIB; "derive-acl" recomputes
// nothing at all; "derive-l2" re-checks adjacency/LSDB but shares every
// table by identity; "derive-l3topo" is the universal single-device
// topology derive with the incremental link-state pass; the two
// "/fattree-k8" rows repeat derive-ospf and derive-l3topo on a multi-area
// topology. The acceptance bars are derive-static ≥ 10× and derive-l2 ≥ 20× cheaper than
// full-compute; TestDeriveMatchesCompute proves the outputs identical.
func BenchmarkDerive(b *testing.B) {
	scen := scenarios.University()
	base := scen.Network
	snap := dataplane.Compute(base)
	blackhole := netip.MustParseAddr("10.200.0.3")

	b.Run("full-compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.Clone()
			trial.Devices["r2"].StaticRoutes = append(trial.Devices["r2"].StaticRoutes,
				netmodel.StaticRoute{Prefix: netip.MustParsePrefix("10.5.0.0/24"), NextHop: blackhole})
			dataplane.Compute(trial)
		}
	})
	b.Run("derive-static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("r2")
			trial.Devices["r2"].StaticRoutes = append(trial.Devices["r2"].StaticRoutes,
				netmodel.StaticRoute{Prefix: netip.MustParsePrefix("10.5.0.0/24"), NextHop: blackhole})
			snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeStatic}})
		}
	})
	b.Run("derive-acl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("r2")
			d := trial.Devices["r2"]
			d.ACL(d.ACLNames()[0], true).InsertEntry(netmodel.ACLEntry{
				Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto,
			})
			snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeACL}})
		}
	})
	b.Run("derive-ospf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("r2")
			d := trial.Devices["r2"]
			for _, ifName := range d.InterfaceNames() {
				d.OSPF.Passive[ifName] = true
			}
			snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeOSPF}})
		}
	})
	b.Run("derive-l2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("r2")
			trial.Devices["r2"].VLANs[999] = &netmodel.VLAN{ID: 999, Name: "qa"}
			snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeL2}})
		}
	})
	b.Run("derive-l3topo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("r2")
			for _, ifName := range trial.Devices["r2"].InterfaceNames() {
				itf := trial.Devices["r2"].Interfaces[ifName]
				if itf.Up() && itf.HasAddr() {
					itf.Shutdown = true
					break
				}
			}
			snap.Derive(trial, dataplane.ChangeSet{{Device: "r2", Kind: dataplane.ChangeL3Topology}})
		}
	})

	// The multi-area rows: the scale tier's two mutations on the k=8
	// fat-tree (80 switches, a backbone plus eight pod areas), where the
	// LSDB is patched row by row and most sources keep their SPF result —
	// on university every Dijkstra reruns.
	k8 := sync.OnceValues(func() (*netmodel.Network, *dataplane.Snapshot) {
		n := generate.FatTree(generate.FatTreeParams{K: 8}).Network
		return n, dataplane.Compute(n)
	})
	b.Run("derive-ospf/fattree-k8", func(b *testing.B) {
		base, snap := k8()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("c0-0")
			trial.Devices["c0-0"].Interfaces["Gi0/1"].OSPFCost = 7
			snap.Derive(trial, dataplane.ChangeSet{{Device: "c0-0", Kind: dataplane.ChangeOSPF}})
		}
	})
	b.Run("derive-l3topo/fattree-k8", func(b *testing.B) {
		base, snap := k8()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trial := base.CloneCOW("c0-0")
			trial.Devices["c0-0"].Interfaces["Gi0/0"].Shutdown = true
			snap.Derive(trial, dataplane.ChangeSet{{Device: "c0-0", Kind: dataplane.ChangeL3Topology}})
		}
	})
}

// BenchmarkEndToEndWorkflow measures one full ticket lifecycle (system
// construction, twin, mediation, verification, commit) on the enterprise
// network, using the ISP issue.
func BenchmarkEndToEndWorkflow(b *testing.B) {
	scen := scenarios.Enterprise()
	issue := scen.Issues[2]
	for i := 0; i < b.N; i++ {
		prod := scen.Network.Clone()
		if err := issue.Fault.Inject(prod); err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewSystem(core.Options{
			Network: prod, Policies: scen.Policies,
			Sensitive: scen.Sensitive, PlatformSeed: "bench",
		})
		if err != nil {
			b.Fatal(err)
		}
		tk := sys.Tickets.Create(ticket.Ticket{
			Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
			SrcHost: issue.SrcHost, DstHost: issue.DstHost,
			Proto: issue.Proto, DstPort: issue.DstPort,
			Suspects: []string{issue.Fault.RootCause}, CreatedBy: "bench",
		})
		eng, err := sys.StartWork(tk.ID, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunScript(issue.Script); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrivilegeGranularity quantifies the value of the fine-grained
// Privilegemsp (DESIGN.md §5): on the same interface-down tickets, compare
// the violation ratio when writes are granted per specific resource
// (Heimdall's template) versus per whole device (a coarse admin habit).
func BenchmarkPrivilegeGranularity(b *testing.B) {
	scen := scenarios.Enterprise()
	cases := attacksurface.InterfaceFaults(scen.Network, nil)[:8]
	fine := &attacksurface.Evaluator{Base: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive}

	var fineRes, coarseRes *attacksurface.Result
	for i := 0; i < b.N; i++ {
		fineRes = fine.Evaluate(attacksurface.Heimdall, cases)
		// Coarse baseline: full privileges, but the task-driven slice.
		coarse := attacksurface.Technique{Name: "CoarseGrant",
			Strategy: twin.SliceTaskDriven, FullPrivileges: true}
		coarseRes = fine.Evaluate(coarse, cases)
	}
	b.ReportMetric(fineRes.MeanSurface(), "fine-grained-surface-pct")
	b.ReportMetric(coarseRes.MeanSurface(), "device-level-surface-pct")
}
