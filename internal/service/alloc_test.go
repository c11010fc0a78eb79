package service

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"heimdall/internal/telemetry"
	"heimdall/internal/twin"
)

// lookupMeter counts the instrument lookups made through it.
type lookupMeter struct {
	*telemetry.Registry
	n atomic.Int64
}

func (m *lookupMeter) Counter(name string, labels ...telemetry.Label) telemetry.Counter {
	m.n.Add(1)
	return m.Registry.Counter(name, labels...)
}

func (m *lookupMeter) Gauge(name string, labels ...telemetry.Label) telemetry.Gauge {
	m.n.Add(1)
	return m.Registry.Gauge(name, labels...)
}

func (m *lookupMeter) Histogram(name string, buckets []float64, labels ...telemetry.Label) telemetry.Histogram {
	m.n.Add(1)
	return m.Registry.Histogram(name, buckets, labels...)
}

// TestMeteredExecAllocatesNoMore: the service, the reference monitor and
// the console look their per-line metrics up once (per tenant, twin or
// label pair), so a mediated line — allowed or denied — looks no metric
// up once its labels have been seen, and allocates no more under a live
// registry than under the no-op meter. A lookup through the Meter
// interface allocates its labels under either meter alike, so the lookup
// count, not the comparison, is what catches one.
func TestMeteredExecAllocatesNoMore(t *testing.T) {
	line := func(meter telemetry.Meter, cmd string, deny bool) func() {
		svc := New(Config{Meter: meter, PlatformSeed: "alloc"})
		t.Cleanup(svc.Close)
		if _, err := svc.CreateTenant("acme", "university"); err != nil {
			t.Fatal(err)
		}
		tk, err := svc.InjectIssue("acme", "acl", "admin")
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.CreateSession("acme", "alice", tk.ID)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			_, err := svc.Exec("acme", info.Session, info.Token, info.Slice[0], cmd)
			if denied := new(twin.ErrDenied); deny != errors.As(err, &denied) || !deny && err != nil {
				t.Fatalf("%q: %v", cmd, err)
			}
		}
	}
	for cmd, deny := range map[string]bool{"show ip route": false, "vlan 99 name X": true} {
		m := &lookupMeter{Registry: telemetry.NewRegistry()}
		metered := line(m, cmd, deny)
		metered()
		before := m.n.Load()
		for i := 0; i < 10; i++ {
			metered()
		}
		if n := m.n.Load() - before; n != 0 {
			t.Errorf("%q: ten lines looked up %d metrics, want 0", cmd, n)
		}
		if raceEnabled {
			continue // the race detector allocates on its own: CI's "Allocation budgets" step runs this without -race
		}
		plain := testing.AllocsPerRun(200, line(telemetry.Nop(), cmd, deny))
		allocs := testing.AllocsPerRun(200, metered)
		t.Logf("%q: %v allocations metered, %v unmetered", cmd, allocs, plain)
		if allocs > plain {
			t.Errorf("%q: a metered line allocates %v times, an unmetered one %v", cmd, allocs, plain)
		}
	}
}

// TestReviewAndCommitLookUpNoMetric: the ticket's paths look their metrics
// up once (per service, tenant, twin or enforcer), so once a tenant has
// worked one ticket end to end, the next ticket's injection, its open, its
// review (a verdict-cache miss), the review's repeat (a hit), its commit and
// its close look no metric up.
func TestReviewAndCommitLookUpNoMetric(t *testing.T) {
	m := &lookupMeter{Registry: telemetry.NewRegistry()}
	svc := New(Config{Meter: m, PlatformSeed: "alloc"})
	t.Cleanup(svc.Close)
	if _, err := svc.CreateTenant("acme", "university"); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	issue := tn.ScenarioData().Issues[0]
	for round := 0; round < 2; round++ {
		before := m.n.Load()
		tk, err := svc.InjectIssue("acme", issue.Name, "admin")
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.CreateSession("acme", "alice", tk.ID)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.n.Load() - before; round > 0 && n != 0 {
			t.Errorf("an injection and an open looked up %d metrics, want 0", n)
		}
		for _, cmd := range issue.Script {
			if _, err := svc.Exec("acme", info.Session, info.Token, cmd.Device, cmd.Line); err != nil {
				t.Fatalf("exec %q on %s: %v", cmd.Line, cmd.Device, err)
			}
		}
		before = m.n.Load()
		for i := 0; i < 2; i++ {
			if res, err := svc.Review("acme", info.Session, info.Token); err != nil || !res.Accepted {
				t.Fatalf("review %d: %+v, %v", i, res, err)
			}
		}
		if res, err := svc.Commit("acme", info.Session, info.Token); err != nil || !res.Committed {
			t.Fatalf("commit: %+v, %v", res, err)
		}
		if n := m.n.Load() - before; round > 0 && n != 0 {
			t.Errorf("two reviews and a commit looked up %d metrics, want 0", n)
		}
		before = m.n.Load()
		if err := svc.CloseSession("acme", info.Session, info.Token); err != nil {
			t.Fatal(err)
		}
		if n := m.n.Load() - before; round > 0 && n != 0 {
			t.Errorf("a close looked up %d metrics, want 0", n)
		}
	}
	metrics := m.Registry.Dump()
	for _, series := range []string{
		`heimdall_service_commits_total{tenant="acme"} 2`, "heimdall_service_review_cache_hits_total 2",
		`heimdall_service_tickets_total{tenant="acme"} 2`, `heimdall_service_sessions_total{tenant="acme"} 2`,
		`heimdall_service_sessions_active{tenant="acme"} 0`,
		"heimdall_enforcer_verify_seconds_count", "heimdall_enforcer_push_seconds_count", "heimdall_enforcer_changes_applied_total",
		"heimdall_enforcer_prod_snapshot_hits_total", "heimdall_enforcer_review_cache_misses_total 2",
		"heimdall_verify_runs_total", "heimdall_dataplane_flowcache_hits_total", `heimdall_service_tenant_queue_depth{tenant="acme"}`,
		"heimdall_service_queue_wait_seconds_count", "heimdall_service_verify_seconds_count", `heimdall_twin_changes_total{memo="hit"}`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}
