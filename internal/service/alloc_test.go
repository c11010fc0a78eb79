package service

import (
	"errors"
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
