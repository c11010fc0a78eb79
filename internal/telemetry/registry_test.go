package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("op", "exec"))
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters never decrease
	if v := r.CounterValue("requests_total", L("op", "exec")); v != 3.5 {
		t.Fatalf("counter = %v, want 3.5", v)
	}
	// Label order must not matter.
	r.Counter("multi", L("a", "1"), L("b", "2")).Inc()
	r.Counter("multi", L("b", "2"), L("a", "1")).Inc()
	if v := r.CounterValue("multi", L("a", "1"), L("b", "2")); v != 2 {
		t.Fatalf("label-order-insensitive counter = %v, want 2", v)
	}
	// Absent series read as zero.
	if v := r.CounterValue("requests_total", L("op", "nope")); v != 0 {
		t.Fatalf("absent series = %v", v)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("chain_length")
	g.Set(10)
	g.Add(-3)
	if v := r.CounterValue("chain_length"); v != 7 {
		t.Fatalf("gauge = %v, want 7", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	h.ObserveDuration(5 * time.Millisecond)
	h.ObserveDuration(50 * time.Millisecond)
	h.ObserveDuration(500 * time.Millisecond)
	h.ObserveDuration(5 * time.Second) // lands in +Inf
	h.ObserveDuration(20 * time.Millisecond)
	if n := r.HistogramCount("latency_seconds"); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	r.Gauge("x")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("heimdall_requests_total", L("op", "exec")).Add(3)
	r.Counter("heimdall_requests_total", L("op", "login")).Inc()
	r.Gauge("heimdall_chain_length").Set(12)
	h := r.Histogram("heimdall_exec_seconds", []float64{0.01, 1})
	h.ObserveDuration(time.Millisecond)
	h.ObserveDuration(500 * time.Millisecond)
	h.ObserveDuration(7 * time.Second)

	dump := r.Dump()
	for _, want := range []string{
		"# TYPE heimdall_chain_length gauge\n",
		"heimdall_chain_length 12\n",
		"# TYPE heimdall_exec_seconds histogram\n",
		`heimdall_exec_seconds_bucket{le="0.01"} 1` + "\n",
		`heimdall_exec_seconds_bucket{le="1"} 2` + "\n",
		`heimdall_exec_seconds_bucket{le="+Inf"} 3` + "\n",
		"heimdall_exec_seconds_sum 7.501\n",
		"heimdall_exec_seconds_count 3\n",
		"# TYPE heimdall_requests_total counter\n",
		`heimdall_requests_total{op="exec"} 3` + "\n",
		`heimdall_requests_total{op="login"} 1` + "\n",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	// Families are sorted by name.
	if strings.Index(dump, "heimdall_chain_length") > strings.Index(dump, "heimdall_requests_total") {
		t.Fatalf("families not sorted:\n%s", dump)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("detail", "say \"hi\"\nback\\slash")).Inc()
	dump := r.Dump()
	want := `esc_total{detail="say \"hi\"\nback\\slash"} 1`
	if !strings.Contains(dump, want) {
		t.Fatalf("dump = %q, want to contain %q", dump, want)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines; run
// under -race it also proves the update paths are data-race free.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Shared series and per-worker series, fetched on the hot
				// path each iteration (the instrument lookup is part of
				// what must be safe).
				r.Counter("shared_total").Inc()
				r.Counter("per_worker_total", L("w", string(rune('a'+w)))).Inc()
				r.Gauge("last_i").Set(float64(i))
				r.Histogram("obs_seconds", LatencyBuckets).ObserveDuration(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if v := r.CounterValue("shared_total"); v != workers*perWorker {
		t.Fatalf("shared counter = %v, want %d", v, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if v := r.CounterValue("per_worker_total", L("w", string(rune('a'+w)))); v != perWorker {
			t.Fatalf("worker %d counter = %v, want %d", w, v, perWorker)
		}
	}
	if n := r.HistogramCount("obs_seconds"); n != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", n, workers*perWorker)
	}
}

func TestNopMeterDoesNothing(t *testing.T) {
	m := Nop()
	m.Counter("x", L("a", "b")).Inc()
	m.Gauge("y").Set(3)
	m.Histogram("z", LatencyBuckets).ObserveDuration(time.Second)
	// Nop must not be an Exposer: heimdalld's /metrics handler uses that
	// to detect that telemetry is disabled.
	if _, ok := m.(Exposer); ok {
		t.Fatal("Nop meter must not expose metrics")
	}
}

// TestLabeledLookupAllocatesNothing: looking up a series that exists, with
// one label or with several given out of order, allocates nothing — every
// request's labeled counters take this path, and every review's and push's
// histograms.
func TestLabeledLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	r := NewRegistry()
	r.Counter("one_total", L("kind", "command")).Inc()
	r.Counter("multi_total", L("b", "2"), L("a", "1"), L("c", "3")).Inc()
	buckets := []float64{0.001, 0.01, 0.1}
	r.Histogram("run_seconds", buckets, L("kind", "review")).ObserveDuration(500 * time.Millisecond)
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("one_total", L("kind", "command")).Inc()
		r.Counter("multi_total", L("c", "3"), L("a", "1"), L("b", "2")).Inc()
		r.Histogram("run_seconds", buckets, L("kind", "review")).ObserveDuration(5 * time.Millisecond)
	}); n != 0 {
		t.Fatalf("a labeled lookup of an existing series allocates %v times, want 0", n)
	}
	if v := r.CounterValue("one_total", L("kind", "command")); v != 102 {
		t.Fatalf("one_total = %v, want 102", v)
	}
	if v := r.CounterValue("multi_total", L("a", "1"), L("c", "3"), L("b", "2")); v != 102 {
		t.Fatalf("multi_total = %v, want 102: label order split the series", v)
	}
	if n := r.HistogramCount("run_seconds", L("kind", "review")); n != 102 {
		t.Fatalf("run_seconds count = %v, want 102", n)
	}
}

// The hot-path cost of one counter update, including the series lookup.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	b.Run("lookup+inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Counter("bench_total", L("op", "exec")).Inc()
		}
	})
	b.Run("hoisted", func(b *testing.B) {
		c := r.Counter("bench2_total")
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("nop", func(b *testing.B) {
		m := Nop()
		for i := 0; i < b.N; i++ {
			m.Counter("bench_total", L("op", "exec")).Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", LatencyBuckets)
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
	}
}
