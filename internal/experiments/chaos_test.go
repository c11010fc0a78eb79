package experiments

import (
	"fmt"
	"testing"
)

// TestChaosSuite is the headline robustness proof: 60 seeded fault
// schedules, each audited by RunChaosSchedule against the all-or-nothing
// invariant, journal-replay equivalence and counter reconciliation.
// Schedules run as parallel subtests so the race detector sweeps the
// pipeline too. Seeds are pinned: `go run ./cmd/experiments -chaos 60`
// reproduces a failure.
func TestChaosSuite(t *testing.T) {
	results := make([]*ChaosResult, 61)
	t.Run("schedules", func(t *testing.T) {
		for seed := int64(1); seed <= 60; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				r, err := RunChaosSchedule(seed)
				if err != nil {
					t.Fatal(err)
				}
				results[seed] = r
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	var s ChaosSummary
	for _, r := range results[1:] {
		s.Add(*r)
	}
	// The sweep must actually exercise every terminal outcome — a chaos
	// suite that never rolls back or quarantines proves nothing.
	if s.Committed == 0 || s.RolledBack == 0 || s.Quarantined == 0 {
		t.Fatalf("outcome coverage too thin: %d committed, %d rolled back, %d quarantined",
			s.Committed, s.RolledBack, s.Quarantined)
	}
	if s.Faults == 0 {
		t.Fatal("no faults injected across 60 schedules")
	}
	t.Logf("60 schedules: %d committed, %d rolled back, %d quarantined; %d faults, %d retries",
		s.Committed, s.RolledBack, s.Quarantined, s.Faults, s.Retries)
}

// TestChaosDeterministic: the same seed must reproduce the same schedule,
// outcome and bookkeeping — that is what makes a chaos failure debuggable.
func TestChaosDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		a, err := RunChaosSchedule(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunChaosSchedule(seed)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, a, b)
		}
	}
}

// TestChaosSweep exercises the aggregate entry point the CLI uses.
func TestChaosSweep(t *testing.T) {
	s, err := Chaos(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(s.Results))
	}
	if s.Committed+s.RolledBack+s.Quarantined != 10 {
		t.Fatalf("outcomes do not partition the sweep: %+v", s)
	}
	out := FormatChaos(s)
	if out == "" {
		t.Fatal("empty report")
	}
}
