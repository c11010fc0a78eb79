package faultinject

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"heimdall/internal/telemetry"
)

func TestFailNth(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Scope: "r1", Op: "apply", FailNth: 2}}})
	if err := in.Visit("r1", "apply"); err != nil {
		t.Fatalf("call 1 faulted: %v", err)
	}
	err := in.Visit("r1", "apply")
	if err == nil {
		t.Fatal("call 2 did not fault")
	}
	if !IsTransient(err) {
		t.Fatal("default class should be transient")
	}
	if err := in.Visit("r1", "apply"); err != nil {
		t.Fatalf("call 3 faulted: %v", err)
	}
	// Other scopes and ops are untouched.
	if err := in.Visit("r2", "apply"); err != nil {
		t.Fatalf("r2 faulted: %v", err)
	}
	if err := in.Visit("r1", "restore"); err != nil {
		t.Fatalf("restore faulted: %v", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestFailFirstKThenRecover(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Scope: "r1", FailFirst: 2}}})
	for i := 1; i <= 2; i++ {
		if err := in.Visit("r1", "apply"); err == nil {
			t.Fatalf("call %d did not fault", i)
		}
	}
	if err := in.Visit("r1", "apply"); err != nil {
		t.Fatalf("device did not recover: %v", err)
	}
}

func TestOutageAndClassification(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Scope: "r9", Op: "apply", Outage: true, Class: Permanent}}})
	for i := 0; i < 5; i++ {
		err := in.Visit("r9", "apply")
		if err == nil {
			t.Fatalf("outage call %d succeeded", i)
		}
		if IsTransient(err) {
			t.Fatal("permanent fault classified transient")
		}
	}
	// Wrapped errors keep their classification.
	err := fmt.Errorf("push r9: %w", in.Visit("r9", "apply"))
	if IsTransient(err) {
		t.Fatal("wrapped permanent fault classified transient")
	}
	wrapped := fmt.Errorf("push: %w", &Error{Scope: "x", Op: "apply", Class: Transient})
	if !IsTransient(wrapped) {
		t.Fatal("wrapped transient fault not classified")
	}
	// Unclassified errors are permanent by default.
	if IsTransient(errors.New("some device error")) {
		t.Fatal("bare error classified transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil error classified transient")
	}
}

func TestLatencyAndMeter(t *testing.T) {
	in := New(Plan{Rules: []Rule{
		{Scope: "r1", Latency: 5 * time.Millisecond},
		{Scope: "r1", Op: "apply", FailNth: 1, Latency: 2 * time.Millisecond},
	}})
	var slept []time.Duration
	in.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	reg := telemetry.NewRegistry()
	in.SetMeter(reg)

	if err := in.Visit("r1", "apply"); err == nil {
		t.Fatal("first apply did not fault")
	}
	if err := in.Visit("r1", "restore"); err != nil {
		t.Fatalf("restore faulted: %v", err)
	}
	// Latency accumulates across matching rules: 5+2 then 5.
	want := []time.Duration{7 * time.Millisecond, 5 * time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	if got := reg.CounterValue("heimdall_faults_injected_total",
		telemetry.L("op", "apply"), telemetry.L("class", "transient")); got != 1 {
		t.Fatalf("faults_injected_total = %v, want 1", got)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	scopes := []string{"r1", "r2", "r3"}
	ops := []string{"apply", "restore"}
	a := RandomPlan(42, scopes, ops)
	b := RandomPlan(42, scopes, ops)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	// Different seeds should (for these values) differ.
	c := RandomPlan(43, scopes, ops)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	// Replaying a plan through two injectors gives identical outcomes.
	ia, ib := New(a), New(a)
	for i := 0; i < 20; i++ {
		for _, s := range scopes {
			for _, op := range ops {
				ea, eb := ia.Visit(s, op), ib.Visit(s, op)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("replay diverged at %s/%s call %d", s, op, i)
				}
			}
		}
	}
}

func TestVisitConcurrent(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Scope: "*", Op: "*", FailNth: 10}}})
	var wg sync.WaitGroup
	faults := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := in.Visit("r1", "apply"); err != nil {
					faults[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, f := range faults {
		total += f
	}
	if total != 1 || in.Injected() != 1 {
		t.Fatalf("FailNth under concurrency injected %d faults (counter %d), want exactly 1",
			total, in.Injected())
	}
}
