package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// startReference re-executes it as the reference server.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == referenceArg {
		os.Exit(referenceMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestPlanIsSeeded(t *testing.T) {
	for _, w := range workloads {
		scen := scenarioFor(w)
		d1, mix1 := planDigest(w, scen, 1)
		again, _ := planDigest(w, scen, 1)
		d2, mix2 := planDigest(w, scen, 2)
		if d1 != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, d1, again)
		}
		if d1 == d2 {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, d1)
		}
		if !reflect.DeepEqual(mix1, mix2) {
			t.Errorf("%s: class mix differs between seeds: %v vs %v", w.name, mix1, mix2)
		}
		if mix1[w.light] == 0 || mix1[w.heavy] == 0 {
			t.Errorf("%s: mix %v lacks class %s or %s", w.name, mix1, w.light, w.heavy)
		}
	}
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code, 2 to 8 allowed", n, len(workloads))
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the code, 1 to 16 allowed", n, len(endToEnd))
	}
	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the code, 1 to 128 allowed", n, len(perLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", b.RunSeconds)
	}
	seen := make(map[string]bool)
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		once(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, 200 allowed", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, m := range b.EndToEnd {
		once(m.Name)
		if i < len(endToEnd) && (metricSpec{m.Name, m.Unit, m.Better, m.Bound}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v not allowed", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		once(m.Name)
		if i < len(perLayer) && (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}) != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, m, perLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q not allowed", m.Name, m.Unit)
		}
	}
}

// TestSmoke drives every workload for a second against the real daemon
// and one traced run, and expects every metric and not one failed check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts heimdalld; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllDaemons)
	for i, w := range workloads {
		r := newRunner(w, 1, 100)
		if err := r.buildOracle(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check := func(kind string, out *outcome, err error, specs []metricSpec) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, kind, err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s %s: %d of %d checks failed: %v", w.name, kind, out.Failed, out.Attempted, out.Fails)
			}
			if _, err := resultLine(out, specs); err != nil {
				t.Errorf("%s %s: %v", w.name, kind, err)
			}
		}
		out, err := r.window(root, bin, 1)
		check("window", out, err, endToEnd)
		if i == 0 {
			out, err := r.traced(root, bin, 1)
			check("traced run", out, err, perLayer)
		}
	}
}
