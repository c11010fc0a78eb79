package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"heimdall/internal/latency"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
)

func TestTable1MatchesPaperShape(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ent, uni := rows[0], rows[1]
	if ent.Routers != 9 || ent.Hosts != 9 || ent.Links != 22 || ent.Policies != 21 {
		t.Fatalf("enterprise row = %+v", ent)
	}
	if uni.Routers != 13 || uni.Hosts != 17 || uni.Links != 92 || uni.Policies != 175 {
		t.Fatalf("university row = %+v", uni)
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "enterprise") || !strings.Contains(text, "1394") {
		t.Fatalf("format:\n%s", text)
	}
}

func TestFigure7ShapeMatchesPaper(t *testing.T) {
	runs, err := Figure7(latency.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	byName := map[string]Figure7Run{}
	var totalOverhead time.Duration
	for _, r := range runs {
		byName[r.Issue] = r
		totalOverhead += r.Overhead()

		// Heimdall is always slower than Current for the same issue, and
		// the dominant step is operating (paper: "most time is spent
		// performing operations").
		if r.Heimdall.Total() <= r.Current.Total() {
			t.Errorf("%s: Heimdall %v <= Current %v", r.Issue, r.Heimdall.Total(), r.Current.Total())
		}
		operate := stepOf(r.Heimdall, "operate")
		for _, step := range []string{"connect", "gen-privilege", "verify", "schedule", "save"} {
			if stepOf(r.Heimdall, step) > operate {
				t.Errorf("%s: step %s (%v) exceeds operate (%v)", r.Issue, step, stepOf(r.Heimdall, step), operate)
			}
		}
	}
	// The complex issue (vlan) costs more overhead than the simple one
	// (isp), and the average lands in the paper's ballpark (~28 s; we
	// accept 10-60 s).
	if byName["vlan"].Overhead() <= byName["isp"].Overhead() {
		t.Errorf("vlan overhead %v should exceed isp %v",
			byName["vlan"].Overhead(), byName["isp"].Overhead())
	}
	mean := totalOverhead / 3
	if mean < 10*time.Second || mean > 60*time.Second {
		t.Errorf("mean overhead %v outside the paper's ballpark", mean)
	}
	if !strings.Contains(FormatFigure7(runs), "overhead") {
		t.Error("format missing overhead")
	}
}

func TestFigure8ShapeViaExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation search is slow")
	}
	results := Figure89(scenarios.Enterprise(), 0, 1)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	all, nb, hd := results[0], results[1], results[2]
	if all.Feasibility() != 1 || hd.Feasibility() < 0.9 {
		t.Errorf("feasibility: all=%v heimdall=%v", all.Feasibility(), hd.Feasibility())
	}
	if !(all.MeanSurface() > nb.MeanSurface() && nb.MeanSurface() > hd.MeanSurface()) {
		t.Errorf("surface ordering wrong: %v %v %v",
			all.MeanSurface(), nb.MeanSurface(), hd.MeanSurface())
	}
	if out := FormatFigure89("Figure 8 (enterprise)", results); !strings.Contains(out, "reduction") {
		t.Errorf("format:\n%s", out)
	}
}

// TestFiguresGolden pins the invariant every refactor leans on: Table 1,
// Figure 7 and Figure 8 (at the CI's -budget 40) print exactly what
// docs/figures.golden records, wall-clock fields aside. Figure 9 takes
// ~11 s and is diffed against the same file by CI only.
func TestFiguresGolden(t *testing.T) {
	golden, err := os.ReadFile("../../docs/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, _, found := strings.Cut(string(golden), "Figure 9 (university)")
	if !found {
		t.Fatal("docs/figures.golden has no Figure 9 section to stop at")
	}
	runs, err := Figure7(latency.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTable1(Table1()) + "\n" +
		regexp.MustCompile(`, real compute [^)]*`).ReplaceAllString(FormatFigure7(runs), "") + "\n" +
		FormatFigure89("Figure 8 (enterprise)", Figure89(scenarios.Enterprise(), 40, 1)) + "\n"
	if got != want {
		t.Fatalf("figures moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestMeasureVerifyCost(t *testing.T) {
	res := MeasureVerifyCost(latency.Default())
	if res.Policies != 175 {
		t.Fatalf("policies = %d", res.Policies)
	}
	if res.Elapsed <= 0 || res.PerPolicy <= 0 {
		t.Fatalf("elapsed = %v per-policy = %v", res.Elapsed, res.PerPolicy)
	}
	// Modeled wall time reproduces the paper's ~25 s for 175 constraints.
	if res.ModeledWall < 20*time.Second || res.ModeledWall > 30*time.Second {
		t.Fatalf("modeled wall = %v, want ≈25s", res.ModeledWall)
	}
}

// TestTraceFigure7Reconciles fabricates pilot-study runs from the default
// latency model, decodes the JSONL lines it writes and checks that they
// reconcile exactly with the Figure 7 breakdowns: one root span per
// approach whose duration is the breakdown total, with one child per
// modeled step, every line in start order.
func TestTraceFigure7Reconciles(t *testing.T) {
	model := latency.Default()
	runs := []Figure7Run{
		{
			Issue:      "vlan",
			TicketID:   "T-0001",
			Technician: "pilot",
			Current:    model.Current("vlan", 6),
			Heimdall:   model.Heimdall("vlan", 6, 5, 2, 21, 3),
		},
		{
			Issue:      "ospf",
			TicketID:   "T-0001",
			Technician: "pilot",
			Current:    model.Current("ospf", 4),
			Heimdall:   model.Heimdall("ospf", 4, 4, 0, 21, 1),
		},
	}
	start := time.Date(2021, time.November, 1, 0, 0, 0, 0, time.UTC)
	var out strings.Builder
	n, err := TraceFigure7(&out, runs, start)
	if err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.Span
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var s telemetry.Span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		spans = append(spans, s)
	}

	wantSpans := 0
	for _, r := range runs {
		wantSpans += 2 // two root spans
		wantSpans += len(r.Current.Steps) + len(r.Heimdall.Steps)
	}
	if len(spans) != wantSpans || n != wantSpans {
		t.Fatalf("wrote %d lines and reported %d spans, want %d", len(spans), n, wantSpans)
	}

	roots := map[string]telemetry.Span{}
	children := map[string][]telemetry.Span{}
	for i, s := range spans {
		if want := fmt.Sprintf("s%04d", i+1); s.SpanID != want {
			t.Errorf("line %d has span ID %s, want %s: IDs are sequential", i+1, s.SpanID, want)
		}
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			t.Errorf("span %s starts before the line above it", s.SpanID)
		}
		if s.DurMS != float64(s.End.Sub(s.Start))/float64(time.Millisecond) {
			t.Errorf("span %s: durationMs %v, want %v", s.SpanID, s.DurMS, s.End.Sub(s.Start))
		}
		if s.ParentID == "" {
			roots[s.Name] = s
		} else {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	for _, r := range runs {
		for _, bd := range []*latency.Breakdown{r.Current, r.Heimdall} {
			name := strings.ToLower(bd.Approach) + " " + bd.Issue
			root, ok := roots[name]
			if !ok {
				t.Fatalf("no root span %q", name)
			}
			if got := root.End.Sub(root.Start); got != bd.Total() {
				t.Errorf("%s: root duration %s, want breakdown total %s", name, got, bd.Total())
			}
			if root.Attrs["ticket"] != r.TicketID || root.Attrs["technician"] != r.Technician {
				t.Errorf("%s: attrs = %v", name, root.Attrs)
			}
			kids := children[root.SpanID]
			if len(kids) != len(bd.Steps) {
				t.Fatalf("%s: %d child spans, want %d steps", name, len(kids), len(bd.Steps))
			}
			for i, step := range bd.Steps {
				if kids[i].Name != step.Name || kids[i].TraceID != root.TraceID {
					t.Errorf("%s: child %d = %q in trace %s, want %q in %s", name, i, kids[i].Name, kids[i].TraceID, step.Name, root.TraceID)
				}
				if got := kids[i].End.Sub(kids[i].Start); got != step.Duration {
					t.Errorf("%s/%s: duration %s, want %s", name, step.Name, got, step.Duration)
				}
			}
		}
	}
}

// stepOf returns the duration of the named step of b (0 when absent).
func stepOf(b *latency.Breakdown, name string) time.Duration {
	for _, s := range b.Steps {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}
