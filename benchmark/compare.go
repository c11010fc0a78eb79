package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// compare is the regression gate: two results files, each a set of runs,
// judged workload by workload and metric by metric against the bounds in
// spec.go. It exits non-zero on any "worse" and on any rise in failures.

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload over a file's runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var v []float64
	for _, run := range f.Runs {
		if w := run.Workloads[workload]; w != nil && w.EndToEnd != nil {
			if x, ok := w.EndToEnd.Metrics[metric]; ok {
				v = append(v, x)
			}
		}
	}
	sort.Float64s(v)
	return v
}

// failRatio is failed over attempted for one workload over a file's runs.
func (f *resultsFile) failRatio(workload string) float64 {
	failed, attempted := 0, 0
	for _, run := range f.Runs {
		if w := run.Workloads[workload]; w != nil {
			for _, o := range []*outcome{w.EndToEnd, w.PerLayer} {
				if o != nil {
					failed += o.Failed
					attempted += o.Attempted
				}
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the run-to-run spread of sorted values as a share of their
// median: the distance between the quartiles as Python's
// statistics.quantiles(v, n=4) gives them from four runs up, the whole
// range with two or three, and unknown (0) with one.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		return (v[len(v)-1] - v[0]) / med
	}
	quartile := func(i int) float64 {
		m := len(v) + 1
		j := i * m / 4
		j = max(1, min(j, len(v)-1))
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// judge compares a metric's old and new runs (both sorted).
func judge(s metricSpec, old, new []float64) (worseBy float64, verdict string) {
	o, n := median(old), median(new)
	worseBy = (n - o) / o
	allBetter := new[len(new)-1] < old[0]
	if s.Better == "higher" {
		worseBy = -worseBy
		allBetter = new[0] > old[len(old)-1]
	}
	noise := max(spread(old), spread(new))
	switch {
	case noise > s.Bound && allBetter:
		return worseBy, "better"
	case noise > s.Bound:
		return worseBy, "unresolved"
	case worseBy > s.Bound:
		return worseBy, "worse"
	case worseBy < -noise && allBetter:
		return worseBy, "better"
	}
	return worseBy, "within"
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare OLD.json NEW.json")
		return 2
	}
	old, err := loadResults(args[0])
	if err == nil {
		var cur *resultsFile
		if cur, err = loadResults(args[1]); err == nil {
			return compareFiles(old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareFiles(old, cur *resultsFile) int {
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told (n=%d)\tnew (n=%d)\tnew/old\tspread old\tspread new\tbound\tverdict\n", len(old.Runs), len(cur.Runs))
	for _, w := range workloads {
		for _, s := range endToEnd {
			ov, nv := old.values(w.name, s.Name), cur.values(w.name, s.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			_, verdict := judge(s, ov, nv)
			if verdict == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", w.name, s.Name,
				median(ov), s.Unit, median(nv), s.Unit, median(nv)/median(ov),
				100*spread(ov), 100*spread(nv), 100*s.Bound, verdict)
		}
		of, nf := old.failRatio(w.name), cur.failRatio(w.name)
		verdict := "within"
		if nf > of {
			verdict = "worse"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g\t%.4g\t\t\t\tany rise\t%s\n", w.name, of, nf, verdict)
	}
	tw.Flush() // standard output: nothing to do about a failed write
	if bad > 0 {
		fmt.Printf("%d regressions\n", bad)
		return 1
	}
	return 0
}
