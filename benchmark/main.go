// Command benchmark is heimdall-bench: technician workloads driven through
// a real heimdalld's HTTP socket, with a per-layer budget peeled from the
// outside. See README.md in this directory.
//
//	go -C benchmark run . -seed 1                      all workloads, untraced then traced
//	go -C benchmark run . --workload console-read --seed 1 --seconds 20 --trace 0
//	go -C benchmark run . compare out/old.json out/new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == referenceArg {
		os.Exit(referenceMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

// options are the command line of a measuring run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	warmup   int
	out      string
}

func benchMain() (code int) {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and print its result object; default: all, untraced then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window (and time box of a traced run)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.warmup, "warmup-ops", 400, "requests before anything is measured")
	flag.StringVar(&o.out, "out", "", "results file to append this run to (default benchmark/out/results.json)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) ||
		(o.workload != "" && workloadByName(o.workload) == nil) {
		flag.Usage()
		return 2
	}

	// Whatever ends the run — return, failed check, panic, signal — no
	// heimdalld outlives it.
	defer stopAllDaemons()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllDaemons()
		os.Exit(130)
	}()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// meta is the environment a results file records with every run.
type meta struct {
	Time       string  `json:"time"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of the load generator and, pinned with it, of heimdalld
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmupOps  int     `json:"warmup_ops"`
}

// workloadRun is one workload's part of a run.
type workloadRun struct {
	PlanDigest string   `json:"plan_digest"`
	EndToEnd   *outcome `json:"end_to_end,omitempty"`
	PerLayer   *outcome `json:"per_layer,omitempty"`
}

// runRecord is one invocation; a results file holds a list of them, which
// is what makes a file a set of runs for compare.
type runRecord struct {
	Meta      meta                    `json:"meta"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a bare checkout is not a repository
	}
	return strings.TrimSpace(string(out))
}

func run(o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin := filepath.Join(outDir(root), "heimdalld")
	if os.Getenv(pinEnv) == "" {
		// First image: compile on every CPU, then continue on one.
		if bin, err = buildDaemon(root); err != nil {
			return err
		}
		if err := pinSelf(); err != nil {
			return err
		}
	}
	// One closed-loop client: after pinSelf there is one CPU, and a second
	// client on it would only queue behind the first.
	nproc := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv(pinEnv)); err == nil {
		nproc = v
	}
	rec := runRecord{
		Meta: meta{Time: time.Now().UTC().Format(time.RFC3339), Commit: gitCommit(root), GoVersion: runtime.Version(),
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: o.seed, Seconds: o.seconds, WarmupOps: o.warmup},
		Workloads: make(map[string]*workloadRun),
	}

	var todo []*workload
	if o.workload != "" {
		todo = []*workload{workloadByName(o.workload)}
	} else {
		todo = workloads
	}
	failed := 0
	var last *outcome
	var lastSpecs []metricSpec
	for _, w := range todo {
		r := newRunner(w, o.seed, o.warmup)
		digest, _ := planDigest(w, r.scen, o.seed)
		wr := &workloadRun{PlanDigest: digest}
		rec.Workloads[w.name] = wr
		fmt.Printf("# %s seed %d plan_digest %s\n", w.name, o.seed, digest)
		if err := r.buildOracle(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if o.workload == "" || o.trace == 0 {
			if wr.EndToEnd, err = r.window(root, bin, o.seconds); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			last, lastSpecs = wr.EndToEnd, endToEnd
			failed += report(w, wr.EndToEnd, endToEnd)
		}
		if o.workload == "" || o.trace == 1 {
			if wr.PerLayer, err = r.traced(root, bin, o.seconds); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			last, lastSpecs = wr.PerLayer, perLayer
			failed += report(w, wr.PerLayer, perLayer)
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join(outDir(root), "results.json")
	}
	if err := appendRun(path, rec); err != nil {
		return err
	}
	if o.workload != "" {
		// The driver's contract: the last line of standard output is the
		// run's result object.
		line, err := resultLine(last, lastSpecs)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// report prints every metric as "workload name unit value", lists failed
// checks on standard error, and returns how many failed.
func report(w *workload, out *outcome, specs []metricSpec) int {
	for _, s := range specs {
		fmt.Printf("%s %s %s %s\n", w.name, s.Name, s.Unit, strconv.FormatFloat(out.Metrics[s.Name], 'g', -1, 64))
	}
	fmt.Printf("%s fail_ratio ratio %g (%d of %d)\n", w.name, float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	if out.CountedOpsPerS != 0 {
		fmt.Printf("# %s as measured: %.4g ops/s counted, %.4g ms heimdalld CPU per op, slice drift %.3g, reference %.4g ms quiet over %d round trips\n",
			w.name, out.CountedOpsPerS, out.CPUmsPerOp, out.Drift, out.ReferenceMS, out.ReferenceN)
	}
	for _, f := range out.Fails {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", w.name, f)
	}
	return out.Failed
}

// resultLine renders the result object the driver reads: exactly the
// metrics of the given list, each with its unit.
func resultLine(out *outcome, specs []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Failed == 0, out.Attempted, out.Failed, make(map[string]value)}
	for _, s := range specs {
		v, ok := out.Metrics[s.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = value{v, s.Unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// appendRun adds the run to the results file, creating it if need be.
func appendRun(path string, rec runRecord) error {
	var file resultsFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s is not a results file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, rec)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
