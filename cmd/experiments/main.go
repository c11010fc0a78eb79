// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -table1        # Table 1: evaluation networks
//	experiments -fig7          # Figure 7: pilot study timings
//	experiments -fig8          # Figure 8: enterprise trade-off
//	experiments -fig9          # Figure 9: university trade-off
//	experiments -verifycost    # §4.3 verification-cost anchor
//	experiments -chaos N       # N seeded fault schedules vs the pipeline
//	experiments -replica-chaos # the replication chaos deck
//	experiments -scale-tiers   # generated-topology scale tiers
//	experiments -all           # everything but -scale-tiers
//
// Use -budget to bound the Figure 8/9 mutation search per sample (0 = the
// full search used for the recorded results) and -workers to parallelize
// the sweep (defaults to GOMAXPROCS; results are identical at any worker
// count). With -telemetry, -fig7 also
// exports the pilot-study runs as span JSONL (one span per modeled
// workflow step, on a deterministic virtual clock) to the -spans file.
//
// This command is not a performance report: heimdalld is measured end to
// end by benchmark/ (bash benchmark/run.sh) and its parts by the Go
// benchmarks; -scale-tiers is the one timing kept here, the only one of
// the generated tiers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"heimdall/internal/experiments"
	"heimdall/internal/latency"
	"heimdall/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig7       = flag.Bool("fig7", false, "regenerate Figure 7 (pilot study)")
		fig8       = flag.Bool("fig8", false, "regenerate Figure 8 (enterprise)")
		fig9       = flag.Bool("fig9", false, "regenerate Figure 9 (university)")
		verifyCost = flag.Bool("verifycost", false, "measure the verification-cost anchor")
		chaos      = flag.Int("chaos", 0, "run N seeded fault schedules against the commit pipeline")
		chaosSeed  = flag.Int64("chaos-seed", 1, "first seed of the -chaos sweep")
		repChaos   = flag.Bool("replica-chaos", false, "run the replication chaos deck against the replicated enforcer")
		all        = flag.Bool("all", false, "run every experiment")
		budget     = flag.Int("budget", 0, "mutation budget per sample for fig8/fig9 (0 = full search)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for the fig8/fig9 sweep (1 = serial; results identical)")
		telem      = flag.Bool("telemetry", false, "with -fig7: export pilot-study spans as JSONL")
		spansPath  = flag.String("spans", "fig7_spans.jsonl", "span JSONL output path for -telemetry")
		scaleTiers = flag.Bool("scale-tiers", false, "measure the generated-topology scale tiers")
	)
	flag.Parse()
	if !(*table1 || *fig7 || *fig8 || *fig9 || *verifyCost || *chaos > 0 || *repChaos || *all || *scaleTiers) {
		flag.Usage()
		os.Exit(2)
	}

	model := latency.Default()
	if *all || *table1 {
		timed("table1", func() {
			fmt.Print(experiments.FormatTable1(experiments.Table1()))
		})
	}
	if *all || *fig7 {
		timed("fig7", func() {
			runs, err := experiments.Figure7(model)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(experiments.FormatFigure7(runs))
			if *telem {
				// A fixed epoch keeps the virtual-clock spans byte-for-byte
				// reproducible across runs.
				start := time.Date(2021, time.November, 1, 0, 0, 0, 0, time.UTC)
				tr := experiments.TraceFigure7(runs, start)
				f, err := os.Create(*spansPath)
				if err != nil {
					log.Fatal(err)
				}
				if err := tr.ExportJSONL(f); err != nil {
					f.Close()
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %d spans to %s\n", len(tr.Finished()), *spansPath)
			}
		})
	}
	if *all || *fig8 {
		timed("fig8", func() {
			results := experiments.Figure89(scenarios.Enterprise(), *budget, *workers)
			fmt.Print(experiments.FormatFigure89("Figure 8 (enterprise)", results))
		})
	}
	if *all || *fig9 {
		timed("fig9", func() {
			results := experiments.Figure89(scenarios.University(), *budget, *workers)
			fmt.Print(experiments.FormatFigure89("Figure 9 (university)", results))
		})
	}
	if *all || *chaos > 0 {
		count := *chaos
		if count <= 0 {
			count = 60
		}
		timed("chaos", func() {
			s, err := experiments.Chaos(*chaosSeed, count)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(experiments.FormatChaos(s))
		})
	}
	if *all || *repChaos {
		timed("replica-chaos", func() {
			s, err := experiments.ReplicaChaos()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(experiments.FormatReplicaChaos(s))
		})
	}
	if *scaleTiers {
		timed("scale-tiers", func() {
			fmt.Print(experiments.FormatScaleTiers(experiments.RunScaleTiers()))
		})
	}
	if *all || *verifyCost {
		timed("verifycost", func() {
			res := experiments.MeasureVerifyCost(model)
			fmt.Printf("verification cost: %d policies in %s real compute (%.2f ms/policy)\n",
				res.Policies, res.Elapsed.Round(time.Microsecond),
				float64(res.PerPolicy.Microseconds())/1000)
			fmt.Printf("modeled wall-clock at paper calibration: %.1fs (paper: ~25s for 175 constraints)\n",
				res.ModeledWall.Seconds())
		})
	}
}

func timed(name string, f func()) {
	start := time.Now()
	f()
	fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
}
