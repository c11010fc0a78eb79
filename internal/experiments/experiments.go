// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the reproduction:
//
//   - Table 1: the evaluation networks' statistics;
//   - Figure 7: the pilot study — time to resolve the three issues under
//     the current (direct access) approach versus Heimdall;
//   - Figures 8 and 9: the feasibility / attack-surface trade-off for the
//     All, Neighbor and Heimdall techniques on both networks.
//
// The cmd/experiments binary prints these; the repository's root
// benchmarks report them as metrics.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"heimdall/internal/attacksurface"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/latency"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

// Table1 regenerates Table 1.
func Table1() []scenarios.Table1Row {
	return []scenarios.Table1Row{
		scenarios.Enterprise().Row(),
		scenarios.University().Row(),
	}
}

// FormatTable1 renders Table 1 next to the published values.
func FormatTable1(rows []scenarios.Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: evaluation networks (generated vs paper)\n")
	fmt.Fprintf(&b, "%-11s %-8s %-6s %-6s %-9s %s\n",
		"Network", "routers", "hosts", "links", "policies", "config lines")
	paper := map[string][5]int{
		"enterprise": {9, 9, 22, 21, 1394},
		"university": {13, 17, 92, 175, 2146},
	}
	for _, r := range rows {
		p := paper[r.Network]
		fmt.Fprintf(&b, "%-11s %-8d %-6d %-6d %-9d %d\n",
			r.Network, r.Routers, r.Hosts, r.Links, r.Policies, r.ConfigLines)
		fmt.Fprintf(&b, "%-11s %-8d %-6d %-6d %-9d %d\n",
			"  (paper)", p[0], p[1], p[2], p[3], p[4])
	}
	return b.String()
}

// Figure7Run is one issue resolved under both approaches, with the modeled
// wall-clock breakdowns and the measured workflow facts behind them.
type Figure7Run struct {
	Issue    string
	Current  *latency.Breakdown
	Heimdall *latency.Breakdown
	// TicketID and Technician identify the Heimdall run's workflow, so the
	// exported spans line up with the audit trail's ticket/technician
	// columns.
	TicketID   string
	Technician string
	// Measured workflow facts feeding the model.
	Commands        int
	SliceDevices    int
	SliceSwitches   int
	PoliciesChecked int
	Changes         int
	// RealCompute is the actual CPU time the Heimdall run took in this
	// reproduction (twin build + mediation + verification), reported to
	// show the modeled costs dominate.
	RealCompute time.Duration
}

// Overhead returns the modeled extra latency Heimdall adds for this issue.
func (r Figure7Run) Overhead() time.Duration {
	return latency.Overhead(r.Current, r.Heimdall)
}

// Figure7 runs the pilot study on the enterprise network: each issue is
// actually resolved twice — once over direct access, once through the full
// Heimdall workflow — and the calibrated latency model converts the
// measured step counts into the wall-clock seconds the paper plots.
func Figure7(model latency.Model) ([]Figure7Run, error) {
	scen := scenarios.Enterprise()
	var out []Figure7Run
	for _, issue := range scen.Issues {
		run, err := runIssue(scen, issue, model)
		if err != nil {
			return nil, fmt.Errorf("experiments: issue %s: %w", issue.Name, err)
		}
		out = append(out, *run)
	}
	return out, nil
}

func runIssue(scen *scenarios.Scenario, issue scenarios.Issue, model latency.Model) (*Figure7Run, error) {
	// ── Current approach: direct access to the faulted production net. ──
	direct := scen.Network.Clone()
	if err := issue.Fault.Inject(direct); err != nil {
		return nil, err
	}
	if err := replayDirect(direct, issue.Script); err != nil {
		return nil, err
	}
	tr, err := dataplane.Compute(direct).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if err != nil || !tr.Delivered() {
		return nil, fmt.Errorf("direct fix failed: %v %v", tr, err)
	}

	// ── Heimdall workflow on a fresh copy. ──────────────────────────────
	start := time.Now()
	prod := scen.Network.Clone()
	if err := issue.Fault.Inject(prod); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.Options{
		Network:      prod,
		Policies:     scen.Policies,
		Sensitive:    scen.Sensitive,
		PlatformSeed: "fig7",
	})
	if err != nil {
		return nil, err
	}
	tk := sys.Tickets.Create(ticket.Ticket{
		Summary: issue.Fault.Description,
		Kind:    issue.Fault.Kind,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects:  []string{issue.Fault.RootCause},
		CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "pilot")
	if err != nil {
		return nil, err
	}
	if _, err := eng.RunScript(issue.Script); err != nil {
		return nil, err
	}
	if ok, err := eng.SymptomResolved(); err != nil || !ok {
		return nil, fmt.Errorf("twin fix failed: ok=%v err=%v", ok, err)
	}
	changes := eng.Twin.Changes()
	decision, err := eng.Commit()
	if err != nil {
		return nil, err
	}
	real := time.Since(start)

	switches := 0
	for _, dev := range eng.Twin.VisibleDevices() {
		if prod.Devices[dev] != nil && prod.Devices[dev].Kind == netmodel.Switch {
			switches++
		}
	}
	run := &Figure7Run{
		Issue:           issue.Name,
		TicketID:        tk.ID,
		Technician:      "pilot",
		Commands:        len(issue.Script),
		SliceDevices:    len(eng.Twin.VisibleDevices()),
		SliceSwitches:   switches,
		PoliciesChecked: decision.Checked,
		Changes:         len(changes),
		RealCompute:     real,
	}
	run.Current = model.Current(issue.Name, run.Commands)
	run.Heimdall = model.Heimdall(issue.Name, run.Commands, run.SliceDevices, run.SliceSwitches, run.PoliciesChecked, run.Changes)
	return run, nil
}

// replayDirect runs the prepared script straight against production
// through unrestricted consoles — the paper's "current approach" baseline.
func replayDirect(n *netmodel.Network, script []ticket.FixCommand) error {
	env := console.NewEnv(n)
	for _, cmd := range script {
		if _, err := console.New(cmd.Device, env).Run(cmd.Line); err != nil {
			return fmt.Errorf("%s on %s: %w", cmd.Line, cmd.Device, err)
		}
	}
	return nil
}

// FormatFigure7 renders the pilot-study rows.
func FormatFigure7(runs []Figure7Run) string {
	var b strings.Builder
	b.WriteString("Figure 7: time to solve three issues on the enterprise network (modeled seconds)\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "  %s\n  %s\n  overhead=%.0fs  (commands=%d slice=%d policies=%d changes=%d, real compute %s)\n",
			r.Current, r.Heimdall, r.Overhead().Seconds(),
			r.Commands, r.SliceDevices, r.PoliciesChecked, r.Changes, r.RealCompute.Round(time.Millisecond))
	}
	var total time.Duration
	for _, r := range runs {
		total += r.Overhead()
	}
	if len(runs) > 0 {
		fmt.Fprintf(&b, "  mean overhead: %.0fs (paper: 28s average, 15s simple .. 42s complex)\n",
			(total / time.Duration(len(runs))).Seconds())
	}
	return b.String()
}

// TraceFigure7 writes the pilot-study latency breakdowns to w as JSONL
// spans (telemetry.Span) on a modeled clock that starts at start and
// advances by exactly each step's modeled duration: per run, one root span
// per approach ("current <issue>" / "heimdall <issue>") carrying ticket and
// technician attributes that match the audit trail, then one child span
// per modeled step (connect, twin-setup, operate, verify, ...). Every root
// span's duration is its Breakdown.Total(), so the export reconciles with
// Figure 7. IDs are sequential and lines come in start order, so the
// output is byte-for-byte reproducible. It returns the number of spans
// written.
func TraceFigure7(w io.Writer, runs []Figure7Run, start time.Time) (int, error) {
	enc := json.NewEncoder(w)
	now, n := start, 0
	// put numbers s and writes it; a root span (no trace ID) opens a trace
	// of its own.
	put := func(s telemetry.Span) (telemetry.Span, error) {
		n++
		s.SpanID = fmt.Sprintf("s%04d", n)
		if s.TraceID == "" {
			s.TraceID = "t" + s.SpanID[1:]
		}
		s.DurMS = float64(s.End.Sub(s.Start)) / float64(time.Millisecond)
		return s, enc.Encode(s)
	}
	for _, run := range runs {
		for _, bd := range []*latency.Breakdown{run.Current, run.Heimdall} {
			if bd == nil {
				continue
			}
			approach := strings.ToLower(bd.Approach)
			root, err := put(telemetry.Span{Name: approach + " " + bd.Issue, Start: now, End: now.Add(bd.Total()),
				Attrs: map[string]string{"approach": approach, "issue": bd.Issue, "ticket": run.TicketID, "technician": run.Technician}})
			if err != nil {
				return n, err
			}
			for _, step := range bd.Steps {
				if _, err := put(telemetry.Span{TraceID: root.TraceID, ParentID: root.SpanID, Name: step.Name, Start: now, End: now.Add(step.Duration)}); err != nil {
					return n, err
				}
				now = now.Add(step.Duration)
			}
		}
	}
	return n, nil
}

// Figure89 runs the feasibility / attack-surface sweep on a scenario
// (Figure 8 = enterprise, Figure 9 = university). workers bounds the
// sweep's parallelism (≤ 1 = serial); results are identical at any
// worker count.
func Figure89(scen *scenarios.Scenario, mutationBudget, workers int) []*attacksurface.Result {
	ev := &attacksurface.Evaluator{
		Base:           scen.Network,
		Policies:       scen.Policies,
		Sensitive:      scen.Sensitive,
		MutationBudget: mutationBudget,
		Workers:        workers,
	}
	// Fault enumeration reuses the evaluator's base snapshot instead of
	// paying a second full compute of the same network.
	cases := attacksurface.InterfaceFaults(scen.Network, ev.BaseSnapshot())
	return []*attacksurface.Result{
		ev.Evaluate(attacksurface.All, cases),
		ev.Evaluate(attacksurface.Neighbor, cases),
		ev.Evaluate(attacksurface.Heimdall, cases),
	}
}

// FormatFigure89 renders the trade-off rows.
func FormatFigure89(name string, results []*attacksurface.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: feasibility and attack surface\n", name)
	for _, r := range results {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	if len(results) == 3 {
		fmt.Fprintf(&b, "  attack-surface reduction vs All: %.1f points (paper: up to 39-40%%)\n",
			results[0].MeanSurface()-results[2].MeanSurface())
	}
	return b.String()
}

// VerifyCost measures real verification time for the university policy set
// (the paper cites ~25 s for 175 constraints on their prototype; ours is a
// simulator, so the interesting number is the per-policy scaling).
type VerifyCostResult struct {
	Policies    int
	Elapsed     time.Duration
	PerPolicy   time.Duration
	ModeledWall time.Duration
}

// MeasureVerifyCost checks the university policy set against its baseline.
func MeasureVerifyCost(model latency.Model) VerifyCostResult {
	scen := scenarios.University()
	snap := scen.Snapshot()
	res := verify.Check(snap, scen.Policies)
	out := VerifyCostResult{
		Policies:    res.Checked,
		Elapsed:     res.Elapsed,
		ModeledWall: time.Duration(res.Checked) * model.VerifyPerPolicy,
	}
	if res.Checked > 0 {
		out.PerPolicy = res.Elapsed / time.Duration(res.Checked)
	}
	return out
}
