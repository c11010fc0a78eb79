package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// The untraced window: what a technician, an MSP operator and a customer
// see of one workload — on a quiet machine.
//
// This box is a shared VM. Its neighbours slow heimdalld's kind of code by
// up to half, in bursts of a second and in spells of minutes, and never
// speed it up; medians and counted rates of the same commit wander by a
// third from one run to the next. Two things take the neighbours out:
//
//   - Every time is the quiet time of a deck position — the quantile
//     quietQ of the samples taken at one slot and deck position, where the
//     same request is played every time round — and a class's time is the
//     mean of its positions' quiet times. Noise only ever adds, so the low
//     end of a position's samples is what the code costs; the mean over
//     positions keeps every command of the class in the number, which a
//     low quantile of the pooled class would not.
//   - Every time is divided by the reference's quiet round trip, taken
//     between the workload's requests (reference.go), and multiplied by
//     its nominal value. Spells that slow everything cancel.
//
// What this cannot see is a cost that falls on fewer than 1 - quietQ of a
// position's requests: more garbage collection, a lock that sometimes
// waits. The counted rate, the daemon's CPU time per op and every class's
// p50, p90 and p99 are in results.json beside the metrics, unscaled, and
// the traced run reports allocations per op.

const (
	setupRounds     = 5  // daemons set up per window
	setupReferences = 40 // reference round trips between two set-ups
	referenceEvery  = 5 * time.Millisecond
)

// classStat is one latency class over the whole window, as measured.
type classStat struct {
	N     int     `json:"n"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
}

// outcome is what one run of one workload reports.
type outcome struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Fails     []string           `json:"fails,omitempty"`

	// The rest is the window as measured, unscaled.
	Classes        map[string]classStat `json:"classes,omitempty"`
	CountedOpsPerS float64              `json:"counted_ops_per_s,omitempty"`
	CPUmsPerOp     float64              `json:"cpu_ms_per_op,omitempty"` // heimdalld utime+stime per unit op
	ClientCPUShare float64              `json:"client_cpu_share,omitempty"`
	Drift          float64              `json:"drift_ratio,omitempty"` // recorder.drift, each half scaled by its own reference
	SetupRuns      []float64            `json:"setup_runs_s,omitempty"`
	ReferenceMS    float64              `json:"reference_quiet_ms,omitempty"`
	ReferenceN     int                  `json:"reference_n,omitempty"`
}

// speedOf is how much slower than nominal the machine ran while the given
// reference round trips were taken.
func speedOf(reference []time.Duration) float64 { return quiet(reference) / referenceNominalMS }

// setUp starts a daemon, onboards tenants, opens sessions and warms up.
func (r *runner) setUp(root, bin string) (*daemon, target, *plan, error) {
	d, err := startDaemon(root, bin)
	if err != nil {
		return nil, nil, nil, err
	}
	tgt := wireTarget(d.base)
	p := r.newPlan()
	if err := r.prepare(tgt, p); err == nil {
		err = r.warm(tgt, p)
	}
	if err != nil {
		d.stop()
		return nil, nil, nil, err
	}
	return d, tgt, p, nil
}

// window measures the workload end to end, tracing off: set-up (several
// times), then one closed-loop client for the given time.
func (r *runner) window(root, bin string, seconds float64) (*outcome, error) {
	ref, err := startReference(root)
	if err != nil {
		return nil, err
	}
	defer ref.srv.stop()
	out := &outcome{Classes: make(map[string]classStat)}

	var (
		d      *daemon
		tgt    target
		p      *plan
		setups []float64
	)
	// Each round is scaled by the reference as it ran just before and just
	// after it.
	before, err := ref.sample(setupReferences)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, tgt, p, err = r.setUp(root, bin); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		after, err := ref.sample(setupReferences)
		if err != nil {
			d.stop()
			return nil, err
		}
		out.SetupRuns = append(out.SetupRuns, took)
		setups = append(setups, took/speedOf(append(before, after...)))
		before = after
	}
	defer d.stop()

	pid := strconv.Itoa(d.pid)
	du0, ds0, err := cpuTimes(pid)
	if err != nil {
		return nil, err
	}
	cu0, cs0, _ := cpuTimes("self") // same format as the daemon's, just checked
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	rec := newRecorder()
	rec.byPos = make(map[deckPos]*posSamples)
	var refRTT []time.Duration
	var refErr error
	var refTime time.Duration
	lastRef := start
	r.play(tgt, p, rec, func(*recorder) bool {
		if now := time.Now(); now.Sub(lastRef) >= referenceEvery {
			var rtt time.Duration
			if rtt, refErr = ref.roundTrip(); refErr != nil {
				return true
			}
			refRTT = append(refRTT, rtt)
			lastRef = time.Now()
			refTime += lastRef.Sub(now)
			rec.prevEnd = lastRef // keeps the reference's round trip out of the next gap
		}
		return !time.Now().Before(deadline)
	})
	if refErr != nil {
		return nil, refErr
	}
	elapsed := time.Since(start)
	du1, ds1, err := cpuTimes(pid)
	if err != nil {
		return nil, fmt.Errorf("heimdalld died during the window: %w", err)
	}
	cu1, cs1, _ := cpuTimes("self")

	out.Attempted, out.Failed, out.Fails = rec.ops, rec.failed, rec.fails
	out.ReferenceMS, out.ReferenceN = quiet(refRTT), len(refRTT)
	for class, l := range rec.lat {
		out.Classes[class] = classStat{N: len(l), P50ms: pct(l, 0.5), P90ms: pct(l, 0.9), P99ms: pct(l, 0.99)}
	}

	if len(rec.byPos) < p.period() {
		return nil, fmt.Errorf("%d of %d deck positions played: window too short for %s", len(rec.byPos), p.period(), r.w.name)
	}
	units := 0
	for _, ps := range rec.byPos {
		if len(ps.gap) == 0 {
			return nil, fmt.Errorf("a deck position was played once: window too short for %s", r.w.name)
		}
		if ps.last {
			units++
		}
	}
	periodMS := rec.quietSum(func(ps *posSamples) []time.Duration { return ps.gap })
	speed := speedOf(refRTT)
	sort.Float64s(setups)
	out.Metrics = map[string]float64{
		"setup_s":            setups[1], // second fastest: quiet, and one lucky round decides nothing
		"quiet_ops_per_s":    1000 * float64(units) / periodMS * speed,
		"light_quiet_ms":     rec.classQuiet(r.w.light) / speed,
		"heavy_quiet_ms":     rec.classQuiet(r.w.heavy) / speed,
		"reply_bytes_per_op": float64(rec.bytes) / float64(len(rec.unitDur)),
	}
	out.Drift = rec.drift() * quiet(refRTT[len(refRTT)/2:]) / quiet(refRTT[:len(refRTT)/2])

	// As measured: the counted rate (net of the time spent on the
	// reference) and CPU time.
	out.CountedOpsPerS = float64(len(rec.unitDur)) / (elapsed - refTime).Seconds()
	daemonCPU := (du1 - du0) + (ds1 - ds0)
	clientCPU := (cu1 - cu0) + (cs1 - cs0)
	out.CPUmsPerOp = 1000 * daemonCPU / float64(len(rec.unitDur))
	if total := daemonCPU + clientCPU; total > 0 {
		out.ClientCPUShare = clientCPU / total
	}
	return out, nil
}
