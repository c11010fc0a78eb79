package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"heimdall/internal/scenarios"
	"heimdall/internal/service"
	"heimdall/internal/telemetry"
)

// runner plays one seeded workload against targets and checks every reply.
type runner struct {
	w      *workload
	scen   *scenarios.Scenario
	seed   int64
	warmup int // requests before anything is measured

	// oracle holds, per deck position, the reply an in-process service gave
	// to the same op; filling is true while it is being built.
	oracle  map[deckPos]string
	filling bool
}

// deckPos names one op of the plan's period: a slot and a position in its
// deck. Whatever is played there is the same request every time round
// (review-fresh's port aside), so its replies and timings are comparable.
type deckPos struct{ slot, pos int }

func newRunner(w *workload, seed int64, warmup int) *runner {
	return &runner{w: w, scen: scenarioFor(w), seed: seed, warmup: warmup, oracle: make(map[deckPos]string)}
}

func (r *runner) newPlan() *plan { return newPlan(r.w, r.scen, r.seed) }

// newService is an in-process heimdalld without the socket: same config
// the daemon builds from its default flags plus -platform-seed bench.
func newService() *service.Service {
	return service.New(service.Config{Meter: telemetry.NewRegistry(), PlatformSeed: "bench"})
}

// span is one timed call into a layer. Spans of the same op at different
// depths share the op number (its position in the plan); the exporter
// links them parent to child.
type span struct {
	op    int
	depth int
	name  string
	start time.Time
	dur   time.Duration
}

// maxSpanOps bounds the exported trace: metrics use every sample, the
// JSONL keeps the first ops of each pass.
const maxSpanOps = 2000

// posSamples is what one deck position measured: the latency of each
// request played there, and the gap from the previous reply to this one
// (the request plus the client's own work between the two).
type posSamples struct {
	class    string
	last     bool
	lat, gap []time.Duration
}

// recorder collects what the client observed.
type recorder struct {
	lat       map[string][]time.Duration
	respBytes map[string]int // size of the class's last reply
	bytes     int            // reply bytes of all ops
	unitDur   []time.Duration
	unitStart time.Time
	inUnit    bool
	ops       int
	failed    int
	fails     []string

	// byPos, when non-nil, keeps samples apart per deck position; prevEnd
	// is when the previous reply arrived.
	byPos   map[deckPos]*posSamples
	prevEnd time.Time

	depth int
	spans []span
	trace bool
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]time.Duration), respBytes: make(map[string]int)}
}

// quietSum adds up, over every deck position, the quiet value of the
// samples pick selects: the time one period of the plan takes at every
// position's quiet pace.
func (rec *recorder) quietSum(pick func(*posSamples) []time.Duration) float64 {
	sum := 0.0
	for _, ps := range rec.byPos {
		sum += quiet(pick(ps))
	}
	return sum
}

// classQuiet is a class's quiet latency in ms: the mean of its positions'
// quiet latencies, so that every command of the class stays in the number.
func (rec *recorder) classQuiet(class string) float64 {
	sum, n := 0.0, 0
	for _, ps := range rec.byPos {
		if ps.class == class {
			sum += quiet(ps.lat)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// drift is the quiet pace of the later half of every position's samples
// over that of the earlier half; below 0.9 means state the daemon
// accumulates is slowing it down.
func (rec *recorder) drift() float64 {
	early := rec.quietSum(func(ps *posSamples) []time.Duration { return ps.lat[:len(ps.lat)/2] })
	late := rec.quietSum(func(ps *posSamples) []time.Duration { return ps.lat[len(ps.lat)/2:] })
	if late == 0 {
		return 1
	}
	return early / late
}

func (rec *recorder) fail(format string, args ...any) {
	rec.failed++
	if len(rec.fails) < 20 {
		rec.fails = append(rec.fails, fmt.Sprintf(format, args...))
	}
}

// step plays the plan's next op and reports whether it completed a unit op.
func (r *runner) step(tgt target, p *plan, rec *recorder) bool {
	o, s, pos := p.next()
	var rep reply
	switch {
	case o.kind == opInject:
		s.ticket, rep = tgt.inject(s.tenant, o.issue)
	case o.kind == opOpen:
		s.sess, rep = tgt.open(s.tenant, p.technician(), s.ticket)
	case s.sess == nil:
		rep = reply{status: -1, err: "no session (open failed)", start: time.Now()}
	case o.kind == opExec:
		rep = tgt.exec(s.sess, o.device, o.line)
	case o.kind == opReview:
		rep = tgt.review(s.sess)
	case o.kind == opCommit:
		rep = tgt.commit(s.sess)
	case o.kind == opClose:
		rep = tgt.close(s.sess)
		s.sess = nil
	}
	end := rep.start.Add(rep.dur)
	if !rec.inUnit {
		rec.inUnit, rec.unitStart = true, rep.start
	}
	rec.lat[o.class] = append(rec.lat[o.class], rep.dur)
	if rep.bytes > 0 {
		rec.respBytes[o.class] = rep.bytes
		rec.bytes += rep.bytes
	}
	if rec.byPos != nil {
		ps := rec.byPos[deckPos{s.id, pos}]
		if ps == nil {
			ps = &posSamples{class: o.class, last: o.last}
			rec.byPos[deckPos{s.id, pos}] = ps
		}
		ps.lat = append(ps.lat, rep.dur)
		if !rec.prevEnd.IsZero() {
			ps.gap = append(ps.gap, end.Sub(rec.prevEnd))
		}
		rec.prevEnd = end
	}
	if rec.trace && p.played < maxSpanOps {
		rec.spans = append(rec.spans, span{op: p.played, depth: rec.depth,
			name: tgt.layer() + "." + kindNames[o.kind], start: rep.start, dur: rep.dur})
	}
	rec.ops++
	p.played++
	if why := r.check(o, deckPos{s.id, pos}, rep); why != "" {
		rec.fail("%s %s %s %q on %s: %s", tgt.layer(), kindNames[o.kind], o.class, o.line, s.tenant, why)
	}
	if o.last {
		rec.unitDur = append(rec.unitDur, end.Sub(rec.unitStart))
		rec.inUnit = false
	}
	return o.last
}

// check returns why the reply is wrong, or "".
func (r *runner) check(o op, key deckPos, rep reply) string {
	if rep.status != o.status {
		return fmt.Sprintf("status %d, want %d (%s)", rep.status, o.status, rep.err)
	}
	switch o.kind {
	case opExec:
		if !o.keyed {
			return ""
		}
		want, seen := r.oracle[key]
		if r.filling && !seen {
			// Reply-size classes are part of the workload's definition.
			if o.class == "small" && len(rep.output) >= 512 {
				return fmt.Sprintf("small read answered %d bytes, want < 512", len(rep.output))
			}
			if o.class == "large" && len(rep.output) < 4096 {
				return fmt.Sprintf("large read answered %d bytes, want >= 4096", len(rep.output))
			}
			r.oracle[key] = rep.output
			return ""
		}
		if !seen {
			return fmt.Sprintf("no oracle reply for deck position %v", key)
		}
		if rep.output != want {
			return fmt.Sprintf("reply differs from the in-process reply (%d bytes, want %d)", len(rep.output), len(want))
		}
	case opReview:
		if o.accept > 0 && !(rep.review.Accepted && rep.review.Checked == r.w.checked) {
			return fmt.Sprintf("accepted=%t checked=%d, want accepted with %d policies checked (%s)",
				rep.review.Accepted, rep.review.Checked, r.w.checked, rep.review.Reason)
		}
		if o.accept < 0 && (rep.review.Accepted || len(rep.review.Violations) == 0) {
			return fmt.Sprintf("accepted=%t with %d violations, want a rejection with at least one",
				rep.review.Accepted, len(rep.review.Violations))
		}
	case opCommit:
		if !rep.review.Accepted || !rep.review.Committed || rep.review.Status != "resolved" {
			return fmt.Sprintf("accepted=%t committed=%t status=%q, want committed and resolved (%s)",
				rep.review.Accepted, rep.review.Committed, rep.review.Status, rep.review.Reason)
		}
	}
	return ""
}

// play runs unit ops until stop says so; it only stops between unit ops,
// so decks are never left half played.
func (r *runner) play(tgt target, p *plan, rec *recorder, stop func(*recorder) bool) {
	for {
		for !r.step(tgt, p, rec) {
		}
		if stop(rec) {
			return
		}
	}
}

func afterOps(n int) func(*recorder) bool {
	return func(rec *recorder) bool { return rec.ops >= n }
}

// prepare onboards the workload's tenants and opens and primes its
// pre-opened sessions.
func (r *runner) prepare(tgt target, p *plan) error {
	for t := 0; t < r.w.tenants; t++ {
		if err := tgt.createTenant(tenantName(t), r.w.scenario); err != nil {
			return err
		}
	}
	for _, s := range p.slots {
		if s.issue == "" {
			continue
		}
		tk, rep := tgt.inject(s.tenant, s.issue)
		if rep.status != 201 {
			return fmt.Errorf("set-up: inject %s on %s: status %d %s", s.issue, s.tenant, rep.status, rep.err)
		}
		if s.sess, rep = tgt.open(s.tenant, p.technician(), tk); rep.status != 201 {
			return fmt.Errorf("set-up: open session for %s on %s: status %d %s", tk, s.tenant, rep.status, rep.err)
		}
		if r.w.prime == nil {
			continue
		}
		for _, cm := range r.w.prime(findIssue(r.scen, s.issue)) {
			if rep := tgt.exec(s.sess, cm.device, cm.line); rep.status != 200 {
				return fmt.Errorf("set-up: %q on %s: status %d %s", cm.line, s.tenant, rep.status, rep.err)
			}
		}
	}
	return nil
}

// warm plays the fixed-count warm-up and fails on any wrong reply: a run
// that cannot warm up cleanly measures nothing.
func (r *runner) warm(tgt target, p *plan) error {
	rec := newRecorder()
	r.play(tgt, p, rec, afterOps(r.warmup))
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d replies wrong, first: %s", rec.failed, rec.ops, rec.fails[0])
	}
	return nil
}

// buildOracle plays two periods of the plan on an in-process service: the
// first records every keyed reply, the second must reproduce them, which
// is what lets a window of any length be checked against one period.
func (r *runner) buildOracle() error {
	svc := newService()
	defer svc.Close()
	p := r.newPlan()
	tgt := serviceTarget{svc}
	if err := r.prepare(tgt, p); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	defer func() { r.filling = false }()
	for pass := 0; pass < 2; pass++ {
		r.filling = pass == 0
		rec := newRecorder()
		r.play(tgt, p, rec, afterOps(p.period()))
		if rec.failed > 0 {
			return fmt.Errorf("oracle pass %d: %d of %d replies wrong, first: %s", pass, rec.failed, rec.ops, rec.fails[0])
		}
	}
	return nil
}

// ---- statistics -----------------------------------------------------------

// quietQ is the quantile that stands for what a call costs on a quiet
// machine: noise on a shared VM only ever adds, see window.go.
const quietQ = 0.05

// quiet is the quantile quietQ of a sample, in ms.
func quiet(d []time.Duration) float64 { return pct(d, quietQ) }

// pct is the nearest-rank percentile of an unsorted sample, in ms.
func pct(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}
