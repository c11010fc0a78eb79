package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"heimdall/internal/service"
	"heimdall/internal/telemetry"
)

// The traced run: per-layer numbers, taken from outside. One goroutine
// replays the same seeded ops at four depths — the real daemon, the
// handler, the Service methods, the engagement — each on a fresh,
// identically seeded service, then times the leaf calls (leaves.go). A
// layer's self time is its quiet time minus the next depth's quiet time
// for the same op class (run.go: noise-free costs add up, medians on this
// box do not). Every timed call is a span, written at the end in the
// telemetry.Span JSONL schema of docs/TELEMETRY.md.

// lockstepShare is the part of --seconds the lockstep replay runs for;
// set-up of four services, the allocation passes and the leaves take the
// rest.
const lockstepShare = 0.6

// blockLength is how long depth 0 plays before the other depths catch up.
const blockLength = 100 * time.Millisecond

// us is a class's quiet latency in microseconds.
func (rec *recorder) us(class string) float64 { return 1000 * rec.classQuiet(class) }

// nullRTT is the quiet round trip of GET /healthz on a warm connection.
func nullRTT(base string) (float64, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	var d []time.Duration
	for i := 0; i < 300; i++ {
		start := time.Now()
		res, err := client.Get(base + "/healthz")
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, res.Body) // a short JSON body; the status decides
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/healthz: status %d", res.StatusCode)
		}
		d = append(d, time.Since(start))
	}
	return 1000 * quiet(d), nil
}

// depthRun is one depth of the lockstep replay: a target, its own copy of
// the plan, and what it recorded.
type depthRun struct {
	tgt target
	p   *plan
	rec *recorder
}

// traced produces every per-layer metric for the workload. The four depths
// replay the plan in lockstep, block by block — the same unit ops on the
// daemon, then on the handler, the service, the engagement — so that all
// four see the same machine weather. At depth 0 every other block is
// played with spans off; the ratio of the two quiet paces is the tracing
// overhead.
func (r *runner) traced(root, bin string, seconds float64) (*outcome, error) {
	out := &outcome{Metrics: make(map[string]float64)}
	m := out.Metrics
	var spans []span
	absorb := func(rec *recorder) {
		out.Attempted += rec.ops
		out.Failed += rec.failed
		out.Fails = append(out.Fails, rec.fails...)
		spans = append(spans, rec.spans...)
	}

	d, err := startDaemon(root, bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	svcs := []*service.Service{nil, newService(), newService(), newService()}
	closeServices := func() {
		for i, svc := range svcs {
			if svc != nil {
				svc.Close()
				svcs[i] = nil
			}
		}
	}
	defer closeServices()
	targets := []target{wireTarget(d.base), handlerTarget(svcs[1].Handler()), serviceTarget{svcs[2]}, coreTarget{svcs[3]}}
	runs := make([]*depthRun, len(targets))
	for depth, tgt := range targets {
		dr := &depthRun{tgt: tgt, p: r.newPlan(), rec: newRecorder()}
		dr.rec.depth, dr.rec.trace = depth, true
		dr.rec.byPos = make(map[deckPos]*posSamples)
		err := r.prepare(tgt, dr.p)
		if err == nil {
			err = r.warm(tgt, dr.p)
		}
		if err != nil {
			return nil, fmt.Errorf("depth %d: %w", depth, err)
		}
		dr.p.played = 0 // span numbering starts with the measured ops
		runs[depth] = dr
	}
	wireOn, wireOff := runs[0].rec, newRecorder()
	wireOff.byPos = make(map[deckPos]*posSamples)

	pid := strconv.Itoa(d.pid)
	before, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	du0, ds0, err := cpuTimes(pid)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(lockstepShare * seconds * float64(time.Second)))
	oneUnit := afterOps(0)
	for unit, block := 0, 0; time.Now().Before(deadline); block++ {
		// Depth 0 plays unit ops for blockLength; the other depths then
		// replay exactly those. Blocks keep each depth's caches warm —
		// op-by-op interleaving would have every depth evict the next
		// one's working set — yet short enough to share the weather.
		wire := wireOn
		if block%2 == 1 {
			wire = wireOff
		}
		first, blockEnd := unit, time.Now().Add(blockLength)
		for ; unit == first || time.Now().Before(blockEnd); unit++ {
			r.play(runs[0].tgt, runs[0].p, wire, oneUnit)
		}
		for _, dr := range runs[1:] {
			for u := first; u < unit; u++ {
				r.play(dr.tgt, dr.p, dr.rec, oneUnit)
			}
		}
	}
	du1, ds1, err := cpuTimes(pid)
	if err != nil {
		return nil, fmt.Errorf("heimdalld died during the traced run: %w", err)
	}
	after, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	if m["heimdalld.null_rtt_us"], err = nullRTT(d.base); err != nil {
		return nil, err
	}
	if m["heimdalld.rss_peak_mb"], err = rssPeakMB(d.pid); err != nil {
		return nil, err
	}
	d.stop()
	absorb(wireOff)
	for _, dr := range runs {
		absorb(dr.rec)
	}

	// Allocation passes, depths 1 to 3: one period more, every timed call
	// bracketed by ReadMemStats. Their timings are void and not kept.
	allocsPerOp := make([]float64, len(runs))
	for depth := 1; depth < len(runs); depth++ {
		dr := runs[depth]
		var count uint64
		arec := newRecorder()
		allocs = &count
		r.play(dr.tgt, dr.p, arec, afterOps(dr.p.period()))
		allocs = nil
		allocsPerOp[depth] = float64(count) / float64(len(arec.unitDur))
		absorb(arec)
	}

	// The chains every in-process tenant wrote must still verify.
	for depth := 1; depth < len(runs); depth++ {
		for t := 0; t < r.w.tenants; t++ {
			tn, err := svcs[depth].Tenant(tenantName(t))
			if err != nil {
				return nil, err
			}
			out.Attempted += 2
			if err := tn.System().Enforcer.Trail().Verify(); err != nil {
				out.Failed++
				out.Fails = append(out.Fails, fmt.Sprintf("depth %d %s: audit trail: %v", depth, tn.ID, err))
			}
			if err := tn.System().Enforcer.Journal().Verify(); err != nil {
				out.Failed++
				out.Fails = append(out.Fails, fmt.Sprintf("depth %d %s: journal: %v", depth, tn.ID, err))
			}
		}
	}

	// Depth 4, without the three services: the leaves collect garbage
	// between their samples, and their tenants would be marked each time.
	closeServices()
	targets = nil
	for _, dr := range runs {
		dr.tgt, dr.p = nil, nil
	}
	leaf, err := r.leaves()
	if err != nil {
		return nil, err
	}
	for k, v := range leaf.metrics {
		m[k] = v
	}
	spans = append(spans, leaf.spans...)

	light, heavy := r.w.light, r.w.heavy
	for i, layer := range []string{"heimdalld", "service.http", "service"} {
		m[layer+".light_self_us"] = runs[i].rec.us(light) - runs[i+1].rec.us(light)
		m[layer+".heavy_self_us"] = runs[i].rec.us(heavy) - runs[i+1].rec.us(heavy)
	}
	m["engagement.light_us"] = runs[3].rec.us(light)
	m["engagement.heavy_us"] = runs[3].rec.us(heavy)
	m["service.http.allocs_per_op"] = allocsPerOp[1] - allocsPerOp[2]
	m["service.allocs_per_op"] = allocsPerOp[2] - allocsPerOp[3]
	m["engagement.allocs_per_op"] = allocsPerOp[3]
	m["service.http.heavy_resp_bytes"] = float64(runs[1].rec.respBytes[heavy])
	wireLight := append(append([]time.Duration(nil), wireOn.lat[light]...), wireOff.lat[light]...)
	wireHeavy := append(append([]time.Duration(nil), wireOn.lat[heavy]...), wireOff.lat[heavy]...)
	m["heimdalld.light_p50_ms"] = pct(wireLight, 0.5)
	m["heimdalld.light_p99_ms"] = pct(wireLight, 0.99)
	m["heimdalld.heavy_p50_ms"] = pct(wireHeavy, 0.5)
	m["heimdalld.heavy_p90_ms"] = pct(wireHeavy, 0.9)
	m["heimdalld.heavy_p99_ms"] = pct(wireHeavy, 0.99)
	m["heimdalld.op_p50_ms"] = pct(wireOn.unitDur, 0.5)
	m["heimdalld.cpu_user_s"] = du1 - du0
	m["heimdalld.cpu_sys_s"] = ds1 - ds0
	m["heimdalld.cpu_ms_per_op"] = 1000 * ((du1 - du0) + (ds1 - ds0)) / float64(len(wireOn.unitDur)+len(wireOff.unitDur))

	delta := func(name string) float64 { return after[name] - before[name] }
	if reviews := delta("heimdall_enforcer_reviews_total"); reviews > 0 {
		m["service.review_cache_hit_ratio"] = delta("heimdall_service_review_cache_hits_total") / reviews
	} else {
		m["service.review_cache_hit_ratio"] = 0
	}
	m["service.review_coalesced_total"] = delta("heimdall_service_review_coalesced_total")
	m["service.pool.backpressure_total"] = delta("heimdall_service_backpressure_total")
	if waits := delta("heimdall_service_queue_wait_seconds_count"); waits > 0 {
		m["service.pool.queue_wait_mean_ms"] = 1000 * delta("heimdall_service_queue_wait_seconds_sum") / waits
	} else {
		m["service.pool.queue_wait_mean_ms"] = 0
	}

	m["client.slice_drift_ratio"] = wireOn.drift()
	m["client.budget_closure_ratio"] = (m["heimdalld.heavy_self_us"] + m["service.http.heavy_self_us"] +
		m["service.heavy_self_us"] + leaf.heavyUS) / wireOn.us(heavy)
	lat := func(ps *posSamples) []time.Duration { return ps.lat }
	m["trace.overhead_ratio"] = wireOn.quietSum(lat) / wireOff.quietSum(lat)

	return out, writeSpans(filepath.Join(outDir(root), "trace-"+r.w.name+".jsonl"), r.w.name, spans)
}

// writeSpans exports spans in the telemetry.Span JSONL schema. Spans of
// one op share a trace ID; a span's parent is the same op's span one
// depth out. Leaf spans (depth 4) were not taken inside an op and form
// traces of their own, one per leaf.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := func(depth, op int) string { return fmt.Sprintf("d%d-%05d", depth, op) }
	have := make(map[string]bool, len(spans))
	for _, s := range spans {
		have[id(s.depth, s.op)] = true
	}
	for _, s := range spans {
		ts := telemetry.Span{
			TraceID: fmt.Sprintf("%s-%05d", workload, s.op),
			SpanID:  id(s.depth, s.op),
			Name:    s.name,
			Start:   s.start,
			End:     s.start.Add(s.dur),
			DurMS:   float64(s.dur) / float64(time.Millisecond),
			Attrs:   map[string]string{"workload": workload, "depth": strconv.Itoa(s.depth)},
		}
		switch {
		case s.depth == 4:
			ts.TraceID = workload + "-" + s.name
			ts.SpanID = fmt.Sprintf("%s-%02d", s.name, s.op)
		case s.depth > 0 && have[id(s.depth-1, s.op)]: // depth 0 plays every other block with spans off
			ts.ParentID = id(s.depth-1, s.op)
		}
		if err := enc.Encode(ts); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
