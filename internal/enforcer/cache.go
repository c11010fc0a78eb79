package enforcer

// The content-addressed review cache. The MSP workload is dominated by
// near-duplicate change sets: many technicians replay the same scenario
// template against the same customer network, so the same (production
// snapshot, change set, privilege rules) triple is reviewed over and over.
// Each such review pays a full shadow-snapshot derivation plus policy
// verification even though the verdict is a pure function of its inputs.
//
// The cache keys on content, not identity: privilege-rules digest ×
// canonical change-set digest. Production belongs to the enforcer, and
// every path that writes it — a committed change set, a fault injection, a
// rollback, a quarantine, recovery — holds the write lock and empties the
// cache before it lets a review back in.
//
// A cached hit is observably identical to a fresh review: it appends the
// same audit-trail entry (message and outcome recorded alongside the
// verdict), bumps the same review counters, and returns a decision whose
// JSON serialization is byte-for-byte the fresh result. Only the
// verify-latency histogram is skipped, so that metric keeps measuring real
// verifications.

import (
	"sync"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/verify"
)

// reviewCacheCap bounds retained verdicts. Entries are small (a Decision
// plus its trail line); the bound exists to stop a scripted load from
// growing the map without limit across privilege-spec variants.
// compiledCap bounds the compiled Privilegemsp specs kept (compiledFor): one
// per rule set under review.
const reviewCacheCap, compiledCap = 256, 64

// fifo is a bounded FIFO map. FIFO (not LRU) keeps eviction O(1) and is
// near-optimal here: invalidation happens by version bump, so surviving
// entries are all the same age class.
type fifo[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]V
	order   []string
}

func newFIFO[V any](capacity int) *fifo[V] {
	return &fifo[V]{cap: capacity, entries: make(map[string]V)}
}

func (f *fifo[V]) get(key string) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.entries[key]
	return ent, ok
}

func (f *fifo[V]) put(key string, ent V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.entries[key]; !exists {
		f.order = append(f.order, key)
	}
	f.entries[key] = ent
	for len(f.entries) > f.cap && len(f.order) > 0 {
		oldest := f.order[0]
		f.order = f.order[1:]
		delete(f.entries, oldest)
	}
}

func (f *fifo[V]) clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries = make(map[string]V)
	f.order = nil
}

// InvalidateReviews discards every cached review verdict, the kept review
// shadow and the held production snapshot. ROADMAP item 1 moves its one
// outside caller, benchmark/, off it.
func (e *Enforcer) InvalidateReviews() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.invalidate()
}

// invalidate is InvalidateReviews under the write lock: every production
// writer ends in it, or in what keeps the snapshot (a hand-over) right
// after it.
func (e *Enforcer) invalidate() {
	e.prodSnap.Store(nil)
	e.kept.Store(nil)
	e.reviews.clear()
}

// reviewKey is the content address of a review of changes under spec,
// whose rules digest to rulesDigest ("": digest them now): privilege-rules
// digest, canonical change-set digest. Two reviews get the same key
// exactly when the enforcer would serve them the same verdict on one
// production version, which is what the verdict cache keys on. It returns
// the rules digest too, which compiledFor keys on.
func reviewKey(changes []config.Change, spec *privilege.Spec, rulesDigest string) (key, rules string) {
	if rulesDigest == "" {
		rulesDigest = spec.RulesDigest()
	}
	return rulesDigest + "|" + verify.ChangeSetDigest(changes), rulesDigest
}

// compiledFor is spec compiled, memoized under rulesDigest, its rules
// digest, which the verdict cache already trusts to name what a spec
// permits: a caller that hands in a wrong one is served another spec's
// verdicts as well as its tries. The tries read nothing of production, so
// no production write empties the memo.
func (e *Enforcer) compiledFor(spec *privilege.Spec, rulesDigest string) *privilege.CompiledSpec {
	c, ok := e.compiled.get(rulesDigest)
	if !ok {
		c = spec.Compile()
		e.compiled.put(rulesDigest, c)
	}
	return c
}

// clone returns a decision whose slices are independent of the original,
// so a cached verdict can be handed out repeatedly while callers (the
// commit pipeline mutates Accepted/Violations on post-apply failure)
// remain free to modify their copy.
func (d *Decision) clone() *Decision {
	c := *d
	c.Unauthorized = append([]config.Change(nil), d.Unauthorized...)
	c.Violations = append([]verify.Violation(nil), d.Violations...)
	return &c
}

// ReviewCached is Review for benchmark/, which hands production in: it
// refuses any network but the enforcer's own. ROADMAP item 1 deletes it.
func (e *Enforcer) ReviewCached(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (*Decision, bool) {
	if prod != e.prod {
		return &Decision{Violations: []verify.Violation{{Reason: errForeignNetwork.Error()}}}, false
	}
	return e.Review(changes, spec, "")
}

// review is Review under the lock, with the production snapshot a miss
// derives its shadow from already in hand (the commit pipeline's); nil
// leaves the miss to take the held one. rules is spec's rules digest, rule
// the commit's ("": strict).
func (e *Enforcer) review(prodSnap *dataplane.Snapshot, changes []config.Change, spec *privilege.Spec, key, rules, rule string) (*Decision, bool) {
	if d, hit := e.reviews.get(key); hit {
		e.replayReview(spec, d)
		e.cacheHits.Inc()
		return d.clone(), true
	}
	d, msg, ok := e.reviewCompute(prodSnap, changes, spec, key, rules, rule)
	d.trailMsg, d.trailOK = msg, ok
	e.replayReview(spec, d)
	e.cacheMisses.Inc()
	e.reviews.put(key, d.clone())
	return d, false
}

// replayReview audits and counts one review answered with d, a decision
// this enforcer computed, under spec's ticket and technician. Both ways a
// verdict reaches a requester end here once — computed for it or replayed
// from the verdict cache — so N answered reviews leave N KindVerify entries.
func (e *Enforcer) replayReview(spec *privilege.Spec, d *Decision) {
	e.trail.Append(spec.Ticket, spec.Technician, audit.KindVerify, d.trailMsg, d.trailOK)
	e.reviewed[d.Accepted].Inc()
}
