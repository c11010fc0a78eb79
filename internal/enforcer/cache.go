package enforcer

// The content-addressed review cache. The MSP workload is dominated by
// near-duplicate change sets: many technicians replay the same scenario
// template against the same customer network, so the same (production
// snapshot, change set, privilege rules) triple is reviewed over and over.
// Each such review pays a full shadow-snapshot derivation plus policy
// verification even though the verdict is a pure function of its inputs.
//
// The cache keys on content, not identity: production-mutation version ×
// privilege-rules digest × canonical change-set digest (plus the network
// pointer, so one enforcer fronting two networks never cross-serves). Any
// path that mutates production — a committed change set, a rollback, a
// quarantine, recovery, or an out-of-band mutation reported through
// ProductionWritten or InvalidateReviews — bumps the version, which orphans
// every prior key.
//
// A cached hit is observably identical to a fresh review: it appends the
// same audit-trail entry (message and outcome recorded alongside the
// verdict), bumps the same review counters, and returns a decision whose
// JSON serialization is byte-for-byte the fresh result. Only the
// verify-latency histogram is skipped, so that metric keeps measuring real
// verifications.
//
// The invalidation contract: Review takes the production network as a
// parameter and the enforcer's own pipeline (commit, emergency commit,
// rollback, quarantine, Recover) bumps the version on every path that writes
// it. Whoever mutates production any other way — maintenance edits, fault
// injection — must call InvalidateReviews (or ProductionWritten, the same
// call as far as verdicts go: snapshot.go) before the next review, or a
// verdict for a network that no longer exists is replayed.

import (
	"fmt"
	"strconv"
	"sync"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// reviewCacheCap bounds retained verdicts. Entries are small (a Decision
// plus its trail line); the bound exists to stop a scripted load from
// growing the map without limit across privilege-spec variants.
const reviewCacheCap = 256

// reviewCache is a bounded FIFO map of verdicts. FIFO (not LRU) keeps
// eviction O(1) and is near-optimal here: invalidation happens by version
// bump, so surviving entries are all the same age class.
type reviewCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*Decision
	order   []string
}

func newReviewCache(capacity int) *reviewCache {
	return &reviewCache{cap: capacity, entries: make(map[string]*Decision)}
}

func (rc *reviewCache) get(key string) (*Decision, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ent, ok := rc.entries[key]
	return ent, ok
}

func (rc *reviewCache) put(key string, ent *Decision) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, exists := rc.entries[key]; !exists {
		rc.order = append(rc.order, key)
	}
	rc.entries[key] = ent
	for len(rc.entries) > rc.cap && len(rc.order) > 0 {
		oldest := rc.order[0]
		rc.order = rc.order[1:]
		delete(rc.entries, oldest)
	}
}

func (rc *reviewCache) clear() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.entries = make(map[string]*Decision)
	rc.order = nil
}

// InvalidateReviews discards every cached review verdict, the kept review
// shadow and the held production snapshot by bumping the production
// version. Whoever mutates production outside the enforcer's commit
// pipeline (maintenance edits, fault injection) must call it — or
// ProductionWritten, which keeps the snapshot — after the mutation and
// before the next review, commit or ProductionSnapshot. The pipeline itself
// drops only in Recover and in a custom target's rollback.
func (e *Enforcer) InvalidateReviews() {
	e.prodVersion.Add(1)
	e.prodSnap.Store(nil)
	e.kept.Store(nil)
	e.reviews.clear()
}

// ReviewKey returns the content address a review of changes under a spec
// whose rules digest to rulesDigest (privilege.Spec.RulesDigest) would
// occupy right now: production version, privilege-rules digest, canonical
// change-set digest. Two calls return the same key exactly when the
// enforcer would serve them the same verdict, which is what the verdict
// cache keys on. The key changes on every production mutation, so it is
// only meaningful for the duration of one submission.
func (e *Enforcer) ReviewKey(changes []config.Change, rulesDigest string) string {
	return "v" + strconv.FormatUint(e.prodVersion.Load(), 10) + "|" + rulesDigest + "|" + verify.ChangeSetDigest(changes)
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

// ReviewCached is Review plus a hit indicator: true means the verdict was
// served from the cache (the audit trail and review counters are updated
// identically either way).
func (e *Enforcer) ReviewCached(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (*Decision, bool) {
	return e.ReviewKeyed(prod, changes, spec, e.ReviewKey(changes, spec.RulesDigest()))
}

// ReviewKeyed is ReviewCached for a caller that already holds ReviewKey's
// answer for (changes, spec) — an engagement memoizes its rules digest —
// so neither digest is computed twice. A key taken at an
// earlier version is harmless: the verdict is computed on production as it
// is, found only by holders of the same old key, dropped at the next bump.
func (e *Enforcer) ReviewKeyed(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec, key string) (*Decision, bool) {
	return e.review(prod, nil, changes, spec, key, "")
}

// review is ReviewKeyed with the production snapshot a miss derives its
// shadow from already in hand (the commit pipeline's); nil leaves the miss
// to take it from ProductionSnapshot. rule is the commit's ("": strict).
func (e *Enforcer) review(prod *netmodel.Network, prodSnap *dataplane.Snapshot, changes []config.Change, spec *privilege.Spec, key, rule string) (*Decision, bool) {
	// The network pointer joins the cache key so an enforcer reviewing
	// against two different networks (tests do) never serves one's verdict
	// for the other.
	cacheKey := fmt.Sprintf("%p|%s", prod, key)
	if d, hit := e.reviews.get(cacheKey); hit {
		e.replayReview(spec, d)
		e.meter.Counter("heimdall_enforcer_review_cache_hits_total").Inc()
		return d.clone(), true
	}
	d, msg, ok := e.reviewCompute(prod, prodSnap, changes, spec, key, rule)
	d.trailMsg, d.trailOK = msg, ok
	e.replayReview(spec, d)
	e.meter.Counter("heimdall_enforcer_review_cache_misses_total").Inc()
	e.reviews.put(cacheKey, d.clone())
	return d, false
}

// replayReview audits and counts one review answered with d, a decision
// this enforcer computed, under spec's ticket and technician. Both ways a
// verdict reaches a requester end here once — computed for it or replayed
// from the verdict cache — so N answered reviews leave N KindVerify entries.
func (e *Enforcer) replayReview(spec *privilege.Spec, d *Decision) {
	e.trail.Append(spec.Ticket, spec.Technician, audit.KindVerify, d.trailMsg, d.trailOK)
	e.meter.Counter("heimdall_enforcer_reviews_total",
		telemetry.L("accepted", strconv.FormatBool(d.Accepted))).Inc()
}
