package enforcer

import (
	"encoding/json"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
)

// decisionJSON serializes a decision the way the service layer's HTTP
// responses do, so "byte-identical" below means what a client observes.
func decisionJSON(t *testing.T, d *Decision) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// maliciousPermit opens the sensitive subnet (h3) behind the GUARD ACL —
// the review is rejected with violations and counterexample traces.
func maliciousPermit() config.Change {
	return config.Change{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit, Proto: netmodel.AnyProto,
			Dst: netip.MustParsePrefix("10.3.0.0/24")},
	}
}

// verifyDetails extracts the audit trail's verification entries.
func verifyDetails(trail *audit.Trail) []string {
	var out []string
	for _, e := range trail.Entries() {
		if e.Kind == audit.KindVerify {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestReviewCacheOracle is the acceptance oracle: a cached verdict must be
// observably identical to a fresh review — same JSON serialization
// (including violation traces), same audit-trail entry — for both an accepting and a rejecting review.
func TestReviewCacheOracle(t *testing.T) {
	for name, change := range map[string]config.Change{
		"accepted": benignChange(15, 443),
		"rejected": maliciousPermit(),
	} {
		change := change
		t.Run(name, func(t *testing.T) {
			n := prod()
			e := newEnforcer(n)
			spec := aclSpec()
			changes := []config.Change{change}

			// The reference output: the uncached review on a from-scratch
			// snapshot of production.
			dFresh, refMsg, _ := e.reviewCompute(n, dataplane.Compute(n), changes, spec)
			ref := decisionJSON(t, dFresh)

			d1, hit1 := e.ReviewCached(n, changes, spec)
			d2, hit2 := e.ReviewCached(n, changes, spec)
			if hit1 {
				t.Fatal("first review hit a cold cache")
			}
			if !hit2 {
				t.Fatal("second identical review missed the cache")
			}
			if got := decisionJSON(t, d1); got != ref {
				t.Fatalf("cache-miss decision diverges from the from-scratch review:\nwant %s\ngot  %s", ref, got)
			}
			if got := decisionJSON(t, d2); got != ref {
				t.Fatalf("cached decision diverges from fresh review:\nwant %s\ngot  %s", ref, got)
			}

			// Both reviews logged the reference's exact trail entry.
			details := verifyDetails(e.Trail())
			if len(details) != 2 {
				t.Fatalf("verify trail entries = %d, want 2", len(details))
			}
			if details[0] != refMsg || details[1] != refMsg {
				t.Fatalf("trail entries not replayed identically: %q, want %q", details, refMsg)
			}
		})
	}
}

// TestReviewCacheInvalidatedByCommit pins the staleness contract: after a
// commit mutates production, the same change set must be recomputed, not
// served from the cache.
func TestReviewCacheInvalidatedByCommit(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	spec := aclSpec()

	ch := []config.Change{benignChange(15, 443)}
	if _, hit := e.ReviewCached(n, ch, spec); hit {
		t.Fatal("cold cache hit")
	}
	if _, hit := e.ReviewCached(n, ch, spec); !hit {
		t.Fatal("warm cache missed")
	}
	if _, err := e.Commit(n, []config.Change{benignChange(16, 8443)}, spec); err != nil {
		t.Fatal(err)
	}
	d, hit := e.ReviewCached(n, ch, spec)
	if hit {
		t.Fatal("stale verdict served after commit mutated production")
	}
	if !d.Accepted {
		t.Fatalf("recomputed review rejected: %+v", d)
	}
}

// TestReviewCacheInvalidatedByRecover drives the quarantine -> Recover
// path and checks both transitions invalidate: the failed push left
// production half-applied, and recovery rewrote it again.
func TestReviewCacheInvalidatedByRecover(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	e.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond,
		Sleep: func(time.Duration) {}}
	spec := aclSpec()

	ch := []config.Change{benignChange(15, 443)}
	e.ReviewCached(n, ch, spec)
	if _, hit := e.ReviewCached(n, ch, spec); !hit {
		t.Fatal("warm cache missed before quarantine")
	}

	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
		{Scope: "r1", Op: "restore", Outage: true},
	}})
	e.SetInjector(inj)
	changes := []config.Change{benignChange(16, 8443), benignChange(17, 80)}
	if _, err := e.Commit(n, changes, spec); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want quarantine", err)
	}
	if _, hit := e.ReviewCached(n, ch, spec); hit {
		t.Fatal("stale verdict served after quarantine left production half-applied")
	}
	e.SetInjector(nil)
	if _, err := e.Recover(n); err != nil {
		t.Fatal(err)
	}
	if _, hit := e.ReviewCached(n, ch, spec); hit {
		t.Fatal("stale verdict served after recovery mutated production")
	}
	// And the recomputed verdict re-warms the cache.
	if _, hit := e.ReviewCached(n, ch, spec); !hit {
		t.Fatal("cache not re-warmed after recovery")
	}
}

// TestReviewCacheConcurrent hammers one enforcer with interleaved
// identical and distinct reviews under -race: verdicts must stay correct
// and handed-out clones independent of the cached copy.
func TestReviewCacheConcurrent(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	spec := aclSpec()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := []config.Change{benignChange(15+(i%2), 443)}
			for j := 0; j < 50; j++ {
				d, _ := e.ReviewCached(n, ch, spec)
				if !d.Accepted {
					t.Errorf("benign change rejected: %+v", d)
					return
				}
				// Mutate the returned copy the way the commit pipeline
				// does; the cached entry must be unaffected.
				d.Accepted = false
				d.Violations = append(d.Violations, d.Violations...)
			}
		}()
	}
	wg.Wait()
	d, _ := e.ReviewCached(n, []config.Change{benignChange(15, 443)}, spec)
	if !d.Accepted {
		t.Fatal("cache poisoned by caller mutation")
	}
}

// TestReviewCacheEviction bounds retention: with capacity 2, three
// distinct keys evict the oldest (FIFO), which then recomputes.
func TestReviewCacheEviction(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	e.reviews = newReviewCache(2)
	spec := aclSpec()

	a := []config.Change{benignChange(15, 443)}
	b := []config.Change{benignChange(16, 8443)}
	c := []config.Change{benignChange(17, 80)}
	e.ReviewCached(n, a, spec)
	e.ReviewCached(n, b, spec)
	e.ReviewCached(n, c, spec) // evicts a
	if _, hit := e.ReviewCached(n, c, spec); !hit {
		t.Fatal("newest entry evicted")
	}
	if _, hit := e.ReviewCached(n, a, spec); hit {
		t.Fatal("oldest entry not evicted at capacity")
	}
}
