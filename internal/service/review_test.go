package service

import (
	"reflect"
	"sync"
	"testing"

	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
)

// reviewFixture stands up one tenant with two sessions that have replayed
// the same issue script — identical pending change sets, so their reviews
// share a content address.
type reviewFixture struct {
	svc   *Service
	reg   *telemetry.Registry
	issue *scenarios.Issue
	a, b  Info
}

func newReviewFixture(t *testing.T) *reviewFixture {
	t.Helper()
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, PlatformSeed: "review-oracle"})
	t.Cleanup(svc.Close)
	if _, err := svc.CreateTenant("solo", "university"); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	var issue *scenarios.Issue
	for i := range tn.ScenarioData().Issues {
		if tn.ScenarioData().Issues[i].Name == "acl" {
			issue = &tn.ScenarioData().Issues[i]
		}
	}
	if issue == nil {
		t.Fatal("university scenario lost its acl issue")
	}
	tk1, err := svc.InjectIssue("solo", "acl", "reporter")
	if err != nil {
		t.Fatal(err)
	}
	// Second ticket for the same already-injected fault: two technicians
	// working the same outage, each on their own twin.
	tk2, err := svc.CreateTicket("solo", ticket.Ticket{
		Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects:  []string{issue.Fault.RootCause},
		CreatedBy: "reporter",
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &reviewFixture{svc: svc, reg: reg, issue: issue}
	if f.a, err = svc.CreateSession("solo", "alice", tk1.ID); err != nil {
		t.Fatal(err)
	}
	if f.b, err = svc.CreateSession("solo", "bob", tk2.ID); err != nil {
		t.Fatal(err)
	}
	for _, info := range []Info{f.a, f.b} {
		for _, cmd := range issue.Script {
			if _, err := svc.Exec("solo", info.Session, info.Token, cmd.Device, cmd.Line); err != nil {
				t.Fatalf("exec %q on %s: %v", cmd.Line, cmd.Device, err)
			}
		}
	}
	return f
}

// TestServiceReviewCachedOracle is the service-level acceptance oracle:
// a review answered from the verdict cache or coalesced onto an in-flight
// verification returns a ReviewResult deep-equal to the fresh one, and a
// commit invalidates so no stale verdict survives a production change.
func TestServiceReviewCachedOracle(t *testing.T) {
	f := newReviewFixture(t)
	svc := f.svc

	fresh, err := svc.Review("solo", f.a.Session, f.a.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Accepted {
		t.Fatalf("scripted fix rejected: %+v", fresh)
	}
	// The reply counts the change set it reviewed: the acl fix is one op.
	if want := len(f.issue.Fault.Fix); fresh.Changes != want {
		t.Fatalf("review reports %d changes, want %d", fresh.Changes, want)
	}
	if hits, coal := svc.ReviewStats(); hits != 0 || coal != 0 {
		t.Fatalf("stats after first review = (%d hits, %d coalesced), want (0, 0)", hits, coal)
	}

	// Bob's identical change set is answered from the verdict cache, and
	// the answer is indistinguishable from Alice's fresh review.
	cached, err := svc.Review("solo", f.b.Session, f.b.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Fatalf("cached review diverges from fresh:\nfresh:  %+v\ncached: %+v", fresh, cached)
	}
	hits, _ := svc.ReviewStats()
	if hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// Hammer the same two sessions concurrently: every result identical,
	// and every review after the first accounted a hit or a coalesce.
	const extra = 8
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		info := f.a
		if i%2 == 1 {
			info = f.b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.Review("solo", info.Session, info.Token)
			if err != nil {
				t.Errorf("concurrent review: %v", err)
				return
			}
			if !reflect.DeepEqual(fresh, res) {
				t.Errorf("concurrent review diverges: %+v", res)
			}
		}()
	}
	wg.Wait()
	hits, coal := svc.ReviewStats()
	if hits+coal != 1+extra {
		t.Fatalf("hits(%d)+coalesced(%d) = %d, want %d (every repeat accounted)",
			hits, coal, hits+coal, 1+extra)
	}
	if got := f.reg.CounterValue("heimdall_service_review_cache_hits_total"); int64(got) != hits {
		t.Fatalf("cache-hit counter = %v, stats say %d", got, hits)
	}
	if got := f.reg.CounterValue("heimdall_service_review_coalesced_total"); int64(got) != coal {
		t.Fatalf("coalesced counter = %v, stats say %d", got, coal)
	}

	// Alice commits: production changed, so Bob's next review must be
	// recomputed against the new production — never served from the cache.
	com, err := svc.Commit("solo", f.a.Session, f.a.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !com.Committed {
		t.Fatalf("commit refused: %+v", com)
	}
	if com.Changes != fresh.Changes {
		t.Fatalf("commit reports %d changes, its review reported %d", com.Changes, fresh.Changes)
	}
	// One inject, two opens, ten reviews and a commit all worked from the
	// one snapshot computed for the injected version.
	if got := f.reg.CounterValue("heimdall_enforcer_prod_snapshot_misses_total"); got != 1 {
		t.Fatalf("production snapshot computed %v times before the commit's successor, want 1", got)
	}
	if _, err := svc.Review("solo", f.b.Session, f.b.Token); err != nil {
		// Bob's twin predates the commit; a conflict error is a legitimate
		// fresh verdict. What must not happen is a stale cached acceptance.
		t.Logf("post-commit review reported: %v", err)
	}
	if h2, c2 := svc.ReviewStats(); h2 != hits || c2 != coal {
		t.Fatalf("post-commit review served from cache: stats went (%d, %d) -> (%d, %d)",
			hits, coal, h2, c2)
	}
}
