package service

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"heimdall/internal/audit"
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

func newReviewFixture(t *testing.T) *reviewFixture { return newReviewFixtureWorkers(t, 0) }

// newReviewFixtureWorkers is newReviewFixture with the verify pool's worker
// count fixed (0 leaves the default).
func newReviewFixtureWorkers(t *testing.T, workers int) *reviewFixture {
	t.Helper()
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, PlatformSeed: "review-oracle", VerifyWorkers: workers})
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

// TestCoalescedReviewAudited: a review that coalesces onto another
// request's verification is audited as any answered review is — its own
// KindVerify entry, under its own ticket and technician, with the leader's
// message and outcome — and counted in heimdall_enforcer_reviews_total. The
// pool's single worker is held while the leader queues and the followers
// join its flight, so all but one of the requests coalesce.
func TestCoalescedReviewAudited(t *testing.T) {
	f := newReviewFixtureWorkers(t, 1)
	svc := f.svc
	release, held := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = svc.pool.Do("solo", func() { close(held); <-release })
	}()
	<-held

	const followers = 7
	results := make(chan ReviewResult, 1+followers)
	review := func(info Info) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.Review("solo", info.Session, info.Token)
			if err != nil {
				t.Errorf("review: %v", err)
			}
			results <- res
		}()
	}
	review(f.a) // the leader: queued behind the held worker, its flight open
	waitDepth(t, svc.pool, 1)
	for i := 0; i < followers; i++ {
		if i%2 == 0 {
			review(f.b)
		} else {
			review(f.a)
		}
	}
	// Followers park on the flight without a queue slot; give them a beat
	// to get there, then let the worker run the leader's review.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	var first *ReviewResult
	for res := range results {
		res := res
		if first == nil {
			first = &res
		} else if !reflect.DeepEqual(*first, res) {
			t.Fatalf("answers differ: %+v vs %+v", *first, res)
		}
	}
	if _, coalesced := svc.ReviewStats(); coalesced == 0 {
		t.Fatal("no review coalesced: the test exercises nothing")
	}

	// One entry per answered request, whichever way it was served, each
	// under the requester's own ticket and name and all with one message.
	tn, err := svc.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	verified := map[[2]string]int{}
	details := map[string]bool{}
	for _, e := range tn.System().Enforcer.Trail().Entries() {
		if e.Kind == audit.KindVerify {
			verified[[2]string{e.Ticket, e.Technician}]++
			details[e.Detail] = true
			if !e.Allowed {
				t.Fatalf("accepted review audited as refused: %+v", e)
			}
		}
	}
	want := map[[2]string]int{
		{f.a.Ticket, "alice"}: 1 + followers/2,
		{f.b.Ticket, "bob"}:   followers - followers/2,
	}
	if !reflect.DeepEqual(verified, want) || len(details) != 1 {
		t.Fatalf("verify entries per (ticket, technician) = %v with %d distinct messages, want %v with 1", verified, len(details), want)
	}
	counted := f.reg.CounterValue("heimdall_enforcer_reviews_total", telemetry.L("accepted", "true"))
	if counted != 1+followers {
		t.Fatalf("heimdall_enforcer_reviews_total = %v, want %d", counted, 1+followers)
	}
}
