package service

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

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
// a review answered from the verdict cache returns a ReviewResult
// deep-equal to the fresh one, every repeat is a hit, and a commit
// invalidates so no stale verdict survives a production change.
func TestServiceReviewCachedOracle(t *testing.T) {
	f := newReviewFixture(t)
	svc := f.svc
	hits := func() float64 { return f.reg.CounterValue("heimdall_service_review_cache_hits_total") }

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
	if h := hits(); h != 0 {
		t.Fatalf("cache hits after first review = %v, want 0", h)
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
	if h := hits(); h != 1 {
		t.Fatalf("cache hits = %v, want 1", h)
	}

	// Hammer the same two sessions concurrently: every result identical,
	// and every review after the first a hit.
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
	before := hits()
	if before != 1+extra {
		t.Fatalf("cache hits = %v, want %d (every repeat a hit)", before, 1+extra)
	}
	if got := f.reg.CounterValue("heimdall_enforcer_review_cache_hits_total"); got != before {
		t.Fatalf("enforcer cache hits = %v, service counted %v", got, before)
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
	if h := hits(); h != before {
		t.Fatalf("post-commit review served from cache: hits went %v -> %v", before, h)
	}
}

// TestDuplicateReviewsAudited: identical reviews submitted together queue
// behind one another and all but the first to run are answered from the
// verdict cache. Each is audited as any answered review is — its own
// KindVerify entry, under its own ticket and technician, with one shared
// message — and counted in heimdall_enforcer_reviews_total. The pool's
// workers are held until all the reviews have queued.
func TestDuplicateReviewsAudited(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("VerifyWorkers=%d", workers), func(t *testing.T) {
			testDuplicateReviewsAudited(t, workers)
		})
	}
}

func testDuplicateReviewsAudited(t *testing.T, workers int) {
	f := newReviewFixtureWorkers(t, workers)
	svc := f.svc
	misses := func() float64 { return f.reg.CounterValue("heimdall_enforcer_review_cache_misses_total") }
	if m := misses(); m != 0 {
		t.Fatalf("fixture verified %v change sets, want 0", m)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		held := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = svc.pool.Do("solo", func() { close(held); <-release })
		}()
		<-held
	}

	const reviews = 8
	results := make(chan ReviewResult, reviews)
	for i := 0; i < reviews; i++ {
		info := f.a
		if i%2 == 1 {
			info = f.b
		}
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
	waitDepth(t, svc.pool, reviews)
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
	if m := misses(); m < 1 || m > float64(workers) {
		t.Fatalf("%v fresh verifications of one change set on %d workers, want 1..%d", m, workers, workers)
	}

	// One entry per answered request, whichever way it was served, each
	// under the requester's own ticket and name and all with one message.
	tn, err := svc.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	verified := map[[2]string]int{}
	details := map[string]bool{}
	for _, e := range tn.System().Enforcer.Trail().Links() {
		if e.Kind == audit.KindVerify {
			verified[[2]string{e.Ticket, e.Technician}]++
			details[e.Detail] = true
			if !e.Allowed {
				t.Fatalf("accepted review audited as refused: %+v", e)
			}
		}
	}
	want := map[[2]string]int{
		{f.a.Ticket, "alice"}: reviews - reviews/2,
		{f.b.Ticket, "bob"}:   reviews / 2,
	}
	if !reflect.DeepEqual(verified, want) || len(details) != 1 {
		t.Fatalf("verify entries per (ticket, technician) = %v with %d distinct messages, want %v with 1", verified, len(details), want)
	}
	counted := f.reg.CounterValue("heimdall_enforcer_reviews_total", telemetry.L("accepted", "true"))
	if counted != reviews {
		t.Fatalf("heimdall_enforcer_reviews_total = %v, want %d", counted, reviews)
	}
}
