package enforcer

import (
	"encoding/json"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// snapshotEnforcer is newEnforcer with a registry to count
// production-snapshot hits and misses.
func snapshotEnforcer(n *netmodel.Network) (*Enforcer, *telemetry.Registry) {
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	return e, reg
}

func snapshotMisses(reg *telemetry.Registry) float64 {
	return reg.CounterValue("heimdall_enforcer_prod_snapshot_misses_total")
}

// TestProductionSnapshotFilledOnce: first readers of a version racing for
// the snapshot (verify-pool workers under the read lock) wait for one
// computation and share its result.
func TestProductionSnapshotFilledOnce(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	const callers = 8
	snaps := make([]*dataplane.Snapshot, callers)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.mu.RLock()
			defer e.mu.RUnlock()
			snaps[i] = e.productionSnapshot()
		}(i)
	}
	wg.Wait()
	for _, s := range snaps {
		if s != snaps[0] {
			t.Fatal("concurrent first callers got different snapshots")
		}
	}
	if got := snapshotMisses(reg); got != 1 {
		t.Fatalf("misses = %v, want 1", got)
	}
	if got := reg.CounterValue("heimdall_enforcer_prod_snapshot_hits_total"); got != callers-1 {
		t.Fatalf("hits = %v, want %d", got, callers-1)
	}
}

// TestOutOfBandMutationNeedsInvalidate pins what InvalidateReviews is for:
// a write to production that bypasses the enforcer's journaled push (the
// benchmark's direct writes through System.Production) leaves the held
// snapshot and the cached verdicts answering for production as it was,
// and InvalidateReviews drops both, so the next snapshot and the next
// review answer for production as it is now.
func TestOutOfBandMutationNeedsInvalidate(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	benign := []config.Change{benignChange(15, 443)}
	if d, hit := e.Review(benign, spec, ""); hit || !d.Accepted {
		t.Fatalf("first review: hit=%v %+v", hit, d)
	}
	held := e.productionSnapshot()
	if tr, _ := held.Reach("h1", "h3", netmodel.TCP, 443); tr.Delivered() {
		t.Fatal("sensitive h3 reachable before the mutation")
	}

	// An out-of-band edit opens the sensitive subnet; production now
	// violates its isolation policies. Nothing tells the enforcer.
	if err := config.ApplyChanges(n, []config.Change{maliciousPermit()}); err != nil {
		t.Fatal(err)
	}
	if e.productionSnapshot() != held {
		t.Fatal("held snapshot moved without a write through the enforcer")
	}
	if d, hit := e.Review(benign, spec, ""); !hit || !d.Accepted {
		t.Fatalf("review before the invalidation: hit=%v %+v, want the cached acceptance", hit, d)
	}

	e.InvalidateReviews()
	snap := e.productionSnapshot()
	if snap == held {
		t.Fatal("pre-mutation snapshot served after InvalidateReviews")
	}
	got, _ := snap.Reach("h1", "h3", netmodel.TCP, 443)
	fresh, _ := dataplane.Compute(n).Reach("h1", "h3", netmodel.TCP, 443)
	if !got.Delivered() || got.String() != fresh.String() {
		t.Fatalf("snapshot does not reflect the mutation: held %v, fresh %v", got, fresh)
	}
	if got := snapshotMisses(reg); got != 2 {
		t.Fatalf("misses = %v, want 2 (one per computation)", got)
	}
	d, hit := e.Review(benign, spec, "")
	if hit || d.Accepted || len(d.Violations) == 0 {
		t.Fatalf("review after the invalidation: hit=%v %+v, want a recomputed rejection", hit, d)
	}
}

// TestProductionWrittenDerives: an injection hands the held snapshot over
// across its changes as a commit does, computing the ancestor first when nothing
// is held: a new version with every verdict decided, none replayed from
// the cache. One naming a device production does not hold lands nothing,
// one that does not apply is rolled back, and neither moves what is held.
// The counters an operator reads say which happened.
func TestProductionWrittenDerives(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	benign := []config.Change{benignChange(15, 443)}
	counters := func() [3]float64 {
		return [3]float64{
			reg.CounterValue("heimdall_enforcer_prod_snapshot_hits_total"),
			snapshotMisses(reg),
			reg.CounterValue("heimdall_enforcer_commit_handover_total", telemetry.L("from", "production")),
		}
	}
	inject := func(changes ...config.Change) error {
		return e.Inject("F", func(*netmodel.Network) ([]config.Change, error) { return changes, nil })
	}
	equalsCompute := func(step string, snap *dataplane.Snapshot) {
		t.Helper()
		fresh := dataplane.Compute(n)
		for _, dst := range []string{"h2", "h3"} {
			got, _ := snap.Reach("h1", dst, netmodel.TCP, 443)
			want, _ := fresh.Reach("h1", dst, netmodel.TCP, 443)
			if got.String() != want.String() {
				t.Fatalf("%s: h1 -> %s: held %v, fresh %v", step, dst, got, want)
			}
		}
		verdictsMatchCompute(t, step, e.policies, e.HeldVerdicts(), n)
	}

	// Nothing held yet: the ancestor is computed, and the version after the
	// injection is held with its vector complete.
	if err := inject(benignChange(14, 8080)); err != nil {
		t.Fatal(err)
	}
	if got := counters(); got != [3]float64{0, 1, 1} {
		t.Fatalf("hits/misses/hand-overs after an injection with nothing held = %v, want [0 1 1]", got)
	}
	if vec := e.HeldVerdicts(); len(vec) != len(e.policies) || slices.Contains(vec, nil) {
		t.Fatal("the injection held an incomplete vector")
	}
	if d, hit := e.Review(benign, spec, ""); hit || !d.Accepted {
		t.Fatalf("first review: hit=%v %+v", hit, d)
	}
	held := e.productionSnapshot()

	// The injection opens the sensitive subnet. The snapshot served next is
	// not the old one, sees the change, and the cached acceptance is not
	// replayed for the new version.
	if err := inject(maliciousPermit()); err != nil {
		t.Fatal(err)
	}
	derived := e.productionSnapshot()
	if derived == held {
		t.Fatal("pre-injection snapshot served after an injection")
	}
	equalsCompute("injection", derived)
	if tr, _ := derived.Reach("h1", "h3", netmodel.TCP, 443); !tr.Delivered() {
		t.Fatal("derived snapshot does not see the injection")
	}
	if d, hit := e.Review(benign, spec, ""); hit || d.Accepted {
		t.Fatalf("review after the injection: hit=%v %+v, want a recomputed rejection", hit, d)
	}
	if got := counters(); got != [3]float64{5, 1, 2} {
		t.Fatalf("hits/misses/hand-overs after an injection = %v, want [5 1 2]", got)
	}

	// A change for a device production does not hold is refused before
	// the intent; one that removes an entry no ACL has is rolled back.
	records := len(e.Journal().Records())
	if err := inject(config.Change{Device: "r9", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 5}); err == nil {
		t.Fatal("a change for an unknown device injected")
	}
	if len(e.Journal().Records()) != records {
		t.Fatal("a change for an unknown device was journaled")
	}
	if err := inject(config.Change{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 99}); err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("a change that does not apply: %v, want a rollback", err)
	}
	if e.productionSnapshot() != derived {
		t.Fatal("a fault that landed nothing moved the held snapshot")
	}
}

// TestCommitHandsOverSnapshot: a commit derives the post-apply snapshot
// from the pre-commit one and leaves it as the snapshot of the version it
// created — no computation from review through to the next reader — and a
// rolled-back commit leaves the pre-commit snapshot held.
func TestCommitHandsOverSnapshot(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	if d := e.check([]config.Change{benignChange(15, 443)}, spec); !d.Accepted {
		t.Fatalf("review: %+v", d)
	}
	// The committed entry denies h1 -> h2:8443 ahead of the permit-all, so
	// the handed-over snapshot must answer differently from its parent.
	deny := config.Change{Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 12, Action: netmodel.Deny, Proto: netmodel.TCP,
			Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 8443}}
	before, _ := e.productionSnapshot().Reach("h1", "h2", netmodel.TCP, 8443)
	if _, err := e.submit([]config.Change{deny}, spec); err != nil {
		t.Fatal(err)
	}
	held, verdicts := e.productionSnapshot(), e.HeldVerdicts()
	if got := snapshotMisses(reg); got != 1 {
		t.Fatalf("misses after review+commit+read = %v, want 1 (the first review's)", got)
	}
	after, _ := held.Reach("h1", "h2", netmodel.TCP, 8443)
	fresh, _ := dataplane.Compute(n).Reach("h1", "h2", netmodel.TCP, 8443)
	if !before.Delivered() || after.Delivered() || after.String() != fresh.String() {
		t.Fatalf("handed-over snapshot is stale: before %v, held %v, fresh %v", before, after, fresh)
	}

	e.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 1, Class: faultinject.Permanent},
	}}))
	if _, err := e.submit([]config.Change{benignChange(16, 8080)}, spec); err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want a rollback", err)
	}
	// The rollback declared the devices it restored: production is what it
	// was, so the pre-commit snapshot is held at the new version, computed
	// nowhere and equal to a from-scratch Compute.
	if e.productionSnapshot() != held || &e.HeldVerdicts()[0] != &verdicts[0] {
		t.Fatal("a clean rollback replaced the held snapshot or its verdicts")
	}
	if got := snapshotMisses(reg); got != 1 {
		t.Fatalf("misses after the rollback = %v, want 1", got)
	}
	for _, dst := range []string{"h2", "h3"} {
		got, _ := held.Reach("h1", dst, netmodel.TCP, 8443)
		want, _ := dataplane.Compute(n).Reach("h1", dst, netmodel.TCP, 8443)
		if got.String() != want.String() {
			t.Fatalf("h1 -> %s after the rollback: held %v, fresh %v", dst, got, want)
		}
	}
}

// TestCustomTargetPostVerifyComputes: what a custom target did to
// production is not the enforcer's to assume, so the post-apply check
// still computes from the network itself and catches a
// change the scheduled set never named.
func TestCustomTargetPostVerifyComputes(t *testing.T) {
	n := prod()
	e, _ := snapshotEnforcer(n)
	e.SetTarget(&misapplyTarget{net: n, extra: maliciousPermit()})
	_, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec())
	if err == nil || !strings.Contains(err.Error(), "post-apply verification failed") {
		t.Fatalf("err = %v, want post-apply failure", err)
	}
}

// TestReviewsShareParentMemo: concurrent reviews are children of one held
// production snapshot, each carrying from its flow cache and its verdict
// vector and writing clean traces and verdicts back into them while the
// others read. Run under -race. Every verdict
// — counterexample traces included — must equal the one a from-scratch
// Compute of the same shadow network gives, whatever the interleaving left
// in the shared cache.
func TestReviewsShareParentMemo(t *testing.T) {
	scen := scenarios.University()
	n := scen.Network
	e := newCrashEnforcer(scen, n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	wide := &privilege.Spec{Ticket: "T-MEMO", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:*"},
	}}
	// One never-repeating change set per (reviewer, round): a permit near
	// the head of an ACL guarding a sensitive host, which breaks isolation.
	type boundACL struct{ dev, acl string }
	var bound []boundACL
	for _, dev := range n.RoutersAndSwitches() {
		d := n.Devices[dev]
		for _, ifName := range d.InterfaceNames() {
			if itf := d.Interfaces[ifName]; itf.ACLOut != "" {
				bound = append(bound, boundACL{dev, itf.ACLOut})
			} else if itf.ACLIn != "" {
				bound = append(bound, boundACL{dev, itf.ACLIn})
			}
		}
	}
	const reviewers, rounds = 8, 4
	changeSet := func(g, r int) []config.Change {
		at := bound[(g*rounds+r)%len(bound)]
		add := func(e netmodel.ACLEntry) config.Change {
			return config.Change{Device: at.dev, Op: config.OpAddACLEntry, ACLName: at.acl, Entry: &e}
		}
		return []config.Change{
			add(netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: netmodel.TCP, DstPort: uint16(1000 + g*rounds + r)}),
			add(netmodel.ACLEntry{Seq: 2, Action: netmodel.Permit, Proto: netmodel.AnyProto}),
		}
	}
	want := make(map[[2]int]string)
	rejected := 0
	for g := 0; g < reviewers; g++ {
		for r := 0; r < rounds; r++ {
			shadow := n.Clone()
			if err := config.ApplyChanges(shadow, changeSet(g, r)); err != nil {
				t.Fatal(err)
			}
			res := verify.Check(dataplane.Compute(shadow), scen.Policies)
			want[[2]int{g, r}] = decisionJSON(t, &Decision{Accepted: len(res.Violations) == 0, Violations: res.Violations, Checked: res.Checked})
			if len(res.Violations) > 0 {
				rejected++
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < reviewers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := json.Marshal(e.check(changeSet(g, r), wide))
				if err != nil || string(got) != want[[2]int{g, r}] {
					t.Errorf("reviewer %d round %d diverged from the serial from-scratch verdict (%v):\ngot  %s\nwant %s", g, r, err, got, want[[2]int{g, r}])
				}
			}
		}(g)
	}
	wg.Wait()
	if got := snapshotMisses(reg); got != 1 {
		t.Fatalf("reviews computed %v production snapshots, want 1", got)
	}
	carried := reg.CounterValue("heimdall_verify_policies_carried_total")
	if carried == 0 || rejected == 0 {
		t.Fatalf("%v verdicts carried, %d reviews rejected: the test exercises nothing", carried, rejected)
	}
	t.Logf("%d of %d reviews rejected, %v verdicts carried", rejected, reviewers*rounds, carried)
}

// TestComputedVectorCompletedOnce: a version productionSnapshot computed
// from scratch starts with an empty vector, and its first review completes
// it on production, so every slot is then the from-scratch verdict and a
// second review resumes each retrace from production's trace without
// tracing anything on production. An injection's vector is checked across
// the write: complete, and no review writes it.
func TestComputedVectorCompletedOnce(t *testing.T) {
	scen := scenarios.Enterprise()
	n := scen.Network
	e := newCrashEnforcer(scen, n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	// The deny entries drop the flow of a delivered policy at an ACL it
	// passes (the edge router's ingress ACL: no flow passes the university's
	// guards), so a review's ACL replay gives that flow another verdict and
	// resumes its trace. Each entry has its own sequence number: no two
	// change sets repeat.
	var at struct {
		dev, acl string
		f        dataplane.Flow
	}
	full := dataplane.Compute(n)
	for _, p := range scen.Policies {
		tr, err := full.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		for i := 0; err == nil && tr.Delivered() && at.dev == "" && i < len(tr.Hops); i++ {
			h := tr.Hops[i]
			if itf := n.Devices[h.Device].Interface(h.InIf); itf != nil && itf.ACLIn != "" {
				at.dev, at.acl, at.f = h.Device, itf.ACLIn, tr.Flow
			}
		}
	}
	if at.dev == "" {
		t.Fatal("no delivered policy flow passes an ingress ACL")
	}
	spec := allowSpec(privilege.Rule{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:*"})
	deny := func(seq int) config.Change {
		return config.Change{Device: at.dev, Op: config.OpAddACLEntry, ACLName: at.acl,
			Entry: &netmodel.ACLEntry{Seq: seq, Action: netmodel.Deny, Proto: at.f.Proto, DstPort: at.f.DstPort,
				Src: netip.PrefixFrom(at.f.Src, 32), Dst: netip.PrefixFrom(at.f.Dst, 32)}}
	}
	// Every flow traced anywhere is a miss; one a review resumes is traced
	// on its shadow. With every slot filled, a second review traces nothing
	// else: a miss beyond its resumed retraces was traced on production.
	misses := func() float64 { return reg.CounterValue("heimdall_dataplane_flowcache_misses_total") }
	resumed := func() float64 { return reg.CounterValue("heimdall_verify_policies_resumed_total") }

	e.check([]config.Change{deny(1)}, spec)
	held := e.HeldVerdicts()
	for i := range held {
		if held[i] == nil {
			t.Fatalf("slot %d (%s) still empty after the first review", i, e.policies[i])
		}
	}
	verdictsMatchCompute(t, "first review", e.policies, held, n)

	before, resumed0 := misses(), resumed()
	e.check([]config.Change{deny(2)}, spec)
	if resumed() == resumed0 {
		t.Fatal("the second review resumed no trace: the test exercises nothing")
	}
	if got := misses() - before - (resumed() - resumed0); got != 0 {
		t.Fatalf("the second review traced %v flows on production, want 0", got)
	}

	// An injection on the guarded device: the derived version holds a
	// complete vector, checked across the write as a commit's is — every
	// verdict its derivation carries kept by identity, the others decided on
	// it — and a review reads it as it is.
	old := slices.Clone(held)
	if err := e.Inject("F", func(*netmodel.Network) ([]config.Change, error) {
		return []config.Change{deny(3)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	derived, vec, decided := e.productionSnapshot(), e.HeldVerdicts(), 0
	if len(vec) != len(old) {
		t.Fatalf("%d slots held after the injection, want %d", len(vec), len(old))
	}
	for i := range vec {
		if carried := derived.Carries(old[i].Trace); vec[i] == nil || carried != (vec[i] == old[i]) {
			t.Fatalf("%s: held after the injection %p (was %p), carried = %v", e.policies[i], vec[i], old[i], carried)
		} else if !carried {
			decided++
		}
	}
	if decided == 0 {
		t.Fatal("the injection carried every verdict: the test exercises nothing")
	}
	verdictsMatchCompute(t, "injection", e.policies, vec, n)
	e.check([]config.Change{deny(4)}, spec)
	if e.productionSnapshot() != derived || &e.HeldVerdicts()[0] != &vec[0] {
		t.Fatal("the review replaced the held snapshot or its vector")
	}
}

// TestDeclaredWriteKeepsVectorToComplete: a vector productionSnapshot started empty
// that an injection moves on before any review completed it is complete
// from the injection on. Left empty, every later review would evaluate
// every policy its derivation could carry.
func TestDeclaredWriteKeepsVectorToComplete(t *testing.T) {
	n := prod()
	e, _ := snapshotEnforcer(n)
	e.View(true) // computes the snapshot: an empty vector, to be completed
	if err := e.Inject("F", func(*netmodel.Network) ([]config.Change, error) {
		return []config.Change{benignChange(14, 8080)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	held := e.HeldVerdicts()
	for i := range e.policies {
		if i >= len(held) || held[i] == nil {
			t.Fatalf("slot %d (%s) empty after the injection", i, e.policies[i])
		}
	}
	verdictsMatchCompute(t, "injection", e.policies, held, n)
}

// TestFirstReviewReadsCompleteVector: whatever made the held version — a
// computation from scratch, an injection, a commit's hand-over or an
// emergency commit — every slot of the vector a review reads beside it is
// filled before the review reads it. A computed version is held without a
// vector, which the review's read (verdictsOf) completes first; every other
// version is held with a complete one from the write on.
func TestFirstReviewReadsCompleteVector(t *testing.T) {
	n := prod()
	e, _ := snapshotEnforcer(n)
	spec := aclSpec()
	complete := func(step string, vec verify.Verdicts) {
		t.Helper()
		if len(vec) != len(e.policies) || slices.Contains(vec, nil) {
			t.Fatalf("%s: %d slots for %d policies (an empty one among them: %v)", step, len(vec), len(e.policies), slices.Contains(vec, nil))
		}
		verdictsMatchCompute(t, step, e.policies, vec, n)
	}
	// reads is what a review reads: the held vector, under the read lock.
	reads := func(step string) {
		t.Helper()
		e.mu.RLock()
		vec := e.verdictsOf(e.productionSnapshot(), true)
		e.mu.RUnlock()
		complete(step+", read by a review", vec)
	}

	e.View(true)
	if e.HeldVerdicts() != nil {
		t.Fatal("a version computed from scratch holds a vector before any review")
	}
	reads("computed")
	complete("computed, after its first read", e.HeldVerdicts())

	if err := e.Inject("F", func(*netmodel.Network) ([]config.Change, error) {
		return []config.Change{benignChange(14, 8080)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	complete("injection", e.HeldVerdicts())
	reads("injection")

	if _, err := e.submit([]config.Change{benignChange(15, 443)}, spec); err != nil {
		t.Fatal(err)
	}
	complete("hand-over", e.HeldVerdicts())
	reads("hand-over")

	if _, err := e.Submit(CommitRequest{Spec: spec, Emergency: func(*netmodel.Network) ([]config.Change, error) {
		return []config.Change{benignChange(16, 80)}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	complete("emergency commit", e.HeldVerdicts())
	reads("emergency commit")
}
