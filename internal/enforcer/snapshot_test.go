package enforcer

import (
	"encoding/json"
	"net/netip"
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

// TestProductionSnapshotFilledOnce: first callers of a version racing for
// the snapshot (verify-pool workers under the production read lock) wait
// for one computation and share its result.
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
			snaps[i] = e.ProductionSnapshot(n)
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
	// Another network is not served this one's snapshot.
	if e.ProductionSnapshot(prod()) == snaps[0] {
		t.Fatal("snapshot of one network served for another")
	}
}

// TestOutOfBandMutationNeedsInvalidate pins the contract every production
// writer outside the commit pipeline leans on: after the mutation and an
// InvalidateReviews, the next snapshot and the next review answer for
// production as it is now — and the verdict cache still tells two networks
// apart at the same version.
func TestOutOfBandMutationNeedsInvalidate(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	benign := []config.Change{benignChange(15, 443)}
	if d, hit := e.ReviewCached(n, benign, spec); hit || !d.Accepted {
		t.Fatalf("first review: hit=%v %+v", hit, d)
	}
	held := e.ProductionSnapshot(n)
	if tr, _ := held.Reach("h1", "h3", netmodel.TCP, 443); tr.Delivered() {
		t.Fatal("sensitive h3 reachable before the mutation")
	}

	// A maintenance edit behind the enforcer's back opens the sensitive
	// subnet; production now violates its isolation policies.
	if err := config.ApplyChanges(n, []config.Change{maliciousPermit()}); err != nil {
		t.Fatal(err)
	}
	e.InvalidateReviews()

	snap := e.ProductionSnapshot(n)
	if snap == held {
		t.Fatal("pre-mutation snapshot served after InvalidateReviews")
	}
	got, _ := snap.Reach("h1", "h3", netmodel.TCP, 443)
	fresh, _ := dataplane.Compute(n).Reach("h1", "h3", netmodel.TCP, 443)
	if !got.Delivered() || got.String() != fresh.String() {
		t.Fatalf("snapshot does not reflect the mutation: held %v, fresh %v", got, fresh)
	}
	if got := snapshotMisses(reg); got != 2 {
		t.Fatalf("misses = %v, want 2 (one per production version looked at)", got)
	}
	d, hit := e.ReviewCached(n, benign, spec)
	if hit || d.Accepted || len(d.Violations) == 0 {
		t.Fatalf("review after the mutation: hit=%v %+v, want a recomputed rejection", hit, d)
	}

	// The same change set, rules and version against another network is
	// another verdict.
	other := prod()
	if d, hit := e.ReviewCached(other, benign, spec); hit || !d.Accepted {
		t.Fatalf("review of an unmutated network: hit=%v %+v", hit, d)
	}
	if d, hit := e.ReviewCached(n, benign, spec); !hit || d.Accepted {
		t.Fatalf("repeat review of the mutated network: hit=%v %+v", hit, d)
	}
	if d, hit := e.ReviewCached(other, benign, spec); !hit || !d.Accepted {
		t.Fatalf("repeat review of the unmutated network: hit=%v %+v", hit, d)
	}
}

// TestProductionWrittenDerives is the other half of the contract: a writer
// that names the device it wrote and hands over its pre-image gets the held
// snapshot derived across the write — a new version, no verdict replayed, no
// computation — and the drop whenever the claim cannot be honoured. The
// three counters an operator reads say which of the two happened.
func TestProductionWrittenDerives(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	benign := []config.Change{benignChange(15, 443)}
	counters := func() [3]float64 {
		return [3]float64{
			reg.CounterValue("heimdall_enforcer_prod_snapshot_hits_total"),
			snapshotMisses(reg),
			reg.CounterValue("heimdall_enforcer_prod_snapshot_derived_total"),
		}
	}
	// write applies changes to production behind the enforcer's back and
	// reports them as a write of the declared devices.
	write := func(declared []string, changes ...config.Change) {
		t.Helper()
		pre := n.CloneCOW(declared...)
		if err := config.ApplyChanges(n, changes); err != nil {
			t.Fatal(err)
		}
		e.ProductionWritten(n, pre, declared)
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
	}

	// Nothing held yet: nothing to derive from, the write is a drop.
	write([]string{"r1"}, benignChange(14, 8080))
	if got := counters(); got != [3]float64{0, 0, 0} {
		t.Fatalf("hits/misses/derived after a write with nothing held = %v", got)
	}
	if d, hit := e.ReviewCached(n, benign, spec); hit || !d.Accepted {
		t.Fatalf("first review: hit=%v %+v", hit, d)
	}
	held := e.ProductionSnapshot(n)

	// The declared write opens the sensitive subnet. The snapshot served
	// next is a hit, is not the old one, sees the mutation, and the cached
	// acceptance is not replayed for the new version.
	write([]string{"r1"}, maliciousPermit())
	derived := e.ProductionSnapshot(n)
	if derived == held {
		t.Fatal("pre-mutation snapshot served after a declared write")
	}
	equalsCompute("declared write", derived)
	if tr, _ := derived.Reach("h1", "h3", netmodel.TCP, 443); !tr.Delivered() {
		t.Fatal("derived snapshot does not see the mutation")
	}
	if d, hit := e.ReviewCached(n, benign, spec); hit || d.Accepted {
		t.Fatalf("review after the declared write: hit=%v %+v, want a recomputed rejection", hit, d)
	}
	if got := counters(); got != [3]float64{3, 1, 1} {
		t.Fatalf("hits/misses/derived after a declared write = %v, want [3 1 1]", got)
	}

	// A declared write that changed nothing keeps the very snapshot.
	write([]string{"r1", "r1"})
	if e.ProductionSnapshot(n) != derived {
		t.Fatal("a write that changed nothing replaced the held snapshot")
	}
	if got := counters(); got != [3]float64{4, 1, 2} {
		t.Fatalf("hits/misses/derived after an empty write = %v, want [4 1 2]", got)
	}

	// A name production does not hold: dropped, computed on demand.
	write([]string{"r1", "r9"}, config.Change{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 5})
	if e.prodSnap.Load() != nil {
		t.Fatal("a declaration naming an unknown device left a snapshot held")
	}
	equalsCompute("unknown device", e.ProductionSnapshot(n))
	if got := counters(); got != [3]float64{4, 2, 2} {
		t.Fatalf("hits/misses/derived after a mis-declared write = %v, want [4 2 2]", got)
	}
}

// TestCommitHandsOverSnapshot: a commit derives the post-apply snapshot
// from the pre-commit one and leaves it as the snapshot of the version it
// created — no computation from review through to the next reader — while
// a rolled-back commit leaves nothing behind.
func TestCommitHandsOverSnapshot(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	if d := e.Review(n, []config.Change{benignChange(15, 443)}, spec); !d.Accepted {
		t.Fatalf("review: %+v", d)
	}
	// The committed entry denies h1 -> h2:8443 ahead of the permit-all, so
	// the handed-over snapshot must answer differently from its parent.
	deny := config.Change{Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 12, Action: netmodel.Deny, Proto: netmodel.TCP,
			Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 8443}}
	before, _ := e.ProductionSnapshot(n).Reach("h1", "h2", netmodel.TCP, 8443)
	if _, err := e.Commit(n, []config.Change{deny}, spec); err != nil {
		t.Fatal(err)
	}
	held := e.ProductionSnapshot(n)
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
	if _, err := e.Commit(n, []config.Change{benignChange(16, 8080)}, spec); err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want a rollback", err)
	}
	if e.prodSnap.Load() != nil {
		t.Fatal("rolled-back commit left a snapshot held")
	}
	if e.ProductionSnapshot(n) == held {
		t.Fatal("snapshot survived a rollback")
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
	_, err := e.Commit(n, []config.Change{benignChange(15, 443)}, aclSpec())
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
	e := newCrashEnforcer(scen)
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
			want[[2]int{g, r}] = decisionJSON(t, &Decision{Accepted: res.OK(), Violations: res.Violations, Checked: res.Checked})
			if !res.OK() {
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
				got, err := json.Marshal(e.Review(n, changeSet(g, r), wide))
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
