package enforcer

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// verdictsMatchCompute fails unless every filled slot of verdicts is the
// verdict a from-scratch check of n gives: the same trace, the same
// violation rendered, or none.
func verdictsMatchCompute(t *testing.T, step string, policies []verify.Policy, verdicts verify.Verdicts, n *netmodel.Network) {
	t.Helper()
	if len(verdicts) != len(policies) {
		t.Fatalf("%s: %d verdict slots for %d policies", step, len(verdicts), len(policies))
	}
	fresh := dataplane.Compute(n)
	for i, p := range policies {
		v := verdicts[i]
		if v == nil {
			continue
		}
		tr, _ := fresh.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		got, want := "holds", "holds"
		if v.Violation != nil {
			got = v.Violation.String()
		}
		if w := verify.CheckPolicy(fresh, p); w != nil {
			want = w.String()
		}
		if got != want || !reflect.DeepEqual(v.Trace, tr) {
			t.Fatalf("%s: verdict of %s diverged from a fresh check:\ngot  %s on %v\nfresh %s on %v", step, p, got, v.Trace, want, tr)
		}
	}
}

// heldMatchesCompute asserts that what the enforcer holds of n — the
// snapshot and every verdict beside it — is what a from-scratch Compute of
// n gives.
func heldMatchesCompute(t *testing.T, step string, e *Enforcer, n *netmodel.Network) {
	t.Helper()
	held, fresh := e.productionSnapshot(), dataplane.Compute(n)
	for _, p := range e.policies {
		got, _ := held.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		want, _ := fresh.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: held snapshot answers %s with %v, a fresh Compute with %v", step, p, got, want)
		}
	}
	verdictsMatchCompute(t, step, e.policies, e.HeldVerdicts(), n)
}

// handovers reads the commit hand-over counter by ancestor.
func handovers(reg *telemetry.Registry) [3]float64 {
	var out [3]float64
	for i, from := range []string{"review", "production", "computed"} {
		out[i] = reg.CounterValue("heimdall_enforcer_commit_handover_total", telemetry.L("from", from))
	}
	return out
}

// evaluated is how many policies verify checks have decided on their own
// snapshot rather than taken over from a parent's vector.
func evaluated(reg *telemetry.Registry) float64 {
	return reg.CounterValue("heimdall_verify_policies_checked_total") -
		reg.CounterValue("heimdall_verify_policies_carried_total")
}

// TestCommitLandsReplacedEntry: config.DiffDevice writes a replaced ACL
// entry as one set-acl-entry change, so production never holds the seq
// missing. An accepted commit of it is one push and one applied journal
// record, and leaves production holding the replacement the review
// verified.
func TestCommitLandsReplacedEntry(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	if _, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	want := n.Devices["r1"].Clone()
	want.ACLs["GUARD"].InsertEntry(*benignChange(15, 8443).Entry)
	changes := config.DiffDevice(n.Devices["r1"], want)
	if len(changes) != 1 || changes[0].Op != config.OpSetACLEntry {
		t.Fatalf("the replacement diffs as %v, want one set-acl-entry", changes)
	}
	pushed := reg.CounterValue("heimdall_enforcer_changes_applied_total")
	if d, err := e.submit(changes, aclSpec()); err != nil || !d.Accepted {
		t.Fatalf("commit of the replacement: %v %+v", err, d)
	}
	if got := reg.CounterValue("heimdall_enforcer_changes_applied_total") - pushed; got != 1 {
		t.Fatalf("the replacement took %v pushes, want 1", got)
	}
	records := e.Journal().Records()
	last := records[len(records)-1].Commit
	applied := 0
	for _, r := range records {
		if r.Commit == last && r.Kind == journal.KindApplied {
			applied++
		}
	}
	if applied != 1 {
		t.Fatalf("commit %s journaled %d applied records, want 1", last, applied)
	}
	if rest := config.DiffDevice(n.Devices["r1"], want); len(rest) > 0 {
		t.Fatalf("production is not what the review verified: %v", rest)
	}
	heldMatchesCompute(t, "replacement", e, n)
}

// TestCommitHandsOverReviewedShadow names the ancestor of every kind of
// commit: a commit right after its review lands that review's shadow,
// runs no verification after the push and holds the review's verdicts slot
// for slot; a commit nobody reviewed lands the shadow of its own review the
// same way; a commit whose review another session's has displaced derives
// from the pre-commit snapshot; a custom target computes. Whatever the
// ancestor, what is held afterwards is a fresh Compute's.
func TestCommitHandsOverReviewedShadow(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	spec := aclSpec()
	other := allowSpec(privilege.Rule{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r1"})
	other.Technician = "riley"
	commit := func(step string, changes ...config.Change) {
		t.Helper()
		if d, err := e.submit(changes, spec); err != nil || !d.Accepted {
			t.Fatalf("%s: %v %+v", step, err, d)
		}
		heldMatchesCompute(t, step, e, n)
	}
	// handsOverReview commits changes and requires the hand-over to run no
	// verification (runs counts the review's own) and to hold, slot for slot,
	// the vector the review kept (when reviewed is not nil).
	handsOverReview := func(step string, runs float64, reviewed verify.Verdicts, changes ...config.Change) {
		t.Helper()
		before := reg.CounterValue("heimdall_verify_runs_total")
		commit(step, changes...)
		if got := reg.CounterValue("heimdall_verify_runs_total") - before; got != runs {
			t.Fatalf("%s: %v verification runs, want %v: none after the push", step, got, runs)
		}
		if reviewed == nil {
			return
		}
		held := e.HeldVerdicts()
		if len(held) != len(reviewed) {
			t.Fatalf("%s: %d held slots, the review kept %d", step, len(held), len(reviewed))
		}
		for i := range held {
			if got, want := held[i], reviewed[i]; got == nil || got != want {
				t.Fatalf("%s: held slot %d is %p, the review's %p", step, i, got, want)
			}
		}
	}

	e.check([]config.Change{benignChange(15, 443)}, spec)
	before := evaluated(reg)
	handsOverReview("reviewed", 0, e.kept.Load().verdicts, benignChange(15, 443))
	if got := evaluated(reg) - before; got != 0 {
		t.Fatalf("a commit of the reviewed shadow evaluated %v policies, want 0", got)
	}
	if got := handovers(reg); got != [3]float64{1, 0, 0} {
		t.Fatalf("hand-overs review/production/computed = %v, want [1 0 0]", got)
	}

	handsOverReview("unreviewed", 1, nil, benignChange(16, 8080))
	if got := handovers(reg); got != [3]float64{2, 0, 0} {
		t.Fatalf("hand-overs after an unreviewed commit = %v, want [2 0 0]", got)
	}

	e.check([]config.Change{benignChange(17, 8081)}, spec)
	e.check([]config.Change{benignChange(18, 8082)}, other)
	commit("displaced", benignChange(17, 8081))
	if got := handovers(reg); got != [3]float64{2, 1, 0} {
		t.Fatalf("hand-overs after a displaced review = %v, want [2 1 0]", got)
	}

	e.SetTarget(&memTarget{net: n})
	commit("custom target", benignChange(19, 8083))
	if got := handovers(reg); got != [3]float64{2, 1, 1} {
		t.Fatalf("hand-overs after a custom target's commit = %v, want [2 1 1]", got)
	}
}

// TestHandOverDiffsAncestor drives the hand-over with ancestors that differ
// from what landed — the reviewed shadow and the pre-commit snapshot, while
// production got a change neither names — and requires every verdict to be
// a from-scratch check's: nothing is carried across a difference the diff
// finds. What landed opens the sensitive host, so an ancestor taken as
// equal to production would hand over its acceptance.
func TestHandOverDiffsAncestor(t *testing.T) {
	for _, which := range []string{"review", "production"} {
		t.Run(which, func(t *testing.T) {
			n := prod()
			e, _ := snapshotEnforcer(n)
			spec := aclSpec()
			reviewed := []config.Change{benignChange(15, 443)}
			if d := e.check(reviewed, spec); !d.Accepted {
				t.Fatalf("review: %+v", d)
			}
			pre := e.productionSnapshot()
			backup := n.CloneCOW("r1")
			key, _ := reviewKey(reviewed, spec, "")
			if which == "production" {
				key = "another review"
			}
			if err := config.ApplyChanges(n, []config.Change{benignChange(15, 443), maliciousPermit()}); err != nil {
				t.Fatal(err)
			}
			_, next, violations, from := e.handOver(key, pre, backup, []string{"r1"})
			if from != which {
				t.Fatalf("ancestor = %s, want %s", from, which)
			}
			want := verify.Check(dataplane.Compute(n), e.policies)
			if len(violations) == 0 || decisionJSON(t, &Decision{Violations: violations}) != decisionJSON(t, &Decision{Violations: want.Violations}) {
				t.Fatalf("hand-over from the %s decided %d violations, a fresh check %d", which, len(violations), len(want.Violations))
			}
			verdictsMatchCompute(t, which, e.policies, next, n)
		})
	}
}

// TestInvalidateReviewsDropsKeptShadow: an accepted review keeps its shadow,
// a rejected one keeps nothing, and whatever drops the version — an
// out-of-band write, a commit, a rollback — drops the shadow with it.
func TestInvalidateReviewsDropsKeptShadow(t *testing.T) {
	n := prod()
	e, reg := snapshotEnforcer(n)
	if e.check([]config.Change{maliciousPermit()}, aclSpec()); e.kept.Load() != nil {
		t.Fatal("a rejected review kept its shadow")
	}
	if e.check([]config.Change{benignChange(15, 443)}, aclSpec()); e.kept.Load() == nil {
		t.Fatal("an accepted review kept no shadow")
	}
	if e.InvalidateReviews(); e.kept.Load() != nil {
		t.Fatal("InvalidateReviews left the kept shadow")
	}
	if _, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	if e.kept.Load() != nil {
		t.Fatal("a commit left its shadow kept")
	}
	// The second push fails: rolled back before any hand-over.
	e.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
	}}))
	if _, err := e.submit([]config.Change{benignChange(16, 8080), benignChange(17, 8081)}, aclSpec()); err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want a rollback", err)
	}
	if e.kept.Load() != nil || handovers(reg) != [3]float64{1, 0, 0} {
		t.Fatalf("a rolled-back commit: shadow kept %v, hand-overs %v", e.kept.Load() != nil, handovers(reg))
	}
	heldMatchesCompute(t, "rollback", e, n)
}

// TestHandOverHammer races never-repeating reviews against a committer that
// reviews a change set and then commits it. A gate of the test's own (gate)
// lets the reviews run between the two or holds them off: the reviews
// displace the shadow of a set reviewed while they run, so its commit hands
// over from production; a set reviewed and committed while they are held
// off hands over from its review. Run under -race: every commit is accepted and decided as a
// from-scratch check decides it, and what is held at rest is a fresh
// Compute's.
func TestHandOverHammer(t *testing.T) {
	scen := scenarios.University()
	n := scen.Network
	e := newCrashEnforcer(scen, n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	wide := &privilege.Spec{Ticket: "T-HANDOVER", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:*"},
	}}
	infra := n.RoutersAndSwitches()
	entry := func(acl string, k int) []config.Change {
		return []config.Change{{Device: infra[k%len(infra)], Op: config.OpAddACLEntry, ACLName: acl,
			Entry: &netmodel.ACLEntry{Seq: 10 + k, Action: netmodel.Permit, Proto: netmodel.TCP, DstPort: uint16(9000 + k)}}}
	}
	var gate sync.RWMutex
	var seq atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				gate.RLock()
				e.check(entry("HAMMER", int(seq.Add(1))), wide)
				gate.RUnlock()
			}
		}()
	}
	const commits = 12
	for i := 0; i < commits; i++ {
		changes := entry("COMMITTED", i)
		if i%2 == 0 {
			gate.Lock()
			e.check(changes, wide)
		} else {
			gate.RLock()
			e.check(changes, wide)
			gate.RUnlock()
			gate.Lock()
		}
		view, _ := e.View(false)
		shadow := view.Clone()
		if err := config.ApplyChanges(shadow, changes); err != nil {
			t.Fatal(err)
		}
		res := verify.Check(dataplane.Compute(shadow), scen.Policies)
		d, err := e.submit(changes, wide)
		gate.Unlock()
		if err != nil || decisionJSON(t, d) != decisionJSON(t, &Decision{Accepted: len(res.Violations) == 0, Violations: res.Violations, Checked: res.Checked}) {
			t.Fatalf("commit %d: %v %+v, a from-scratch check accepts: %v", i, err, d, len(res.Violations) == 0)
		}
	}
	close(done)
	wg.Wait()
	heldMatchesCompute(t, "at rest", e, n)
	h := handovers(reg)
	if h[0]+h[1] != commits || h[0] < commits/2 || h[2] != 0 {
		t.Fatalf("hand-overs review/production/computed = %v over %d commits", h, commits)
	}
	t.Logf("hand-overs review/production = %v/%v", h[0], h[1])
}

// scheduleScenarios are the networks the schedule property runs over,
// built once: the property only ever reads them.
var scheduleScenarios = sync.OnceValue(func() []*netmodel.Network {
	return []*netmodel.Network{
		scenarios.University().Network, scenarios.Enterprise().Network, scenarios.Provider().Network,
		generate.FatTree(generate.FatTreeParams{K: 4}).Network,
	}
})

// scheduleEdits makes k random edits to d: ACL entries replaced (same seq,
// another port or action), added and removed, static routes added and
// removed, an interface shut or brought up, a VLAN defined, renamed or
// deleted, the default gateway moved.
func scheduleEdits(r *rand.Rand, d *netmodel.Device, k int) {
	entry := func() (*netmodel.ACL, netmodel.ACLEntry, bool) {
		var full []string
		for _, name := range d.ACLNames() {
			if len(d.ACLs[name].Entries) > 0 {
				full = append(full, name)
			}
		}
		if len(full) == 0 {
			return nil, netmodel.ACLEntry{}, false
		}
		a := d.ACLs[full[r.Intn(len(full))]]
		return a, a.Entries[r.Intn(len(a.Entries))], true
	}
	for ; k > 0; k-- {
		switch r.Intn(8) {
		case 0, 1:
			if a, e, ok := entry(); ok {
				e.DstPort, e.Action = uint16(1+r.Intn(60000)), netmodel.ACLAction(r.Intn(2))
				a.InsertEntry(e)
			}
		case 2:
			name := "EDIT"
			if names := d.ACLNames(); len(names) > 0 && r.Intn(2) == 0 {
				name = names[r.Intn(len(names))]
			}
			d.ACL(name, true).InsertEntry(netmodel.ACLEntry{Seq: 1 + r.Intn(200), Action: netmodel.ACLAction(r.Intn(2)),
				Proto: netmodel.TCP, DstPort: uint16(1 + r.Intn(60000))})
		case 3:
			if a, e, ok := entry(); ok {
				a.RemoveEntry(e.Seq)
			}
		case 4:
			if len(d.StaticRoutes) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(d.StaticRoutes))
				d.StaticRoutes = slices.Delete(d.StaticRoutes, i, i+1)
				break
			}
			rt := netmodel.StaticRoute{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 250, byte(r.Intn(256)), 0}), 24),
				NextHop: netip.AddrFrom4([4]byte{10, 251, 0, byte(1 + r.Intn(254))})}
			if !slices.Contains(d.StaticRoutes, rt) {
				d.StaticRoutes = append(d.StaticRoutes, rt)
			}
		case 5:
			if names := d.InterfaceNames(); len(names) > 0 {
				itf := d.Interfaces[names[r.Intn(len(names))]]
				itf.Shutdown = !itf.Shutdown
			}
		case 6:
			if id := 1 + r.Intn(40); d.VLANs[id] != nil && r.Intn(2) == 0 {
				delete(d.VLANs, id)
			} else {
				d.VLANs[id] = &netmodel.VLAN{ID: id, Name: fmt.Sprintf("V%d-%d", id, r.Intn(4))}
			}
		default:
			d.DefaultGateway = netip.AddrFrom4([4]byte{10, 252, byte(r.Intn(256)), 1})
		}
	}
}

// landsDiff pushes Schedule(DiffDevice(a, b)) onto a copy of n's device a,
// one change at a time as the commit pipeline pushes, and fails unless the
// result is b: a second DiffDevice finds nothing. It reports whether the
// diff replaced an ACL entry (a set-acl-entry op).
func landsDiff(t *testing.T, n *netmodel.Network, b *netmodel.Device) bool {
	t.Helper()
	changes := config.DiffDevice(n.Devices[b.Name], b)
	landed := n.CloneCOW(b.Name)
	if err := config.ApplyChanges(landed, Schedule(changes)); err != nil {
		t.Fatalf("%s: the schedule of %v does not apply: %v", b.Name, changes, err)
	}
	if rest := config.DiffDevice(landed.Devices[b.Name], b); len(rest) > 0 {
		t.Fatalf("%s: the schedule of %v left %v", b.Name, changes, rest)
	}
	return slices.ContainsFunc(changes, func(c config.Change) bool { return c.Op == config.OpSetACLEntry })
}

// TestScheduleLandsDiff: over every device of university, enterprise,
// provider and fattree-k4, random edits diffed by config.DiffDevice and
// pushed in Schedule's order land exactly the edited device — the
// invariant that lets a commit's post-apply check derive from its review's
// shadow.
func TestScheduleLandsDiff(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	replaced := 0
	for _, n := range scheduleScenarios() {
		for _, dev := range n.DeviceNames() {
			for trial := 0; trial < 3; trial++ {
				b := n.Devices[dev].Clone()
				scheduleEdits(r, b, 1+r.Intn(6))
				if landsDiff(t, n, b) {
					replaced++
				}
			}
		}
	}
	if replaced == 0 {
		t.Fatal("no edit replaced an ACL entry: the property exercises nothing")
	}
	t.Logf("%d diffs replaced an ACL entry", replaced)
}

// FuzzScheduleLandsDiff is TestScheduleLandsDiff with the scenario, the
// device, the edits and their number fuzzed.
func FuzzScheduleLandsDiff(f *testing.F) {
	for i := 0; i < 4; i++ {
		f.Add(uint8(i), int64(i), uint8(4))
	}
	f.Fuzz(func(t *testing.T, scen uint8, seed int64, k uint8) {
		n := scheduleScenarios()[int(scen)%len(scheduleScenarios())]
		r := rand.New(rand.NewSource(seed))
		names := n.DeviceNames()
		b := n.Devices[names[r.Intn(len(names))]].Clone()
		scheduleEdits(r, b, int(k%16))
		landsDiff(t, n, b)
	})
}
