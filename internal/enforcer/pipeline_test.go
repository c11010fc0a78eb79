package enforcer

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// benignChange returns an ACL permit for traffic that is already
// reachable, parameterised by sequence number so tests can build disjoint
// multi-change sets.
func benignChange(seq, port int) config.Change {
	return config.Change{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: seq, Action: netmodel.Permit, Proto: netmodel.TCP,
			Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: uint16(port)},
	}
}

// fastRetry is a retry policy with a recording sleep so chaos runs at
// full speed and tests can reconcile backoff counts.
func fastRetry(sleeps *[]time.Duration) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		Sleep: func(d time.Duration) {
			*sleeps = append(*sleeps, d)
		},
	}
}

func TestCommitRetriesTransientFaultAndSucceeds(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)

	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailFirst: 2}, // transient, recovers on 3rd try
	}})
	inj.SetMeter(reg)
	e.SetInjector(inj)

	d, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec())
	if err != nil || !d.Accepted {
		t.Fatalf("commit with transient faults failed: %v %+v", err, d)
	}
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != 3 {
		t.Fatal("change not applied after retries")
	}
	// Two faults, two retries, two backoff sleeps — all reconciled.
	if got := reg.CounterValue("heimdall_enforcer_push_retries_total", telemetry.L("phase", "apply")); got != 2 {
		t.Fatalf("push_retries_total = %v, want 2", got)
	}
	if len(sleeps) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2", len(sleeps))
	}
	if got := reg.CounterValue("heimdall_faults_injected_total",
		telemetry.L("op", "apply"), telemetry.L("class", "transient")); got != float64(inj.Injected()) {
		t.Fatalf("faults_injected_total = %v, want %d", got, inj.Injected())
	}
	if got := reg.HistogramCount("heimdall_enforcer_push_seconds"); got != 1 {
		t.Fatalf("push_seconds count = %d, want 1 (one change pushed)", got)
	}
	// Backoff doubles with jitter in [d/2, d].
	if sleeps[0] < 25*time.Millisecond || sleeps[0] > 50*time.Millisecond {
		t.Fatalf("first backoff %v outside [25ms, 50ms]", sleeps[0])
	}
	if sleeps[1] < 50*time.Millisecond || sleeps[1] > 100*time.Millisecond {
		t.Fatalf("second backoff %v outside [50ms, 100ms]", sleeps[1])
	}
	// The jitter is drawn from a source seeded JitterSeed + the commit's
	// number (1 + 1 here), however late the commit seeds it, so a replayed
	// fault schedule sleeps exactly as before.
	rng := rand.New(rand.NewSource(2))
	for i, got := range sleeps {
		half := 25 * time.Millisecond << i
		if want := half + time.Duration(rng.Int63n(int64(half)+1)); got != want {
			t.Fatalf("backoff %d = %v, want %v", i+1, got, want)
		}
	}
}

func TestPermanentFaultNotRetried(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	// The second rule only adds latency, so the injector's sleep sink
	// counts the attempts to apply on r1.
	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 1, Class: faultinject.Permanent},
		{Scope: "r1", Op: "apply", Latency: time.Nanosecond},
	}})
	applies := 0
	inj.SetSleep(func(time.Duration) { applies++ })
	e.SetInjector(inj)

	if _, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec()); err == nil {
		t.Fatal("commit with permanent fault succeeded")
	}
	if len(sleeps) != 0 {
		t.Fatalf("permanent fault was retried: %d sleeps", len(sleeps))
	}
	if got := reg.CounterValue("heimdall_enforcer_rollbacks_total"); got != 1 {
		t.Fatalf("rollbacks_total = %v, want 1", got)
	}
	// Apply was attempted exactly once.
	if applies != 1 {
		t.Fatalf("apply calls = %d, want 1", applies)
	}
}

// sameNetwork compares every exported field of two networks deeply. The
// index of its links a network memoizes (unexported, built at the first
// CloneCOW or cabling read) is derived from Links and Devices, so it is
// left out: a rollback that restores those restores it.
func sameNetwork(a, b *netmodel.Network) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// Satellite regression: after a rollback, production must be exactly the
// pre-commit state — compared deeply and byte-for-byte on the serialised
// network, so a future Network field missed by rollback fails this test.
func TestRollbackRestoresProductionExactly(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	pre := n.Clone()
	preJSON, err := json.Marshal(pre)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-change set; the second apply dies permanently after the first
	// one already landed.
	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
	}})
	e.SetInjector(inj)
	changes := []config.Change{benignChange(15, 443), benignChange(16, 8443)}
	if _, err := e.submit(changes, aclSpec()); err == nil {
		t.Fatal("commit should have failed")
	}
	if !sameNetwork(n, pre) {
		t.Fatal("post-rollback network differs structurally from pre-commit state")
	}
	postJSON, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	if string(postJSON) != string(preJSON) {
		t.Fatal("post-rollback network not byte-identical to pre-commit snapshot")
	}
	// The journal closed the commit as rolled-back and still verifies.
	recs := e.Journal().Records()
	last := recs[len(recs)-1]
	if last.Kind != journal.KindRolledBack {
		t.Fatalf("last journal record = %s, want rolled-back", last.Kind)
	}
	if err := e.Journal().Verify(); err != nil {
		t.Fatal(err)
	}
}

// A commit swaps a device pointer under the held pre-commit snapshot (its
// push replaces the device, config.ApplyChange) and a rollback swaps the
// untouched pre-image back in (memTarget.RestoreDevice), so a trace on that
// snapshot must read each hop's device from the network, never one
// remembered from an earlier trace: a flow across r1 asked for the first
// time after the rollback equals a fresh Compute. The pushed change never
// reached the device production held before the commit.
func TestRollbackTraceReadsRestoredDevice(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	held := e.productionSnapshot()
	if tr, _ := held.Reach("h1", "h2", netmodel.ICMP, 0); !tr.Delivered() {
		t.Fatalf("baseline should deliver: %s", tr)
	}
	// Whichever change is pushed first lands on r1 (its clone) before the
	// second dies: each denies a port no policy asks for.
	deny := func(port int) config.Change {
		c := benignChange(15+port%2, port)
		c.Entry.Action = netmodel.Deny
		return c
	}
	e.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
	}}))
	before := n.Devices["r1"]
	printed := config.Print(before)
	if _, err := e.submit([]config.Change{deny(9998), deny(9999)}, aclSpec()); err == nil {
		t.Fatal("commit should have failed")
	}
	if n.Devices["r1"] != before || config.Print(before) != printed {
		t.Fatal("the rollback did not restore the untouched r1 the commit detached")
	}
	if e.productionSnapshot() != held {
		t.Fatal("the rollback did not keep the pre-commit snapshot held")
	}
	fresh := dataplane.Compute(n)
	for _, port := range []uint16{9998, 9999} {
		got, _ := held.Reach("h1", "h2", netmodel.TCP, port)
		want, _ := fresh.Reach("h1", "h2", netmodel.TCP, port)
		if !got.Delivered() || !reflect.DeepEqual(got, want) {
			t.Fatalf("tcp/%d on the held snapshot after the rollback: %s, want %s", port, got, want)
		}
	}
}

func TestRetryExhaustionRollsBack(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	pre := n.Clone()
	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", Outage: true}, // transient but never recovers
	}})
	e.SetInjector(inj)

	_, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec())
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("err = %v, want rolled-back failure", err)
	}
	if len(sleeps) != 2 { // MaxAttempts 3 => 2 retries
		t.Fatalf("retries = %d, want 2", len(sleeps))
	}
	if !sameNetwork(n, pre) {
		t.Fatal("rollback did not restore production")
	}
	if q, _ := e.Quarantined(); q {
		t.Fatal("successful rollback must not quarantine")
	}
}

func TestQuarantineWhenRollbackFails(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	pre := n.Clone()
	inj := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
		{Scope: "r1", Op: "restore", Outage: true},
	}})
	e.SetInjector(inj)
	changes := []config.Change{benignChange(15, 443), benignChange(16, 8443)}
	_, err := e.submit(changes, aclSpec())
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want quarantine", err)
	}
	q, why := e.Quarantined()
	if !q || why == "" {
		t.Fatalf("Quarantined = %v %q, want true with reason", q, why)
	}
	if got := reg.CounterValue("heimdall_enforcer_quarantines_total"); got != 1 {
		t.Fatalf("quarantines_total = %v, want 1", got)
	}
	// The journal says exactly which device is stuck.
	recs := e.Journal().Records()
	last := recs[len(recs)-1]
	if last.Kind != journal.KindQuarantined || !reflect.DeepEqual(last.Unrestored, []string{"r1"}) {
		t.Fatalf("terminal record = %+v, want quarantined r1", last)
	}
	// New commits are refused while quarantined.
	if _, err := e.submit([]config.Change{benignChange(17, 80)}, aclSpec()); err == nil ||
		!strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("commit while quarantined: err = %v", err)
	}
	// Recover heals: pre-state is restored, the reviewed change set is
	// replayed, and the quarantine lifts.
	rep, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "committed" {
		t.Fatalf("recovery action = %s, want committed", rep.Action)
	}
	if q, _ := e.Quarantined(); q {
		t.Fatal("quarantine not cleared by recovery")
	}
	// Final state is the full intended commit: pre + both changes.
	want := pre.Clone()
	if err := config.ApplyChanges(want, changes); err != nil {
		t.Fatal(err)
	}
	if fingerprint(n) != fingerprint(want) {
		t.Fatal("recovered state is not the fully-committed state")
	}
	if got := reg.CounterValue("heimdall_enforcer_recoveries_total"); got != 1 {
		t.Fatalf("recoveries_total = %v, want 1", got)
	}
	// And commits work again.
	if _, err := e.submit([]config.Change{benignChange(17, 80)}, aclSpec()); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}

// misapplyTarget models a buggy or compromised device agent: it applies
// every requested change but also sneaks in an extra one — exactly the
// drift the post-apply verification pass exists to catch.
type misapplyTarget struct {
	net   *netmodel.Network
	extra config.Change
	done  bool
}

func (t *misapplyTarget) Apply(c config.Change) error {
	if err := config.ApplyChanges(t.net, []config.Change{c}); err != nil {
		return err
	}
	if !t.done {
		t.done = true
		return config.ApplyChanges(t.net, []config.Change{t.extra})
	}
	return nil
}

func (t *misapplyTarget) RestoreDevice(name string, d *netmodel.Device) error {
	t.net.Devices[name] = d
	return nil
}

func TestPostVerifyFailureRollsBackMisappliedCommit(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	pre := n.Clone()
	// The sneaked-in change opens the sensitive subnet — review never saw
	// it, so only the post-apply check can catch it.
	e.SetTarget(&misapplyTarget{net: n, extra: config.Change{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit, Proto: netmodel.AnyProto,
			Dst: netip.MustParsePrefix("10.3.0.0/24")},
	}})
	d, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec())
	if err == nil || !strings.Contains(err.Error(), "post-apply verification failed") {
		t.Fatalf("err = %v, want post-apply failure", err)
	}
	if d.Accepted || len(d.Violations) == 0 {
		t.Fatalf("decision should carry the post-verify violations: %+v", d)
	}
	if !sameNetwork(n, pre) {
		t.Fatal("misapplied commit not fully rolled back")
	}
	if err := e.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent commit callers are serialised by the enforcer's lock and the
// counters stay exact. Run with -race.
func TestConcurrentCommits(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.submit([]config.Change{benignChange(30+i, 1000+i)}, aclSpec())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent commit %d failed: %v", i, err)
		}
	}
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != 6 {
		t.Fatalf("entries = %d, want 6", len(n.Devices["r1"].ACLs["GUARD"].Entries))
	}
	if got := reg.CounterValue("heimdall_enforcer_commits_total", telemetry.L("accepted", "true")); got != 4 {
		t.Fatalf("commits_total{accepted} = %v, want 4", got)
	}
	if got := reg.CounterValue("heimdall_enforcer_changes_applied_total"); got != 4 {
		t.Fatalf("changes_applied_total = %v, want 4", got)
	}
	if err := e.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
	if err := e.Journal().Verify(); err != nil {
		t.Fatal(err)
	}
	// Each of the four commits is a closed intent..committed window.
	if intent, _ := e.Journal().Open(); intent != nil {
		t.Fatalf("journal left an open commit: %+v", intent)
	}
}

func TestHappyPathJournalShape(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	changes := []config.Change{benignChange(15, 443), benignChange(16, 8443)}
	if _, err := e.submit(changes, aclSpec()); err != nil {
		t.Fatal(err)
	}
	recs := e.Journal().Records()
	kinds := make([]journal.Kind, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	want := []journal.Kind{journal.KindIntent, journal.KindApplied, journal.KindApplied, journal.KindCommitted}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journal kinds = %v, want %v", kinds, want)
	}
	// The intent carries the scheduled set and one undo per change: GUARD
	// as it was before the commit.
	if len(recs[0].Changes) != 2 || len(recs[0].Undos) != 2 {
		t.Fatalf("intent record incomplete: %+v", recs[0])
	}
	for i, u := range recs[0].Undos {
		if !u.Undoes(recs[0].Changes[i]) || u.ACL == nil || len(u.ACL.Entries) != len(prod().Devices["r1"].ACLs["GUARD"].Entries) {
			t.Fatalf("undo %d = %+v, want r1's GUARD as it was", i, u)
		}
	}
}

// fingerprint renders a network canonically for state comparison.
func fingerprint(n *netmodel.Network) string {
	var b strings.Builder
	for _, name := range n.DeviceNames() {
		b.WriteString(config.Print(n.Devices[name]))
		b.WriteString("\n")
	}
	for _, l := range n.Links {
		b.WriteString(l.A.String() + "<->" + l.B.String() + "\n")
	}
	return b.String()
}
