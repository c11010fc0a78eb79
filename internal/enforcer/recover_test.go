package enforcer

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/spec"
	"heimdall/internal/telemetry"
)

// crashSpec authorizes everything: crash recovery is about push
// resilience, not privilege.
func crashSpec() *privilege.Spec {
	return &privilege.Spec{Ticket: "CRASH", Technician: "op",
		Rules: []privilege.Rule{{Effect: privilege.AllowEffect, Action: "*", Resource: "*"}}}
}

// neutralChanges builds a small committing change set for any scenario
// network: inert VLAN definitions, a static route to a documentation prefix
// no policy reaches, and a no-op ACL permit inserted between an existing
// deny and the trailing permit-all, so every policy keeps its verdict and
// post-verify passes. The route is the one change that is not idempotent
// (a second push appends it again), so a recovery that replays it onto a
// device where it already landed shows.
func neutralChanges(t *testing.T, n *netmodel.Network) []config.Change {
	t.Helper()
	var changes []config.Change
	var vlanDevs []string
	for _, name := range n.RoutersAndSwitches() {
		if len(vlanDevs) < 2 {
			vlanDevs = append(vlanDevs, name)
		}
	}
	for i, name := range vlanDevs {
		changes = append(changes, config.Change{Device: name, Op: config.OpSetVLAN,
			VLAN: &netmodel.VLAN{ID: 900 + i, Name: fmt.Sprintf("chaos-%d", i)}})
	}
	changes = append(changes, config.Change{Device: vlanDevs[0], Op: config.OpAddStaticRoute,
		Route: &netmodel.StaticRoute{Prefix: netip.MustParsePrefix("198.51.100.0/24"), NextHop: netip.MustParseAddr("192.0.2.1")}})
	// Find an ACL that ends in a permit-all (seq 30 in both scenarios)
	// and add a neutral permit at seq 25.
	for _, name := range n.DeviceNames() {
		d := n.Devices[name]
		for acl, a := range d.ACLs {
			for _, e := range a.Entries {
				if e.Seq == 30 && e.Action == netmodel.Permit {
					changes = append(changes, config.Change{Device: name, Op: config.OpAddACLEntry,
						ACLName: acl, Entry: &netmodel.ACLEntry{Seq: 25, Action: netmodel.Permit,
							Proto: netmodel.TCP, Dst: netip.MustParsePrefix("203.0.113.0/24"), DstPort: 443}})
					return changes
				}
			}
		}
	}
	if len(changes) == 0 {
		t.Fatal("no neutral changes derivable for scenario")
	}
	return changes
}

// crashEnclave is the enclave of a fixed platform seed, so a restarted
// enforcer derives the same journal and trail keys.
func crashEnclave() *enclave.Enclave {
	return enclave.NewPlatformFromSeed("crash-test").Load("heimdall-enforcer-v1")
}

// newCrashEnforcer builds an enforcer in crashEnclave.
func newCrashEnforcer(scen *scenarios.Scenario, n *netmodel.Network) *Enforcer {
	return New(crashEnclave(), scen.Policies, n)
}

// reparse is production as a restarted enforcer reads it: every device of
// n printed and parsed back, on the given cabling (cabling is physical, not
// config).
func reparse(t *testing.T, n *netmodel.Network, links []*netmodel.Link) *netmodel.Network {
	t.Helper()
	out := &netmodel.Network{Name: n.Name, Devices: make(map[string]*netmodel.Device, len(n.Devices)), Links: links}
	for name, d := range n.Devices {
		p, err := config.Parse(name, config.Print(d))
		if err != nil {
			t.Fatal(err)
		}
		out.Devices[name] = p
	}
	return out
}

// exports returns the enforcer's trail and journal exports.
func exports(t *testing.T, e *Enforcer) (trail, commits []byte) {
	t.Helper()
	trail, err := e.Trail().Export()
	if err != nil {
		t.Fatal(err)
	}
	if commits, err = e.Journal().Export(); err != nil {
		t.Fatal(err)
	}
	return trail, commits
}

// TestRecoverEveryCrashPoint runs a clean commit on each seed scenario,
// then simulates a crash after every journal record boundary: production
// is reconstructed to exactly what the pipeline had pushed at that point
// (journal.Replay of the prefix), a fresh enforcer imports the surviving
// journal prefix, and Recover must land on the same production state as the
// uninterrupted run had once the intent the crash interrupted settled.
// Where the next record is an applied one, the crash also comes between
// that push and its record: production holds the change, the journal does
// not, and the change's undo must take it back as safely as any other. The
// emergency cases first inject a fault that breaks policies, so the crash
// points run through the injection's records too, and a strict commit of
// the same set is refused: the emergency commit lands only because its
// intent tolerates them, and Recover must replay each intent to its rule.
func TestRecoverEveryCrashPoint(t *testing.T) {
	for _, tc := range []struct {
		load  func() *scenarios.Scenario
		fault string // the issue injected first for an emergency commit
	}{
		{scenarios.Enterprise, ""}, {scenarios.University, ""},
		{scenarios.Enterprise, "vlan"}, {scenarios.University, "ospf"},
	} {
		scen := tc.load()
		name := scen.Name
		pre := scen.Network.Clone()
		e := newCrashEnforcer(scen, scen.Network)
		changes := neutralChanges(t, scen.Network)
		req := CommitRequest{Changes: changes, Spec: crashSpec()}
		var settled []string // production once each intent settled, in journal order
		if tc.fault != "" {
			name += "/emergency " + tc.fault
			for _, is := range scen.Issues {
				if is.Name == tc.fault {
					if err := e.Inject(is.Fault.Name, is.Fault.Changes); err != nil {
						t.Fatal(err)
					}
				}
			}
			settled = append(settled, fingerprint(scen.Network))
			if _, err := e.submit(changes, crashSpec()); err == nil {
				t.Fatalf("%s: a strict commit over the fault's violations was accepted", name)
			}
			req = CommitRequest{Spec: crashSpec(), Emergency: func(*netmodel.Network) ([]config.Change, error) { return changes, nil }}
		}

		// Uninterrupted run.
		if _, err := e.Submit(req); err != nil {
			t.Fatalf("%s: uninterrupted commit failed: %v", name, err)
		}
		settled = append(settled, fingerprint(scen.Network))
		trail, _ := exports(t, e)
		full := e.Journal().Records()
		changesOf := map[string][]config.Change{} // the scheduled sets the journal replays
		var details []string
		applied := 0
		for _, r := range full {
			switch r.Kind {
			case journal.KindIntent:
				if len(r.Undos) != len(r.Changes) {
					t.Fatalf("%s: %d undos for %d changes", name, len(r.Undos), len(r.Changes))
				}
				changesOf[r.Commit] = r.Changes
				details = append(details, r.Detail)
			case journal.KindApplied:
				applied++
			}
		}
		if len(details) != len(settled) {
			t.Fatalf("%s: %d intents journaled, want %d", name, len(details), len(settled))
		}
		commit := details[len(details)-1]
		if tolerated := strings.Fields(strings.TrimPrefix(commit, tolerates)); (tc.fault != "") != (len(tolerated) > 0) {
			t.Fatalf("%s: intent detail %q", name, commit)
		}
		if tc.fault != "" && details[0] != injects {
			t.Fatalf("%s: injection intent detail %q", name, details[0])
		}

		crashes := 0
		for k := 1; k <= len(full); k++ {
			prefix := full[:k]
			// Reconstruct production as the crash left it: pre-state plus
			// every change the journal prefix records as applied.
			state, err := journal.Replay(pre, prefix)
			if err != nil {
				t.Fatalf("%s: replaying the prefix: %v", name, err)
			}
			intents, closed := 0, false
			for _, r := range prefix {
				if r.Kind == journal.KindIntent {
					intents++
				}
				closed = r.Kind == journal.KindCommitted
			}
			want := settled[intents-1]
			recoverAt(t, scen, fmt.Sprintf("%s: crash point %d", name, k), trail, prefix, state, closed, want)
			crashes++
			// The push of the next change landed; its applied record did not.
			if next := full[min(k, len(full)-1)]; k < len(full) && next.Kind == journal.KindApplied {
				if err := config.ApplyChanges(state, changesOf[next.Commit][next.ChangeIndex:next.ChangeIndex+1]); err != nil {
					t.Fatal(err)
				}
				recoverAt(t, scen, fmt.Sprintf("%s: crash point %d, change %d pushed", name, k, next.ChangeIndex), trail, prefix, state, false, want)
				crashes++
			}
		}
		if want := len(full) + applied; crashes != want { // every record, and every applied one unrecorded
			t.Fatalf("%s: %d crash points, want %d", name, crashes, want)
		}
	}
}

// TestJournalRebuildsProduction: every production write is a journaled
// change set, so the scenario's configs and the journal export alone
// rebuild production, device for device, after injections, commits, an
// emergency write, a rollback and a quarantine with its recovery.
func TestJournalRebuildsProduction(t *testing.T) {
	scen := scenarios.University()
	e := newCrashEnforcer(scen, scen.Network)
	push := func(step string, req CommitRequest, plan ...faultinject.Rule) {
		t.Helper()
		e.SetInjector(faultinject.New(faultinject.Plan{Rules: plan}))
		defer e.SetInjector(nil)
		if _, err := e.Submit(req); (err == nil) != (len(plan) == 0) {
			t.Fatalf("%s: %v", step, err)
		}
	}
	changes := neutralChanges(t, scen.Network)
	fail := faultinject.Rule{Op: "apply", FailNth: 2, Class: faultinject.Permanent}
	push("rollback", CommitRequest{Changes: changes, Spec: crashSpec()}, fail)
	push("quarantine", CommitRequest{Changes: changes, Spec: crashSpec()}, fail,
		faultinject.Rule{Op: "restore", Outage: true, Class: faultinject.Permanent})
	if rep, err := e.Recover(); err != nil || rep.Action != "committed" {
		t.Fatalf("Recover = %+v, %v", rep, err)
	}
	// The first fault injected and its root cause's scenario config
	// committed back, then every fault, then an emergency write over them.
	for i, is := range scen.Issues {
		if err := e.Inject(is.Fault.Name, is.Fault.Changes); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			continue
		}
		root := is.Fault.RootCause
		orig, err := config.Parse(root, scen.Configs[root])
		if err != nil {
			t.Fatal(err)
		}
		prod, _ := e.View(false)
		push("fix", CommitRequest{Changes: config.DiffDevice(prod.Devices[root], orig), Spec: crashSpec()})
	}
	push("emergency", CommitRequest{Spec: crashSpec(), Emergency: func(*netmodel.Network) ([]config.Change, error) {
		return []config.Change{{Device: "r1", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 950, Name: "rebuilt"}}}, nil
	}})

	_, data := exports(t, e)
	j, err := journal.Import(e.JournalKey(), data)
	if err != nil {
		t.Fatal(err)
	}
	base := &netmodel.Network{Devices: make(map[string]*netmodel.Device, len(scen.Configs))}
	for name, text := range scen.Configs {
		if base.Devices[name], err = config.Parse(name, text); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := journal.Replay(base, j.Records())
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := e.View(false)
	kinds := map[journal.Kind]int{}
	for _, r := range j.Records() {
		kinds[r.Kind]++
	}
	for _, k := range []journal.Kind{journal.KindRolledBack, journal.KindQuarantined, journal.KindRecovered} {
		if kinds[k] == 0 {
			t.Fatalf("no %s record in the journal: %v", k, kinds)
		}
	}
	if len(rebuilt.Devices) != len(prod.Devices) {
		t.Fatalf("rebuilt %d devices, production holds %d", len(rebuilt.Devices), len(prod.Devices))
	}
	for name, d := range prod.Devices {
		if got, want := config.Print(rebuilt.Devices[name]), config.Print(d); got != want {
			t.Fatalf("%s rebuilt from the journal:\n%s\nproduction:\n%s", name, got, want)
		}
	}
}

// recoverAt restarts from bytes onto the journal prefix a crash left with
// production in state: every device printed and parsed back onto the
// scenario's cabling, the trail and the prefix through Restore. The restart
// is quarantined exactly when the prefix holds the commit open, and Recover
// must land on the uninterrupted run's final state.
func recoverAt(t *testing.T, scen *scenarios.Scenario, at string, trail []byte, prefix []journal.Record, state *netmodel.Network, committedSeen bool, finalFP string) {
	t.Helper()
	data, err := json.Marshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	prod := reparse(t, state, scen.Network.Links)
	e2, err := Restore(crashEnclave(), scen.Policies, prod, trail, data)
	if err != nil {
		t.Fatalf("%s: restore: %v", at, err)
	}
	if q, why := e2.Quarantined(); q == committedSeen {
		t.Fatalf("%s: restarted quarantined = %v (%s) on a prefix that is open = %v", at, q, why, !committedSeen)
	}
	rep, err := e2.Recover()
	if err != nil {
		t.Fatalf("%s: recover: %v", at, err)
	}
	wantAction := "committed"
	if committedSeen {
		wantAction = "none"
	}
	if rep.Action != wantAction {
		t.Fatalf("%s: action = %s, want %s", at, rep.Action, wantAction)
	}
	if got := fingerprint(prod); got != finalFP {
		t.Fatalf("%s: recovered state differs from uninterrupted run", at)
	}
	// The journal is settled and verifiable; recovery is idempotent.
	if err := e2.Journal().Verify(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if intent, _ := e2.Journal().Open(); intent != nil {
		t.Fatalf("%s: commit still open after recovery", at)
	}
	if q, _ := e2.Quarantined(); q {
		t.Fatalf("%s: still quarantined after recovery", at)
	}
	again, err := e2.Recover()
	if err != nil || again.Action != "none" {
		t.Fatalf("%s: second recover = %+v, %v", at, again, err)
	}
}

// TestRecoverNothingOpen: a journal with only settled commits is a no-op.
func TestRecoverNothingOpen(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	if _, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	fp := fingerprint(n)
	rep, err := e.Recover()
	if err != nil || rep.Action != "none" {
		t.Fatalf("Recover = %+v, %v, want none", rep, err)
	}
	if fingerprint(n) != fp {
		t.Fatal("no-op recovery mutated production")
	}
}

// restoreEnforcer restarts an enforcer on newEnforcer's platform from the
// given exports.
func restoreEnforcer(n *netmodel.Network, trail, commits []byte) (*Enforcer, error) {
	encl := enclave.NewPlatformFromSeed("test").Load("heimdall-enforcer-v1")
	return Restore(encl, spec.Mine(dataplane.Compute(n), n, spec.Options{Sensitive: map[string]bool{"h3": true}}), n, trail, commits)
}

// TestRestoreReportsChainLength: a restarted enforcer's trail holds every
// imported link, and its chain-length gauge reads them as soon as a meter
// is wired, not from the next append on.
func TestRestoreReportsChainLength(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	for i := 0; i < 3; i++ {
		e.Trail().Append("T1", "alice", audit.KindSession, fmt.Sprintf("entry %d", i), true)
	}
	trail, err := e.Trail().Export()
	if err != nil {
		t.Fatal(err)
	}
	commits, err := e.Journal().Export()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := restoreEnforcer(n, trail, commits)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e2.SetMeter(reg)
	if got := reg.CounterValue("heimdall_audit_chain_length"); got != 3 || e2.Trail().Len() != 3 {
		t.Fatalf("restored trail: chain length gauge %v, %d links; want 3 and 3", got, e2.Trail().Len())
	}
}

// TestRecoverTamperedJournalRejected: recovery must never trust a forged
// journal or trail — Restore imports both and refuses the restart.
func TestRecoverTamperedJournalRejected(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	// Leave a commit open by crashing after intent: simulate by exporting
	// a prefix of a full run.
	if _, err := e.submit([]config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	trail, _ := exports(t, e)
	prefix := e.Journal().Records()[:1]
	intact, _ := json.Marshal(prefix)
	if _, err := restoreEnforcer(n, trail, intact); err != nil {
		t.Fatalf("intact exports refused: %v", err)
	}
	// Forge the undo: recovery would delete the ACL instead of restoring it.
	prefix[0].Undos[0].ACL = nil
	forged, _ := json.Marshal(prefix)
	if _, err := restoreEnforcer(n, trail, forged); err == nil || !strings.Contains(err.Error(), "commit journal") {
		t.Fatalf("forged journal prefix restored: %v", err)
	}
	// Rewrite a trail entry's detail: the trail's chain refuses it too.
	entries := e.Trail().Links()
	entries[len(entries)-1].Detail += " (edited)"
	doctored, _ := json.Marshal(entries)
	if _, err := restoreEnforcer(n, doctored, intact); err == nil || !strings.Contains(err.Error(), "audit trail") {
		t.Fatalf("doctored trail restored: %v", err)
	}
}

// TestRecoverKeepsTwinDevices: open twins share production's devices, so
// Recover writes only copies it detached itself. A view that still holds
// the crashed production's devices (as a twin opened before the crash does)
// prints exactly as it did, while production lands on the committed state.
func TestRecoverKeepsTwinDevices(t *testing.T) {
	n := prod()
	pre := n.Clone()
	e := newEnforcer(n)
	if _, err := e.submit([]config.Change{benignChange(15, 443), benignChange(16, 8443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	committed := fingerprint(n)
	// Crash after the first push and its applied record.
	records := e.Journal().Records()[:2]
	if err := config.ApplyChanges(pre, records[0].Changes[:1]); err != nil {
		t.Fatal(err)
	}
	twin := pre.CloneCOW()
	held := fingerprint(twin)
	trail, _ := exports(t, e)
	data, _ := json.Marshal(records)
	e2, err := restoreEnforcer(pre, trail, data)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := e2.Recover(); err != nil || rep.Action != "committed" {
		t.Fatalf("Recover = %+v, %v, want committed", rep, err)
	}
	if fingerprint(pre) != committed {
		t.Fatal("recovered production differs from the uninterrupted commit")
	}
	if fingerprint(twin) != held {
		t.Fatal("recovery wrote a device an open twin holds")
	}
}

// TestRecoverRestartQuarantined: an enforcer restarted on a journal that
// holds a commit open refuses new commits until Recover finishes the open
// one; the commit after it takes a fresh commit id, and its Submit lands.
func TestRecoverRestartQuarantined(t *testing.T) {
	n := prod()
	pre := n.Clone()
	e := newEnforcer(n)
	if _, err := e.submit([]config.Change{benignChange(15, 443), benignChange(16, 8443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	records := e.Journal().Records()[:2] // the intent and the first push
	if err := config.ApplyChanges(pre, records[0].Changes[:1]); err != nil {
		t.Fatal(err)
	}
	trail, _ := exports(t, e)
	data, _ := json.Marshal(records)
	e2, err := restoreEnforcer(pre, trail, data)
	if err != nil {
		t.Fatal(err)
	}
	if q, why := e2.Quarantined(); !q || why != "restarted with commit "+records[0].Commit+" open" {
		t.Fatalf("Quarantined() = %v, %q", q, why)
	}
	if _, err := e2.submit([]config.Change{benignChange(17, 8080)}, aclSpec()); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("submit on a restart with an open commit: err = %v", err)
	}
	if intent, _ := e2.Journal().Open(); intent == nil || intent.Commit != records[0].Commit {
		t.Fatal("the refused submit buried the open commit")
	}
	if rep, err := e2.Recover(); err != nil || rep.Action != "committed" {
		t.Fatalf("Recover = %+v, %v, want committed", rep, err)
	}
	if q, _ := e2.Quarantined(); q {
		t.Fatal("Recover left the restart quarantined")
	}
	if _, err := e2.submit([]config.Change{benignChange(17, 8080)}, aclSpec()); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	intent, _ := e2.Journal().Open()
	all := e2.Journal().Records()
	if last := all[len(all)-1]; intent != nil || last.Kind != journal.KindCommitted || last.Commit == records[0].Commit {
		t.Fatalf("the commit after recovery closed as %s %s, reusing %s", last.Kind, last.Commit, records[0].Commit)
	}
}

// TestRecoverRefusesMismatchedUndos: an intent whose undos do not match its
// changes — one short, or one restoring another section — is rolled back
// without writing any device, every production pointer left as it was.
func TestRecoverRefusesMismatchedUndos(t *testing.T) {
	n := prod()
	r1 := n.Devices["r1"]
	changes := []config.Change{
		benignChange(15, 443),
		{Device: "r1", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 901, Name: "shared"}},
	}
	for name, undos := range map[string][]config.Undo{
		"short":         {config.UndoOf(r1, changes[0])},
		"other section": {config.UndoOf(r1, changes[0]), config.UndoOf(r1, changes[0])},
	} {
		e := newEnforcer(n)
		fp, devices := fingerprint(n), maps.Clone(n.Devices)
		e.Journal().Intent("T#1", "T", "op", changes, undos)
		rep, err := e.Recover()
		if err != nil || rep.Action != "rolled-back" {
			t.Fatalf("%s: Recover = %+v, %v, want rolled-back", name, rep, err)
		}
		if !maps.Equal(n.Devices, devices) || fingerprint(n) != fp {
			t.Fatalf("%s: recovery wrote production for an intent it refused", name)
		}
	}
}
