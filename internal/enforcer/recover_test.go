package enforcer

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/enclave"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
)

// crashSpec authorizes everything: crash recovery is about push
// resilience, not privilege.
func crashSpec() *privilege.Spec {
	return &privilege.Spec{Ticket: "CRASH", Technician: "op",
		Rules: []privilege.Rule{{Effect: privilege.AllowEffect, Action: "*", Resource: "*"}}}
}

// neutralChanges builds a small committing change set for any scenario
// network: inert VLAN definitions plus a no-op ACL permit inserted between
// an existing deny and the trailing permit-all, so every policy keeps its
// verdict and post-verify passes.
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

// newCrashEnforcer builds an enforcer on a fixed platform seed so a
// "rebooted" instance derives the same journal and trail keys.
func newCrashEnforcer(scen *scenarios.Scenario) *Enforcer {
	platform := enclave.NewPlatformFromSeed("crash-test")
	encl := platform.Load("heimdall-enforcer-v1")
	return New(encl, scen.Policies)
}

// TestRecoverEveryCrashPoint runs a clean commit on each seed scenario,
// then simulates a crash after every journal record boundary: production
// is reconstructed to exactly what the pipeline had pushed at that point,
// a fresh enforcer imports the surviving journal prefix, and Recover must
// land on the same final production state as the uninterrupted run. The
// emergency cases first inject a fault that breaks policies, so a strict
// commit of the same set is refused and the emergency commit lands only
// because its intent tolerates them: Recover must replay it to that rule.
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
		commit := (*Enforcer).Commit
		e := newCrashEnforcer(scen)
		changes := neutralChanges(t, scen.Network)
		if tc.fault != "" {
			name += "/emergency " + tc.fault
			for _, is := range scen.Issues {
				if is.Name == tc.fault {
					if err := is.Fault.Inject(scen.Network); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := e.Commit(scen.Network, changes, crashSpec()); err == nil {
				t.Fatalf("%s: a strict commit over the fault's violations was accepted", name)
			}
			commit = (*Enforcer).CommitEmergency
		}
		pre := scen.Network.Clone()

		// Uninterrupted run.
		if _, err := commit(e, scen.Network, changes, crashSpec()); err != nil {
			t.Fatalf("%s: uninterrupted commit failed: %v", name, err)
		}
		finalFP := fingerprint(scen.Network)
		full := e.Journal().Records()
		ordered := full[0].Changes // the scheduled set the journal replays
		if tolerated := strings.Fields(strings.TrimPrefix(full[0].Detail, tolerates)); (tc.fault != "") != (len(tolerated) > 0) {
			t.Fatalf("%s: intent detail %q", name, full[0].Detail)
		}

		for k := 1; k <= len(full); k++ {
			prefix := full[:k]
			// Reconstruct production as the crash left it: pre-state plus
			// every change the journal prefix records as applied.
			state := pre.Clone()
			committedSeen := false
			for _, r := range prefix {
				switch r.Kind {
				case journal.KindApplied:
					if err := config.ApplyChange(state.Devices[ordered[r.ChangeIndex].Device], ordered[r.ChangeIndex]); err != nil {
						t.Fatalf("%s: replaying applied record: %v", name, err)
					}
				case journal.KindCommitted:
					committedSeen = true
				}
			}

			// Reboot: a fresh enforcer imports the authenticated prefix.
			e2 := newCrashEnforcer(scen)
			data, err := json.Marshal(prefix)
			if err != nil {
				t.Fatal(err)
			}
			j, err := journal.Import(e2.JournalKey(), data)
			if err != nil {
				t.Fatalf("%s: crash point %d: journal rejected: %v", name, k, err)
			}
			e2.SetJournal(j)
			rep, err := e2.Recover(state)
			if err != nil {
				t.Fatalf("%s: crash point %d: recover: %v", name, k, err)
			}
			wantAction := "committed"
			if committedSeen {
				wantAction = "none"
			}
			if rep.Action != wantAction {
				t.Fatalf("%s: crash point %d: action = %s, want %s", name, k, rep.Action, wantAction)
			}
			if got := fingerprint(state); got != finalFP {
				t.Fatalf("%s: crash point %d: recovered state differs from uninterrupted run", name, k)
			}
			// The journal is settled and verifiable; recovery is idempotent.
			if err := e2.Journal().Verify(); err != nil {
				t.Fatalf("%s: crash point %d: %v", name, k, err)
			}
			if intent, _ := e2.Journal().Open(); intent != nil {
				t.Fatalf("%s: crash point %d: commit still open after recovery", name, k)
			}
			again, err := e2.Recover(state)
			if err != nil || again.Action != "none" {
				t.Fatalf("%s: crash point %d: second recover = %+v, %v", name, k, again, err)
			}
		}
	}
}

// TestRecoverNothingOpen: a journal with only settled commits is a no-op.
func TestRecoverNothingOpen(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	if _, err := e.Commit(n, []config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	fp := fingerprint(n)
	rep, err := e.Recover(n)
	if err != nil || rep.Action != "none" {
		t.Fatalf("Recover = %+v, %v, want none", rep, err)
	}
	if fingerprint(n) != fp {
		t.Fatal("no-op recovery mutated production")
	}
}

// TestRecoverTamperedJournalRejected: recovery must never trust a forged
// journal — Import authenticates before Recover sees it.
func TestRecoverTamperedJournalRejected(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	// Leave a commit open by crashing after intent: simulate by exporting
	// a prefix of a full run.
	if _, err := e.Commit(n, []config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatal(err)
	}
	full := e.Journal().Records()
	prefix := full[:1]
	// Forge the pre-state to point recovery at a different config.
	prefix[0].PreState = map[string]string{"r1": "! kind: router\nhostname r1\n"}
	data, _ := json.Marshal(prefix)
	if _, err := journal.Import(e.JournalKey(), data); err == nil {
		t.Fatal("forged journal prefix imported")
	}
}

// TestRecoverWritesOnlyParsedDevices: Recover writes production only on
// the devices it has just parsed from the intent's pre-state; any other may
// be shared with an open twin. An intent that names a change on a device
// without a pre-state rolls back, and that device is left as it was, the
// same pointer.
func TestRecoverWritesOnlyParsedDevices(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	r1, h2 := config.Print(n.Devices["r1"]), n.Devices["h2"]
	h2Was := config.Print(h2)
	e.Journal().Intent("T#1", "T", "op", []config.Change{
		benignChange(15, 443),
		{Device: "h2", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 901, Name: "shared"}},
	}, map[string]string{"r1": r1})
	rep, err := e.Recover(n)
	if err != nil || rep.Action != "rolled-back" {
		t.Fatalf("Recover = %+v, %v, want rolled-back", rep, err)
	}
	if n.Devices["h2"] != h2 || config.Print(h2) != h2Was {
		t.Fatal("recovery wrote a device it had not parsed from the pre-state")
	}
	if config.Print(n.Devices["r1"]) != r1 {
		t.Fatal("r1 not back at its pre-state")
	}
}
