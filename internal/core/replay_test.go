package core

import (
	"reflect"
	"strings"
	"testing"

	"heimdall/internal/audit"
)

// TestReplayReproducesSession runs a workflow (including one denied
// command), then replays it from the trail onto a fresh copy of the
// incident-time baseline and checks the replay reproduces exactly the
// committed change set.
func TestReplayReproducesSession(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	// Keep the incident-time baseline for the auditor.
	baseline := sys.Production().Clone()

	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	// One denied probe for the record.
	if sess, err := eng.Console(issue.Fault.RootCause); err == nil {
		_, _ = sess.Exec("access-list X 10 permit ip any any")
	}
	originalChanges := eng.Twin.Changes()
	if _, err := eng.Commit(); err != nil {
		t.Fatal(err)
	}

	replay, err := ReplayTicket(sys.Enforcer.Trail(), tk.ID, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Commands) != len(issue.Script)+1 {
		t.Fatalf("replayed %d commands, want %d", len(replay.Commands), len(issue.Script)+1)
	}
	// The denied command is recorded but not re-executed.
	last := replay.Commands[len(replay.Commands)-1]
	if last.AllowedThen || last.Output != "" || !strings.HasPrefix(last.Line, "access-list X") {
		t.Fatalf("denied command replay = %+v", last)
	}
	// The replayed semantic diff matches what was committed.
	if !reflect.DeepEqual(replay.Changes, originalChanges) {
		t.Fatalf("replay changes differ:\n got %v\nwant %v", replay.Changes, originalChanges)
	}
}

func TestReplayRejectsTamperedTrail(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	baseline := sys.Production().Clone()
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	// Build a forged trail (different key) with the same-shaped entries.
	forged := audit.NewTrail([]byte("attacker-key"))
	for _, e := range sys.Enforcer.Trail().Entries() {
		forged.Append(e.Ticket, e.Technician, e.Kind, e.Detail, e.Allowed)
	}
	// The forged trail verifies under its own key, so replay works there —
	// the protection is that an attacker cannot forge under the REAL key.
	// Tamper with the real trail's export instead:
	export, _ := sys.Enforcer.Trail().Export()
	doctored := strings.Replace(string(export), issue.Script[0].Line, "rm -rf /", 1)
	tampered, err := audit.Import(sys.Enforcer.TrailKey(), []byte(doctored))
	if err == nil {
		if _, err := ReplayTicket(tampered, tk.ID, baseline); err == nil {
			t.Fatal("tampered trail replayed")
		}
	}
	// Import itself must already have rejected it.
	if err == nil {
		t.Fatal("tampered export imported")
	}
}

// TestReplayRejectsFieldShiftedTrail: replay trusts what a verified trail
// says each field is, so the chain's content rule has to say where each
// field ends. Here the `|` rides in the technician name, which the MSP
// supplies when it starts work (any technician-typed line can carry one
// too — see audit.TestImportRejectsFieldShift): under a pipe-joined rule,
// moving the name's tail into detail keeps every hash, and the shifted
// details no longer parse as commands — the replay comes back empty.
// Import must refuse the export, so ReplayTicket never gets that far.
func TestReplayRejectsFieldShiftedTrail(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	baseline := sys.Production().Clone()
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice|command")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	export, err := sys.Enforcer.Trail().Export()
	if err != nil {
		t.Fatal(err)
	}
	const fields = "\"technician\": \"alice|command\",\n    \"kind\": \"command\",\n    \"detail\": \""
	const shifted = "\"technician\": \"alice\",\n    \"kind\": \"command\",\n    \"detail\": \"command|"
	if n := strings.Count(string(export), fields); n != len(issue.Script) {
		t.Fatalf("export format changed: %d command entries found, want %d", n, len(issue.Script))
	}
	forged := strings.ReplaceAll(string(export), fields, shifted)
	trail, err := audit.Import(sys.Enforcer.TrailKey(), []byte(forged))
	if err == nil {
		replay, err := ReplayTicket(trail, tk.ID, baseline)
		if err != nil {
			t.Fatalf("field-shifted export imported; replay: %v", err)
		}
		t.Fatalf("field-shifted export imported; its replay shows %d of %d commands",
			len(replay.Commands), len(issue.Script))
	}
}

func TestReplaySkipsEmergencyAndParseErrors(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	baseline := sys.Production().Clone()
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// A parse error and an emergency command both land on the trail but
	// must not be replayed against the twin.
	if sess, err := eng.Console(issue.Fault.RootCause); err == nil {
		_, _ = sess.Exec("garbage command")
	}
	eng.EnableEmergency("netadmin")
	if es, err := eng.EmergencyConsole(issue.Fault.RootCause); err == nil {
		if _, err := es.Exec("show ip route"); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := ReplayTicket(sys.Enforcer.Trail(), tk.ID, baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range replay.Commands {
		if rc.Line == "garbage command" || strings.HasPrefix(rc.Line, "EMERGENCY") {
			t.Fatalf("should not replay %+v", rc)
		}
	}
	if len(replay.Changes) != 0 {
		t.Fatalf("no twin writes happened, but replay changes = %v", replay.Changes)
	}
}
