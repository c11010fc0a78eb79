package core

import (
	"strings"
	"testing"

	"heimdall/internal/authz"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/verify"
)

// TestEmergencyWriteJournaled: an emergency write is a commit. Every
// accepted one leaves an intent → applied → committed triple on the
// verifying journal, its intent naming the policies production already
// violated; a write refused by privilege, by a new violation or by a
// failed shadow apply leaves no record and production untouched, and so
// do a high-risk one under multi-party authorization (Enforcer.Auth) and
// one a quarantined enforcer refuses.
func TestEmergencyWriteJournaled(t *testing.T) {
	sys, issue := newFaultedSystem(t, "vlan")
	eng, err := sys.StartWork(fileIssue(sys, issue).ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// ACL rights on r2, whose FINANCE-GUARD a permit would break.
	eng.Spec.Rules = append(eng.Spec.Rules, privilegeRule("config.acl.*", "device:r2"))
	eng.Slice["r2"] = true
	eng.EnableEmergency("netadmin")
	jr := sys.Enforcer.Journal()

	// exec runs one line on dev and returns the journal records it added.
	exec := func(dev, line string, wantErr string) []journal.Record {
		t.Helper()
		sess, err := eng.EmergencyConsole(dev)
		if err != nil {
			t.Fatal(err)
		}
		before, prod := jr.Len(), sys.view().Clone()
		_, err = sess.Exec(line)
		if (err == nil) != (wantErr == "") || err != nil && !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s on %s: err = %v, want %q", line, dev, err, wantErr)
		}
		if err := jr.Verify(); err != nil {
			t.Fatal(err)
		}
		if wantErr != "" {
			if jr.Len() != before {
				t.Fatalf("%s on %s: refused, but the journal grew by %d records", line, dev, jr.Len()-before)
			}
			if diff := config.DiffNetwork(prod, sys.view()); len(diff) > 0 {
				t.Fatalf("%s on %s: refused, but production changed: %v", line, dev, diff)
			}
		}
		return jr.Records()[before:]
	}

	exec("sw2", "access-list EVIL 10 permit ip any any", "permission denied")
	exec("r2", "access-list FINANCE-GUARD 15 permit ip any 10.9.0.0 0.0.0.255", "would violate")
	exec("r2", "no access-list FINANCE-GUARD 99", "shadow apply failed")

	var tolerated []string
	for _, v := range verify.Check(dataplane.Compute(sys.view()), sys.Policies()).Violations {
		tolerated = append(tolerated, v.Policy.ID)
	}
	if len(tolerated) == 0 {
		t.Fatal("the vlan fault violates no policy: nothing is tolerated")
	}
	recs := exec("sw2", "interface Gi1/0/1 switchport access vlan 20", "")
	if len(recs) != 3 || recs[0].Kind != journal.KindIntent || recs[1].Kind != journal.KindApplied || recs[2].Kind != journal.KindCommitted {
		t.Fatalf("accepted write journaled %+v, want intent, applied, committed", recs)
	}
	if want := "emergency: tolerates " + strings.Join(tolerated, " "); recs[0].Detail != want {
		t.Fatalf("intent detail = %q, want %q", recs[0].Detail, want)
	}
	for _, r := range recs {
		if r.Commit != recs[0].Commit || r.Ticket != "" && r.Ticket != eng.Ticket.ID {
			t.Fatalf("record %+v is not the commit of %s", r, eng.Ticket.ID)
		}
	}

	// Multi-party authorization gates an emergency write as it gates any
	// commit, and an emergency console carries no approvals: under an Auth
	// policy a high-risk write is refused unjournaled, a low-risk one still
	// commits, and the refused write commits once the policy is lifted.
	guard := "access-list FINANCE-GUARD 25 deny ip any 10.99.0.0 0.0.0.255"
	sys.Enforcer.Auth = authz.NewPolicy(1, false)
	exec("r2", guard, "high-risk change set refused")
	if recs := exec("sw2", "vlan 952 name spare", ""); len(recs) != 3 {
		t.Fatalf("low-risk write under Auth journaled %d records, want 3", len(recs))
	}
	sys.Enforcer.Auth = nil
	if recs := exec("r2", guard, ""); len(recs) != 3 {
		t.Fatalf("high-risk write without Auth journaled %d records, want 3", len(recs))
	}

	// A push whose rollback fails quarantines the enforcer; the next
	// emergency write is refused before anything is journaled.
	sys.Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Op: "apply", FailNth: 1, Class: faultinject.Permanent},
		{Op: "restore", Outage: true, Class: faultinject.Permanent},
	}}))
	sess, err := eng.EmergencyConsole("sw2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("vlan 950 name spare"); err == nil {
		t.Fatal("a write whose push failed was accepted")
	}
	if q, _ := sys.Enforcer.Quarantined(); !q {
		t.Fatal("the failed rollback did not quarantine the enforcer")
	}
	sys.Enforcer.SetInjector(nil)
	exec("sw2", "vlan 951 name spare", "quarantined")
}
