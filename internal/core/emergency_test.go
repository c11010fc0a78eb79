package core

import (
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/dataplane"
	"heimdall/internal/privilege"
)

func TestEmergencyModeRequiresAuthorization(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EmergencyConsole(issue.Fault.RootCause); err == nil {
		t.Fatal("emergency console without authorization")
	}
	eng.EnableEmergency("netadmin")
	if _, err := eng.EmergencyConsole(issue.Fault.RootCause); err != nil {
		t.Fatal(err)
	}
	// Devices outside the slice stay invisible even in emergencies.
	if _, err := eng.EmergencyConsole("h9"); err == nil {
		t.Fatal("emergency console outside slice")
	}
}

func TestEmergencyFixAppliesDirectlyToProduction(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")

	sess, err := eng.EmergencyConsole("r3")
	if err != nil {
		t.Fatal(err)
	}
	// Reads execute against live production state.
	out, err := sess.Exec("show ip route")
	if err != nil || !strings.Contains(out, "directly connected") {
		t.Fatalf("show = %q err %v", out, err)
	}
	// The real fix, straight to production.
	for _, cmd := range issue.Fault.Fix {
		if _, err := sess.Exec(cmd.Line); err != nil {
			t.Fatalf("%s: %v", cmd.Line, err)
		}
	}
	tr, err := dataplane.Compute(sys.view()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if err != nil || !tr.Delivered() {
		t.Fatalf("production not fixed: %v %v", tr, err)
	}

	// The trail carries EMERGENCY markers for the whole episode.
	markers := 0
	for _, e := range sys.Enforcer.Trail().Links() {
		if strings.Contains(e.Detail, "EMERGENCY") {
			markers++
		}
	}
	if markers < 5 {
		t.Fatalf("EMERGENCY audit markers = %d", markers)
	}
	if err := sys.Enforcer.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEmergencyPrivilegesStillEnforced(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")
	sess, err := eng.EmergencyConsole("r3")
	if err != nil {
		t.Fatal(err)
	}
	// An ISP ticket's spec grants no ACL writes — not even in emergencies.
	if _, err := sess.Exec("access-list EVIL 10 permit ip any any"); err == nil {
		t.Fatal("unprivileged emergency write accepted")
	}
	// Parse errors are audited and rejected.
	if _, err := sess.Exec("frobnicate"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmergencyShadowVerificationBlocksViolations(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	// Over-broad grant again: ACL writes on r2 (finance guard).
	eng.Spec.Rules = append(eng.Spec.Rules,
		privilegeRule("config.acl.*", "device:r2"),
		privilegeRule("show.*", "device:r2"))
	eng.Slice["r2"] = true
	eng.EnableEmergency("netadmin")

	sess, err := eng.EmergencyConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	// The command is privileged, but shadow verification catches the
	// policy violation before production changes.
	_, err = sess.Exec("access-list FINANCE-GUARD 15 permit ip any 10.9.0.0 0.0.0.255")
	if err == nil || !strings.Contains(err.Error(), "violate") {
		t.Fatalf("violating emergency write: err = %v", err)
	}
	for _, e := range sys.view().Devices["r2"].ACLs["FINANCE-GUARD"].Entries {
		if e.Seq == 15 {
			t.Fatal("violating entry reached production")
		}
	}
	// A refusal entry is on the trail.
	found := false
	for _, e := range sys.Enforcer.Trail().Links() {
		if e.Kind == audit.KindVerify && strings.Contains(e.Detail, "EMERGENCY write refused") {
			found = true
		}
	}
	if !found {
		t.Fatal("refusal not audited")
	}
}

func TestEmergencyRepairNotBlockedByExistingOutage(t *testing.T) {
	// The incident itself violates reachability policies; the shadow
	// verifier must scope them out so the repair is not deadlocked.
	sys, issue := newFaultedSystem(t, "ospf")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")
	sess, err := eng.EmergencyConsole("r7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("router ospf no passive-interface Gi0/0"); err != nil {
		t.Fatalf("repair blocked: %v", err)
	}
	tr, _ := dataplane.Compute(sys.view()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if !tr.Delivered() {
		t.Fatalf("production not repaired: %s", tr)
	}
}

func privilegeRule(action, resource string) privilege.Rule {
	return privilege.Rule{Effect: privilege.AllowEffect, Action: action, Resource: resource}
}
