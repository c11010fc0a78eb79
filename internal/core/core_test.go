package core

import (
	"errors"
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// newFaultedSystem injects the given enterprise issue into a fresh
// enterprise network and returns the system plus the issue.
func newFaultedSystem(t *testing.T, issueName string) (*System, scenarios.Issue) {
	t.Helper()
	scen := scenarios.Enterprise()
	var issue scenarios.Issue
	found := false
	for _, is := range scen.Issues {
		if is.Name == issueName {
			issue = is
			found = true
		}
	}
	if !found {
		t.Fatalf("no issue %q", issueName)
	}
	prod := scen.Network.Clone()
	if err := issue.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{
		Network:      prod,
		Policies:     scen.Policies,
		Sensitive:    scen.Sensitive,
		PlatformSeed: "core-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, issue
}

func fileIssue(sys *System, issue scenarios.Issue) *ticket.Ticket {
	return sys.Tickets.Create(ticket.Ticket{
		Summary: issue.Fault.Description,
		Kind:    issue.Fault.Kind,
		SrcHost: issue.SrcHost,
		DstHost: issue.DstHost,
		Proto:   issue.Proto,
		DstPort: issue.DstPort,
		// The admin suspects the devices near the symptom; naming the
		// root-cause device mirrors tickets created by monitoring alarms.
		Suspects:  []string{issue.Fault.RootCause},
		CreatedBy: "netadmin",
	})
}

// TestEndToEndWorkflow runs the complete paper workflow for every
// enterprise issue: file ticket -> start work -> reproduce symptom in twin
// -> run prepared script -> symptom gone -> commit -> production fixed,
// ticket resolved, audit trail intact.
func TestEndToEndWorkflow(t *testing.T) {
	for _, name := range []string{"vlan", "ospf", "isp"} {
		t.Run(name, func(t *testing.T) {
			sys, issue := newFaultedSystem(t, name)
			tk := fileIssue(sys, issue)

			eng, err := sys.StartWork(tk.ID, "alice")
			if err != nil {
				t.Fatal(err)
			}
			// The symptom reproduces inside the twin.
			if ok, err := eng.SymptomResolved(); err != nil || ok {
				t.Fatalf("symptom should reproduce in twin: ok=%v err=%v", ok, err)
			}
			// The prepared script runs under mediation.
			if _, err := eng.RunScript(issue.Script); err != nil {
				t.Fatalf("script: %v", err)
			}
			if ok, _ := eng.SymptomResolved(); !ok {
				t.Fatal("symptom should be resolved in twin after script")
			}
			// Production is still broken until commit.
			tr, err := dataplane.Compute(sys.Production()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if err != nil || tr.Delivered() {
				t.Fatalf("production fixed before commit: %v %v", tr, err)
			}
			decision, err := eng.Commit()
			if err != nil {
				t.Fatalf("commit: %v (decision %+v)", err, decision)
			}
			if !decision.Accepted {
				t.Fatalf("decision = %+v", decision)
			}
			// Production now delivers the flow.
			tr, err = dataplane.Compute(sys.Production()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if err != nil || !tr.Delivered() {
				t.Fatalf("production not fixed: %v %v", tr, err)
			}
			// Ticket is resolved.
			if got := sys.Tickets.Get(tk.ID); got.Status != ticket.Resolved {
				t.Fatalf("ticket status = %v", got.Status)
			}
			// Audit trail verifies and shows the workflow.
			trail := sys.Enforcer.Trail()
			if err := trail.Verify(); err != nil {
				t.Fatal(err)
			}
			var kinds = map[audit.Kind]int{}
			for _, e := range trail.Entries() {
				kinds[e.Kind]++
			}
			for _, want := range []audit.Kind{audit.KindSession, audit.KindCommand,
				audit.KindDecision, audit.KindVerify, audit.KindChange} {
				if kinds[want] == 0 {
					t.Errorf("audit trail missing kind %s", want)
				}
			}
		})
	}
}

// TestMaliciousChangeRejected reproduces the paper's §4.3 attack: the
// technician fixes the issue but also opens a path to the sensitive host.
// The enforcer must reject the whole change set.
func TestMaliciousChangeRejected(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	// Give the malicious technician broader privileges than the template
	// would (an over-permissive admin): they may edit ACLs on r2, too.
	eng, err := sys.StartWork(tk.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	eng.Spec.Rules = append(eng.Spec.Rules,
		privilege.Rule{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r2"},
		privilege.Rule{Effect: privilege.AllowEffect, Action: "show.*", Resource: "device:r2"})
	eng.Slice["r2"] = true

	// Legitimate fix...
	if _, err := eng.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	// ...plus a malicious permit that lets h1 reach the finance server.
	r2, err := eng.Console("r2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Exec("access-list FINANCE-GUARD 15 permit ip any 10.9.0.0 0.0.0.255"); err != nil {
		t.Fatalf("the spec allows the command itself: %v", err)
	}

	// The enforcer catches the policy violation at commit time.
	decision, err := eng.Commit()
	if err == nil || decision.Accepted {
		t.Fatalf("malicious commit accepted: %+v", decision)
	}
	if len(decision.Violations) == 0 {
		t.Fatal("no violations reported")
	}
	// Production keeps its guard and stays broken (nothing applied).
	guard := sys.Production().Device("r2").ACLs["FINANCE-GUARD"]
	for _, e := range guard.Entries {
		if e.Seq == 15 {
			t.Fatal("malicious entry reached production")
		}
	}
	if got := sys.Tickets.Get(tk.ID); got.Status != ticket.Rejected {
		t.Fatalf("ticket status = %v, want rejected", got.Status)
	}
}

// TestUnauthorizedCommandBlockedInTwin checks the reference monitor blocks
// out-of-scope commands during the session (not just at commit).
func TestUnauthorizedCommandBlockedInTwin(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// The ISP-template grants route/interface writes, not ACL writes.
	sess, err := eng.Console(issue.Fault.RootCause)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Exec("access-list FINANCE-GUARD 15 permit ip any any")
	var denied *twin.ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("expected ErrDenied, got %v", err)
	}
	// Sensitive host consoles are unreachable even though h9's router may
	// be in the slice.
	if _, err := eng.Console("h9"); err == nil {
		t.Fatal("console on sensitive host should fail (outside slice)")
	}
}

func TestEscalationWorkflow(t *testing.T) {
	sys, issue := newFaultedSystem(t, "ospf")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	rule := privilege.Rule{Effect: privilege.AllowEffect, Action: "config.acl.*",
		Resource: "device:" + issue.Fault.RootCause}
	if eng.Spec.Allows("config.acl.add", "device:"+issue.Fault.RootCause) {
		t.Fatal("ACL writes should not be pre-granted on an OSPF ticket")
	}
	// The engagement memoizes its rules digest; the approval appends a rule,
	// so the review key moves with it and the refusal is not replayed.
	acl := []config.Change{{Device: issue.Fault.RootCause, Op: config.OpAddACLEntry, ACLName: "ESCALATED",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP, DstPort: 8443}}}
	before := eng.ReviewKey(acl)
	if d, _, err := eng.ReviewChanges(acl); err != nil || len(d.Unauthorized) != 1 {
		t.Fatalf("review before the escalation: %+v, %v", d, err)
	}
	esc := eng.RequestEscalation(rule, "suspect the firewall as well")
	if err := eng.ApproveEscalation(esc); err != nil {
		t.Fatal(err)
	}
	if !eng.Spec.Allows("config.acl.add", "device:"+issue.Fault.RootCause) {
		t.Fatal("approved escalation should widen privileges")
	}
	after := eng.ReviewKey(acl)
	if after == before || after != sys.Enforcer.ReviewKey(acl, eng.Spec.RulesDigest()) {
		t.Fatalf("review key after the approval = %s (before: %s), want the key of the widened rules", after, before)
	}
	if d, hit, err := eng.ReviewChanges(acl); err != nil || hit || len(d.Unauthorized) != 0 {
		t.Fatalf("review after the escalation: hit=%v %+v, %v", hit, d, err)
	}
	// Escalations appear on the audit trail.
	found := 0
	for _, e := range sys.Enforcer.Trail().Entries() {
		if e.Kind == audit.KindEscalation {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("escalation audit entries = %d, want 2 (request+approve)", found)
	}
}

func TestAttestation(t *testing.T) {
	sys, _ := newFaultedSystem(t, "isp")
	report, err := sys.Attest([]byte("customer-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Measurement == "" {
		t.Fatal("empty measurement")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Fatal("nil network accepted")
	}
	bad := netmodel.NewNetwork("bad")
	bad.Links = append(bad.Links, &netmodel.Link{A: netmodel.Endpoint{Device: "ghost"}})
	if _, err := NewSystem(Options{Network: bad}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestMinedPoliciesDefault(t *testing.T) {
	scen := scenarios.Enterprise()
	sys, err := NewSystem(Options{
		Network:      scen.Network.Clone(),
		Sensitive:    scen.Sensitive,
		PlatformSeed: "mine",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Policies()) == 0 {
		t.Fatal("no policies mined")
	}
	if !strings.HasPrefix(sys.Policies()[0].ID, "P") {
		t.Fatalf("policy IDs = %v", sys.Policies()[0].ID)
	}
}

func TestStartWorkErrors(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	if _, err := sys.StartWork("T-9999", "alice"); err == nil {
		t.Fatal("unknown ticket accepted")
	}
	tk := fileIssue(sys, issue)
	if _, err := sys.StartWork(tk.ID, "alice"); err != nil {
		t.Fatal(err)
	}
	// Starting again fails (already in progress).
	if _, err := sys.StartWork(tk.ID, "bob"); err == nil {
		t.Fatal("double assignment accepted")
	}
}

func TestCommitWithoutChanges(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(); err == nil {
		t.Fatal("empty commit accepted")
	}
}

func TestVerifyCheckCount(t *testing.T) {
	// Sanity link between core and verify: the enterprise policy count
	// drives the Figure 7 verify-step cost.
	scen := scenarios.Enterprise()
	if len(scen.Policies) != 21 {
		t.Fatalf("policies = %d", len(scen.Policies))
	}
	res := verify.Check(scen.Snapshot(), scen.Policies)
	if res.Checked != 21 || !res.OK() {
		t.Fatalf("baseline check = %+v", res)
	}
}

// TestWorkflowTelemetry wires a metrics registry through Options.Meter and
// checks that one end-to-end workflow lights up every layer of the
// mediation path: reference monitor, enforcer, verifier and audit trail.
func TestWorkflowTelemetry(t *testing.T) {
	scen := scenarios.Enterprise()
	issueName := "vlan"
	var issue scenarios.Issue
	for _, is := range scen.Issues {
		if is.Name == issueName {
			issue = is
		}
	}
	prod := scen.Network.Clone()
	if err := issue.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Options{
		Network:      prod,
		Policies:     scen.Policies,
		Sensitive:    scen.Sensitive,
		PlatformSeed: "core-test",
		Meter:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Meter() != telemetry.Meter(reg) {
		t.Fatal("System.Meter() should return the configured meter")
	}
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reference monitor: every script command was mediated and allowed.
	if got := reg.CounterValue("heimdall_monitor_commands_total"); got != float64(len(issue.Script)) {
		t.Errorf("commands_total = %v, want %d", got, len(issue.Script))
	}
	if got := reg.HistogramCount("heimdall_monitor_mediation_seconds"); got != uint64(len(issue.Script)) {
		t.Errorf("mediation_seconds count = %v, want %d", got, len(issue.Script))
	}
	// Enforcer: one accepted review and commit, changes applied, no
	// rollback.
	if got := reg.CounterValue("heimdall_enforcer_reviews_total", telemetry.L("accepted", "true")); got != 1 {
		t.Errorf("accepted reviews = %v, want 1", got)
	}
	if got := reg.CounterValue("heimdall_enforcer_commits_total", telemetry.L("accepted", "true")); got != 1 {
		t.Errorf("accepted commits = %v, want 1", got)
	}
	if got := reg.CounterValue("heimdall_enforcer_changes_applied_total"); got == 0 {
		t.Error("changes_applied_total = 0, want > 0")
	}
	if got := reg.CounterValue("heimdall_enforcer_rollbacks_total"); got != 0 {
		t.Errorf("rollbacks_total = %v, want 0", got)
	}
	// Verifier: the review check plus the post-apply check.
	if got := reg.CounterValue("heimdall_verify_runs_total"); got != 2 {
		t.Errorf("verify_runs_total = %v, want 2", got)
	}
	if got := reg.CounterValue("heimdall_verify_policies_checked_total"); got == 0 {
		t.Error("policies_checked_total = 0, want > 0")
	}
	if got := reg.CounterValue("heimdall_verify_counterexamples_total"); got != 0 {
		t.Errorf("counterexamples_total = %v, want 0", got)
	}
	// Audit: the chain-length gauge tracks the trail.
	if got := reg.GaugeValue("heimdall_audit_chain_length"); got != float64(sys.Enforcer.Trail().Len()) {
		t.Errorf("audit_chain_length = %v, want %d", got, sys.Enforcer.Trail().Len())
	}
	if got := reg.CounterValue("heimdall_audit_entries_total", telemetry.L("kind", "command")); got == 0 {
		t.Error("audit command entries = 0, want > 0")
	}
	// The dump is a valid Prometheus exposition with the headline series.
	dump := reg.Dump()
	for _, want := range []string{
		"# TYPE heimdall_monitor_commands_total counter",
		"# TYPE heimdall_monitor_mediation_seconds histogram",
		"heimdall_audit_chain_length",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
}
