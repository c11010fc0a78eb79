package core

import (
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/ticket"
)

// TestEndToEndWorkflowUniversity runs the full workflow for every
// university issue — the larger, denser network with 175 policies.
func TestEndToEndWorkflowUniversity(t *testing.T) {
	scen := scenarios.University()
	for _, issue := range scen.Issues {
		t.Run(issue.Name, func(t *testing.T) {
			prod := scen.Network.Clone()
			if err := issue.Fault.Inject(prod); err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(Options{
				Network: prod, Policies: scen.Policies,
				Sensitive: scen.Sensitive, PlatformSeed: "uni",
			})
			if err != nil {
				t.Fatal(err)
			}
			tk := sys.Tickets.Create(ticket.Ticket{
				Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
				SrcHost: issue.SrcHost, DstHost: issue.DstHost,
				Proto: issue.Proto, DstPort: issue.DstPort,
				Suspects: []string{issue.Fault.RootCause}, CreatedBy: "netadmin",
			})
			eng, err := sys.StartWork(tk.ID, "casey")
			if err != nil {
				t.Fatal(err)
			}
			// The dense mesh still yields a proper slice, not everything.
			if vis := len(eng.Twin.VisibleDevices()); vis == 0 || vis >= len(prod.Devices) {
				t.Fatalf("slice size = %d of %d", vis, len(prod.Devices))
			}
			if ok, _ := eng.SymptomResolved(); ok {
				t.Fatal("symptom should reproduce in twin")
			}
			if _, err := eng.RunScript(issue.Script); err != nil {
				t.Fatal(err)
			}
			if ok, _ := eng.SymptomResolved(); !ok {
				t.Fatal("script did not resolve the symptom in the twin")
			}
			decision, err := eng.Commit()
			if err != nil || !decision.Accepted {
				t.Fatalf("commit: %v %+v", err, decision)
			}
			if decision.Checked != 175 {
				t.Fatalf("checked %d policies, want 175", decision.Checked)
			}
			tr, err := dataplane.Compute(sys.view()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if err != nil || !tr.Delivered() {
				t.Fatalf("production not fixed: %v %v", tr, err)
			}
			if err := sys.Enforcer.Trail().Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEndToEndWorkflowProvider runs the full workflow for every provider
// (multi-site eBGP) issue.
func TestEndToEndWorkflowProvider(t *testing.T) {
	scen := scenarios.Provider()
	for _, issue := range scen.Issues {
		t.Run(issue.Name, func(t *testing.T) {
			prod := scen.Network.Clone()
			if err := issue.Fault.Inject(prod); err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(Options{
				Network: prod, Policies: scen.Policies,
				Sensitive: scen.Sensitive, PlatformSeed: "prov",
			})
			if err != nil {
				t.Fatal(err)
			}
			tk := sys.Tickets.Create(ticket.Ticket{
				Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
				SrcHost: issue.SrcHost, DstHost: issue.DstHost,
				Proto: issue.Proto, DstPort: issue.DstPort,
				Suspects: []string{issue.Fault.RootCause}, CreatedBy: "netadmin",
			})
			eng, err := sys.StartWork(tk.ID, "sam")
			if err != nil {
				t.Fatal(err)
			}
			// The sensitive billing server stays outside the slice unless
			// the ticket is about it.
			if issue.DstHost != "hB2" && eng.Twin.Visible("hB2") {
				t.Error("billing server visible on an unrelated ticket")
			}
			if _, err := eng.RunScript(issue.Script); err != nil {
				t.Fatal(err)
			}
			if ok, _ := eng.SymptomResolved(); !ok {
				t.Fatal("symptom unresolved in twin")
			}
			if _, err := eng.Commit(); err != nil {
				t.Fatal(err)
			}
			tr, err := dataplane.Compute(sys.view()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if err != nil || !tr.Delivered() {
				t.Fatalf("production not fixed: %v %v", tr, err)
			}
		})
	}
}
