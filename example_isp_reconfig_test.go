package heimdall_test

import (
	"fmt"

	"heimdall"
)

// Example_ispReconfig reproduces the paper's ISP reconfiguration issue
// (a bad static route breaks external connectivity) — and then replays the
// paper's §4.3 threat: a technician whose legitimate fix hides a malicious
// rule opening a path to the sensitive finance server. The policy enforcer
// accepts the honest commit and rejects the malicious one, leaving
// production untouched.
func Example_ispReconfig() {
	fmt.Println("=== Run 1: honest technician ===")
	ispHonest()
	fmt.Println()
	fmt.Println("=== Run 2: malicious technician ===")
	ispMalicious()

	// Output:
	// === Run 1: honest technician ===
	// honest fix: accepted, 21 policies checked; ticket -> resolved
	//
	// === Run 2: malicious technician ===
	// mallory slipped a permit-to-finance entry into FINANCE-GUARD on r2
	// enforcer rejected the commit: enforcer: change set rejected: 2 policy violations
	//   violation: P020: isolated(h1 -> h9, tcp/80)
	//   violation: P021: isolated(h4 -> h9, icmp)
	// production unchanged; ticket -> rejected
}

// ispTicket injects the enterprise ISP fault and files its ticket.
func ispTicket() (*heimdall.System, heimdall.Scenario, *heimdall.Ticket) {
	scen := heimdall.EnterpriseScenario()
	issue := scen.Issues[2] // isp
	must(issue.Fault.Inject(scen.Network))
	sys, err := heimdall.NewSystem(heimdall.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
	})
	must(err)
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: issue.Fault.Description,
		Kind:    heimdall.TaskISP,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects:  []string{"r3", "r5"},
		CreatedBy: "netadmin",
	})
	return sys, *scen, tk
}

func ispHonest() {
	sys, scen, tk := ispTicket()
	eng, err := sys.StartWork(tk.ID, "alice")
	must(err)
	_, err = eng.RunScript(scen.Issues[2].Script)
	must(err)
	decision, err := eng.Commit()
	must(err)
	fmt.Printf("honest fix: %s, %d policies checked; ticket -> %s\n",
		decision.Reason(), decision.Checked, sys.Tickets.Get(tk.ID).Status)
}

func ispMalicious() {
	sys, scen, tk := ispTicket()
	eng, err := sys.StartWork(tk.ID, "mallory")
	must(err)
	// An over-broad grant from a careless admin: ACL changes on the core
	// router r2 (which guards the finance server), well beyond what an
	// ISP-reconfiguration ticket needs.
	eng.Spec.Rules = append(eng.Spec.Rules,
		heimdall.PrivilegeRule{Effect: heimdall.Allow, Action: "config.acl.*", Resource: "device:r2"},
		heimdall.PrivilegeRule{Effect: heimdall.Allow, Action: "show.*", Resource: "device:r2"},
	)
	eng.Slice["r2"] = true

	// The legitimate fix...
	_, err = eng.RunScript(scen.Issues[2].Script)
	must(err)
	// ...plus a stealthy permit that opens every host's path to the
	// finance server — the paper's Figure 6 scenario. The command itself
	// looks exactly like the legitimate ACL edits of a normal fix.
	r2, err := eng.Console("r2")
	must(err)
	_, err = r2.Exec("access-list FINANCE-GUARD 15 permit ip any 10.9.0.0 0.0.0.255")
	must(err)
	fmt.Println("mallory slipped a permit-to-finance entry into FINANCE-GUARD on r2")

	decision, err := eng.Commit()
	if err == nil {
		panic("BUG: malicious commit was accepted")
	}
	fmt.Printf("enforcer rejected the commit: %v\n", err)
	for _, v := range decision.Violations {
		fmt.Printf("  violation: %s\n", v.Policy)
	}
	// Production is untouched: the honest part of the fix was withheld
	// too (all-or-nothing change sets).
	prod, _ := sys.Enforcer.View(false)
	for _, e := range prod.Devices["r2"].ACLs["FINANCE-GUARD"].Entries {
		if e.Seq == 15 {
			panic("BUG: malicious entry reached production")
		}
	}
	fmt.Printf("production unchanged; ticket -> %s\n", sys.Tickets.Get(tk.ID).Status)
}
