package heimdall_test

import (
	"fmt"
	"strings"

	"heimdall"
)

// Example_ospfTroubleshoot reproduces the paper's OSPF issue ("I can't
// ping the other router using OSPF") on the enterprise network: a
// passive-interface statement silently kills an adjacency and strands a
// branch. It also demonstrates safe privilege escalation: the technician
// first suspects an ACL, requests ACL privileges, and the admin approves.
func Example_ospfTroubleshoot() {
	scen := heimdall.EnterpriseScenario()
	issue := scen.Issues[1] // ospf
	prod := scen.Network
	must(issue.Fault.Inject(prod))
	fmt.Printf("injected fault: %s\n", issue.Fault.Description)

	sys, err := heimdall.NewSystem(heimdall.Options{
		Network: prod, Policies: scen.Policies, Sensitive: scen.Sensitive,
	})
	must(err)
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: fmt.Sprintf("%s cannot ping %s", issue.SrcHost, issue.DstHost),
		Kind:    heimdall.TaskOSPF,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost, Proto: issue.Proto,
		Suspects:  []string{"r7"},
		CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "bob")
	must(err)

	// Diagnosis: neighbors are missing on r7.
	r7, err := eng.Console("r7")
	must(err)
	out, _ := r7.Exec("show ip ospf neighbor")
	fmt.Printf("twin> r7: show ip ospf neighbor ->\n%s\n", out)

	// Mid-task escalation: the technician wants to rule out ACLs.
	esc := eng.RequestEscalation(heimdall.PrivilegeRule{
		Effect: heimdall.Allow, Action: "config.acl.*", Resource: "device:r7",
	}, "adjacency missing; want to rule out an ACL blocking OSPF hellos")
	fmt.Printf("escalation requested: %s (%s)\n", esc.Rule, esc.Justification)
	must(eng.ApproveEscalation(esc))
	fmt.Println("escalation approved by admin (audited)")

	// Root cause found: a passive-interface statement.
	out, _ = r7.Exec("show running-config")
	fmt.Println("twin> r7: running-config contains the culprit:")
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "passive-interface") {
			fmt.Println(line)
		}
	}

	_, err = r7.Exec("router ospf no passive-interface Gi0/0")
	must(err)
	out, _ = r7.Exec("show ip ospf neighbor")
	fmt.Printf("twin> r7: show ip ospf neighbor (after fix) ->\n%s\n", out)

	if ok, _ := eng.SymptomResolved(); !ok {
		panic("twin still shows the symptom")
	}
	decision, err := eng.Commit()
	must(err)
	fmt.Printf("enforcer: %s; ticket %s -> %s\n",
		decision.Reason(), tk.ID, sys.Tickets.Get(tk.ID).Status)

	// Output:
	// injected fault: OSPF on r7 has passive-interface Gi0/0, adjacency lost
	// twin> r7: show ip ospf neighbor ->
	// sw2          FULL  10.0.12.1  Gi0/1
	// escalation requested: allow(config.acl.*, device:r7) (adjacency missing; want to rule out an ACL blocking OSPF hellos)
	// escalation approved by admin (audited)
	// twin> r7: running-config contains the culprit:
	//  passive-interface Gi0/0
	//  passive-interface Gi0/2
	// twin> r7: show ip ospf neighbor (after fix) ->
	// r4           FULL  10.0.9.1  Gi0/0
	// sw2          FULL  10.0.12.1  Gi0/1
	// enforcer: accepted; ticket T-0001 -> resolved
}
