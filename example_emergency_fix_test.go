package heimdall_test

import (
	"fmt"
	"time"

	"heimdall"
)

// Example_emergencyFix demonstrates the paper's §7 emergency mode: for an
// incident the twin cannot usefully reproduce (here: the customer wants the
// outage gone *now*), the admin explicitly authorizes the reference monitor
// to bypass the twin. Commands still pass the Privilegemsp check, every
// write is committed through the enforcer (policy-verified and journaled),
// and a malicious write is refused even mid-emergency.
func Example_emergencyFix() {
	scen := heimdall.EnterpriseScenario()
	issue := scen.Issues[1] // ospf: branch office offline
	must(issue.Fault.Inject(scen.Network))
	fmt.Printf("incident: %s\n", issue.Fault.Description)

	sys, err := heimdall.NewSystem(heimdall.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
	})
	must(err)
	// A fixed clock, so the audit review's time window prints the same
	// on every run.
	sys.Enforcer.Trail().SetClock(func() time.Time {
		return time.Date(2026, time.March, 2, 3, 14, 0, 0, time.UTC)
	})
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: "branch office offline — business impact, fix NOW",
		Kind:    heimdall.TaskOSPF,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost, Proto: issue.Proto,
		Suspects:  []string{issue.Fault.RootCause},
		CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "oncall")
	must(err)

	// The admin explicitly authorizes emergency mode (audited).
	eng.EnableEmergency("netadmin")
	sess, err := eng.EmergencyConsole(issue.Fault.RootCause)
	must(err)
	fmt.Printf("EMERGENCY console on %s (admin-approved, fully audited)\n", sess.Device())

	out, _ := sess.Exec("show ip ospf neighbor")
	fmt.Printf("prod> show ip ospf neighbor ->\n%s\n", out)

	// Privileges still apply: an OSPF ticket cannot touch ACLs.
	_, err = sess.Exec("access-list EVIL 10 permit ip any any")
	if err == nil {
		panic("BUG: out-of-task write accepted in emergency mode")
	}
	fmt.Printf("still least-privilege: %v\n", err)

	// The real fix goes straight to production, committed through the enforcer.
	for _, cmd := range issue.Fault.Fix {
		_, err := sess.Exec(cmd.Line)
		must(err)
		fmt.Printf("prod> %s (committed through the enforcer)\n", cmd.Line)
	}
	if jr := sys.Enforcer.Journal(); jr.Len() == 0 || jr.Verify() != nil {
		panic("BUG: emergency fix not journaled")
	}
	prod, _ := sys.Enforcer.View(false)
	res, err := heimdall.ComputeSnapshot(prod).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if err != nil || !res.Delivered() {
		panic(fmt.Sprintf("BUG: production not repaired: %v %v", res, err))
	}
	fmt.Printf("production repaired: %s\n", res)

	// The audit report flags the episode as an emergency.
	for _, rep := range heimdall.SummarizeAuditTrail(sys.Enforcer.Trail().Links()) {
		if !rep.Emergency {
			panic("BUG: emergency episode not flagged")
		}
		fmt.Printf("\naudit review:\n%s\n", rep)
	}

	// Output:
	// incident: OSPF on r7 has passive-interface Gi0/0, adjacency lost
	// EMERGENCY console on r7 (admin-approved, fully audited)
	// prod> show ip ospf neighbor ->
	// sw2          FULL  10.0.12.1  Gi0/1
	// still least-privilege: core: permission denied: config.acl.add on device:r7:acl:EVIL
	// prod> router ospf no passive-interface Gi0/0 (committed through the enforcer)
	// production repaired: icmp 10.5.0.10 -> 10.6.0.10: delivered path=[h5 r6 r3 r4 r7 h6]
	//
	// audit review:
	// ticket T-0001  technicians=oncall  window=03:14:00..03:14:00
	//   commands=3  denials=1  changes=1  verify-runs=1  rollbacks=0  EMERGENCY-MODE
	//   DENIED: EMERGENCY deny config.acl.add on device:r7:acl:EVIL
	//   CHANGE: r7 set-ospf: device:r7:ospf
}
