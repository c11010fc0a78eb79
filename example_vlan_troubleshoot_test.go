package heimdall_test

import (
	"errors"
	"fmt"
	"strings"

	"heimdall"
)

// Example_vlanTroubleshoot reproduces the paper's VLAN issue on the
// enterprise evaluation network: an access port lands in the wrong VLAN
// (the classic StackExchange "access port config" ticket), stranding a
// host. The technician resolves it inside the twin while the reference
// monitor blocks everything a VLAN ticket does not justify.
func Example_vlanTroubleshoot() {
	scen := heimdall.EnterpriseScenario()
	issue := scen.Issues[0] // vlan
	prod := scen.Network

	// Break production.
	must(issue.Fault.Inject(prod))
	fmt.Printf("injected fault: %s\n", issue.Fault.Description)

	sys, err := heimdall.NewSystem(heimdall.Options{
		Network:   prod,
		Policies:  scen.Policies,
		Sensitive: scen.Sensitive,
	})
	must(err)

	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary:   fmt.Sprintf("%s cannot reach %s", issue.SrcHost, issue.DstHost),
		Kind:      heimdall.TaskVLAN,
		SrcHost:   issue.SrcHost,
		DstHost:   issue.DstHost,
		Proto:     issue.Proto,
		CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "alice")
	must(err)
	fmt.Printf("slice (%d of %d devices visible): %v\n",
		len(eng.Twin.VisibleDevices()), len(prod.Devices), eng.Twin.VisibleDevices())

	// The finance server's router is NOT part of a VLAN ticket's world.
	if _, err := eng.Console("h9"); err != nil {
		fmt.Printf("console h9 (finance): correctly refused: %v\n", err)
	}

	// A VLAN ticket grants no ACL privileges, even inside the slice.
	sw2, err := eng.Console("sw2")
	must(err)
	_, err = sw2.Exec("access-list EVIL 10 permit ip any any")
	var denied *heimdall.ErrDenied
	if errors.As(err, &denied) {
		fmt.Printf("reference monitor: blocked %s on %s\n", denied.Action, denied.Resource)
	}

	// Run the prepared diagnosis + fix script.
	outputs, err := eng.RunScript(issue.Script)
	must(err)
	for i, cmd := range issue.Script {
		first, _, _ := strings.Cut(outputs[i], "\n")
		if len(first) > 60 {
			first = first[:60] + "..."
		}
		line := fmt.Sprintf("twin> %-4s %-45q %s", cmd.Device+":", cmd.Line, first)
		fmt.Println(strings.TrimRight(line, " "))
	}

	if ok, _ := eng.SymptomResolved(); !ok {
		panic("twin still shows the symptom")
	}
	decision, err := eng.Commit()
	must(err)
	fmt.Printf("enforcer: %s; production fixed, ticket %s -> %s\n",
		decision.Reason(), tk.ID, sys.Tickets.Get(tk.ID).Status)

	// Output:
	// injected fault: port Gi1/0/1 on sw2 assigned to vlan 30 instead of 20
	// slice (4 of 18 devices visible): [h2 h3 sw1 sw2]
	// console h9 (finance): correctly refused: twin: no such device "h9"
	// reference monitor: blocked config.acl.add on device:sw2:acl:EVIL
	// twin> h2:  "ping h3"                                     ..... failed (arp-fail at h2) icmp 10.20.0.12 -> 10.20.0.13
	// twin> h2:  "traceroute h3"                                1  h2
	// twin> sw1: "show vlan"                                   VLAN Name
	// twin> sw1: "show interfaces"                             Gi1/0/1 is up
	// twin> sw1: "show ip route"                               C 10.0.11.0/30 is directly connected, Gi1/0/24
	// twin> sw2: "show vlan"                                   VLAN Name
	// twin> sw2: "show interfaces Gi1/0/1"                     Gi1/0/1 is up
	// twin> sw2: "show running-config"                         ! kind: switch
	// twin> sw2: "interface Gi1/0/1 switchport access vlan 20"
	// twin> h2:  "ping h3"                                     !!!!! success: icmp 10.20.0.12 -> 10.20.0.13
	// enforcer: accepted; production fixed, ticket T-0001 -> resolved
}
