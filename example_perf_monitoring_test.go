package heimdall_test

import (
	"fmt"
	"strings"

	"heimdall"
)

// Example_perfMonitoring demonstrates the MSP's performance-management
// service class (paper §2.1) under least privilege: a monitoring probe over
// the enterprise network detects an outage, a monitoring ticket is filed,
// and the technician investigates with a strictly read-only Privilegemsp —
// every write attempt bounces off the reference monitor.
func Example_perfMonitoring() {
	scen := heimdall.EnterpriseScenario()
	// The probe: h3's web traffic to the Internet.
	src, dst, proto, port := "h3", "ext-www", heimdall.TCP, uint16(80)
	before, err := heimdall.ComputeSnapshot(scen.Network).Reach(src, dst, proto, port)
	must(err)
	fmt.Printf("probe before: %s\n", before)

	// A link fails overnight.
	scen.Network.Devices["r3"].Interface("Gi0/3").Shutdown = true
	after, err := heimdall.ComputeSnapshot(scen.Network).Reach(src, dst, proto, port)
	must(err)
	fmt.Printf("probe after a silent link failure: %s\n", after)
	if !before.Delivered() || after.Delivered() {
		panic("BUG: the link failure did not break the probed flow")
	}

	// Monitoring alarms file a ticket; the technician gets READ-ONLY
	// privileges (TaskMonitoring grants no config.* actions at all).
	sys, err := heimdall.NewSystem(heimdall.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
	})
	must(err)
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: fmt.Sprintf("monitoring probe lost %s -> %s", src, dst),
		Kind:    heimdall.TaskMonitoring,
		SrcHost: src, DstHost: dst, Proto: proto, DstPort: port,
		CreatedBy: "monitoring-system",
	})
	eng, err := sys.StartWork(tk.ID, "noc-analyst")
	must(err)
	fmt.Printf("\nticket %s: read-only twin with %d visible devices\n",
		tk.ID, len(eng.Twin.VisibleDevices()))

	for _, dev := range eng.Twin.VisibleDevices() {
		sess, err := eng.Console(dev)
		if err != nil {
			continue
		}
		if out, err := sess.Exec("show interfaces"); err == nil {
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, "administratively down") {
					fmt.Printf("twin %s> found: %s\n", dev, line)
				}
			}
		}
	}

	// Any repair attempt is denied: monitoring privileges cannot write.
	sess, err := eng.Console("r3")
	must(err)
	_, err = sess.Exec("interface Gi0/3 no shutdown")
	if err == nil {
		panic("BUG: monitoring ticket allowed a write")
	}
	fmt.Printf("reference monitor: %v\n", err)
	fmt.Println("-> analyst escalates to an interface ticket instead of fixing silently")

	// Output:
	// probe before: tcp 10.20.0.13:40000 -> 198.51.100.10:80: delivered path=[h3 sw1 r5 r3 r1 ext-www]
	// probe after a silent link failure: tcp 10.20.0.13:40000 -> 198.51.100.10:80: arp-fail at r5 (no neighbor 10.0.7.1 via Gi0/0) path=[h3 sw1 r5]
	//
	// ticket T-0001: read-only twin with 10 visible devices
	// twin r3> found: Gi0/3 is administratively down
	// reference monitor: twin: permission denied: config.interface.set on device:r3:interface:Gi0/3
	// -> analyst escalates to an interface ticket instead of fixing silently
}
