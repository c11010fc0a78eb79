package heimdall_test

import (
	"fmt"
	"net/netip"

	"heimdall"
)

// Example_bgpPeering runs an ISP-class ticket end to end on an eBGP
// peering: the ISP migrated to a new AS number, the enterprise edge still
// peers with the old one, and external connectivity is down. The
// technician diagnoses the idle session in the twin and fixes the neighbor
// statement; the enforcer imports the verified change.
func Example_bgpPeering() {
	prod := buildPeering()
	// The incident: the edge still expects the ISP's old AS (65010), but
	// the ISP now runs 65011 — the session never re-establishes.
	prod.Devices["edge"].BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65010)
	prod.Devices["isp"].BGP.LocalAS = 65011
	fmt.Println("incident: ISP migrated to AS 65011; edge still peers with 65010")

	policies := []heimdall.Policy{
		{ID: "P001", Kind: heimdall.Reachability, Src: "h1", Dst: "ext-www", Proto: heimdall.TCP, DstPort: 443},
	}
	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod, Policies: policies})
	must(err)
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: "external web unreachable after ISP maintenance window",
		Kind:    heimdall.TaskISP,
		SrcHost: "h1", DstHost: "ext-www",
		Proto: heimdall.TCP, DstPort: 443,
		Suspects:  []string{"edge"},
		CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "dana")
	must(err)

	edge, err := eng.Console("edge")
	must(err)
	out, _ := edge.Exec("show ip bgp")
	fmt.Printf("twin> edge: show ip bgp ->\n%s\n\n", out)

	// The fix: re-point the neighbor at the ISP's new AS.
	_, err = edge.Exec("router bgp 65001 neighbor 203.0.113.2 remote-as 65011")
	must(err)
	out, _ = edge.Exec("show ip bgp")
	fmt.Printf("twin> edge: show ip bgp (after fix) ->\n%s\n\n", out)

	if ok, _ := eng.SymptomResolved(); !ok {
		panic("twin still shows the symptom")
	}
	decision, err := eng.Commit()
	must(err)
	fmt.Printf("enforcer: %s; ticket -> %s\n", decision.Reason(), sys.Tickets.Get(tk.ID).Status)

	tr := heimdall.ComputeSnapshot(prod).TraceFrom("h1", heimdall.Flow{
		Proto: heimdall.TCP, Src: netip.MustParseAddr("10.1.0.10"),
		Dst: netip.MustParseAddr("198.51.100.10"), DstPort: 443, SrcPort: 40000,
	})
	fmt.Printf("production: %s\n", tr)

	// Output:
	// incident: ISP migrated to AS 65011; edge still peers with 65010
	// twin> edge: show ip bgp ->
	// BGP local AS 65001
	// Neighbor        RemoteAS  State
	// 203.0.113.2     65010     Idle
	//
	// twin> edge: show ip bgp (after fix) ->
	// BGP local AS 65001
	// Neighbor        RemoteAS  State
	// 203.0.113.2     65011     Established (isp)
	// Learned routes:
	//   B 198.51.100.0/24 [20/1] via 203.0.113.2, Gi0/1
	//
	// enforcer: accepted; ticket -> resolved
	// production: tcp 10.1.0.10:40000 -> 198.51.100.10:443: delivered path=[h1 edge isp ext-www]
}

// buildPeering assembles h1 - edge(AS 65001) === isp - ext-www.
func buildPeering() *heimdall.Network {
	n := heimdall.NewNetwork("peering")
	edge := n.AddDevice("edge", heimdall.Router)
	isp := n.AddDevice("isp", heimdall.Router)
	h1 := n.AddDevice("h1", heimdall.Host)
	ext := n.AddDevice("ext-www", heimdall.Host)
	must(n.Connect("h1", "eth0", "edge", "Gi0/0"))
	must(n.Connect("edge", "Gi0/1", "isp", "Gi0/0"))
	must(n.Connect("isp", "Gi0/1", "ext-www", "eth0"))

	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	edge.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	edge.Interface("Gi0/1").Addr = netip.MustParsePrefix("203.0.113.1/30")
	isp.Interface("Gi0/0").Addr = netip.MustParsePrefix("203.0.113.2/30")
	isp.Interface("Gi0/1").Addr = netip.MustParsePrefix("198.51.100.1/24")
	ext.Interface("eth0").Addr = netip.MustParsePrefix("198.51.100.10/24")
	ext.DefaultGateway = netip.MustParseAddr("198.51.100.1")

	edge.BGP = &heimdall.BGPProcess{LocalAS: 65001,
		Networks: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}}
	edge.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65010)
	isp.BGP = &heimdall.BGPProcess{LocalAS: 65010,
		Networks: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}}
	isp.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.1"), 65001)
	return n
}
