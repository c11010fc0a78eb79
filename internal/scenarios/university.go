package scenarios

import (
	"fmt"
	"net/netip"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/spec"
	"heimdall/internal/ticket"
)

// universityMgmtEntries calibrates the university config size to Table 1's
// 2146 lines.
const universityMgmtEntries = 116

// University builds the university evaluation network: 13 routers in a
// dense (near-full) mesh — the flat, historically grown topology typical of
// campus networks — with 17 hosts spread across departments, three of them
// sensitive (registrar, payroll, medical records). 92 links: 75 inter-router
// plus 17 host links.
func University() *Scenario {
	n := netmodel.NewNetwork("university")
	const routers = 13
	for i := 1; i <= routers; i++ {
		n.AddDevice(fmt.Sprintf("r%d", i), netmodel.Router)
	}

	// Near-full mesh: all 78 pairs except three (r1-r2, r1-r3, r2-r3),
	// giving exactly 75 inter-router links.
	skip := map[[2]int]bool{{1, 2}: true, {1, 3}: true, {2, 3}: true}
	linkIdx := 0
	ifCount := make(map[string]int)
	nextIf := func(dev string) string {
		ifCount[dev]++
		return fmt.Sprintf("Gi0/%d", ifCount[dev]-1)
	}
	for i := 1; i <= routers; i++ {
		for j := i + 1; j <= routers; j++ {
			if skip[[2]int{i, j}] {
				continue
			}
			a, b := fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", j)
			subnet := fmt.Sprintf("10.200.%d.0", linkIdx)
			p2p(n, a, nextIf(a), b, nextIf(b), subnet)
			linkIdx++
		}
	}

	// 17 hosts: h1..h17 round-robin across routers; hN gets subnet
	// 10.N.0.0/24 — except h14, the "external" service behind the campus
	// uplink on r1, whose subnet (192.0.2.0/24) is deliberately outside
	// the OSPF-advertised 10/8 so it exercises the static default chain.
	for h := 1; h <= 17; h++ {
		host := fmt.Sprintf("h%d", h)
		n.AddDevice(host, netmodel.Host)
		if h == 14 {
			attachHost(n, host, "r1", nextIf("r1"), "192.0.2.0")
			continue
		}
		router := fmt.Sprintf("r%d", (h-1)%routers+1)
		attachHost(n, host, router, nextIf(router), fmt.Sprintf("10.%d.0.0", h))
	}

	infra := n.RoutersAndSwitches()
	ospfAll(n, infra)

	// Sensitive department servers, each guarded on its gateway router:
	// only the IT subnet (h1's) may reach them, on ssh.
	sensitive := map[string]bool{"h15": true, "h16": true, "h17": true}
	for h := 15; h <= 17; h++ {
		router := fmt.Sprintf("r%d", (h-1)%routers+1)
		sub := fmt.Sprintf("10.%d.0.0/24", h)
		aclName := fmt.Sprintf("SENSITIVE-%d", h)
		guard := n.Devices[router].ACL(aclName, true)
		guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP,
			Src: pfx("10.1.0.0/24"), Dst: pfx(sub), DstPort: 22})
		guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Deny, Proto: netmodel.AnyProto,
			Dst: pfx(sub)})
		guard.InsertEntry(netmodel.ACLEntry{Seq: 30, Action: netmodel.Permit})
		// Find the host-facing interface (the /24 one for this subnet).
		for _, ifName := range n.Devices[router].InterfaceNames() {
			itf := n.Devices[router].Interfaces[ifName]
			if itf.HasAddr() && itf.Addr.Bits() == 24 && pfx(sub).Contains(itf.Addr.Addr()) {
				itf.ACLOut = aclName
			}
		}
	}

	// The campus default chain: every router points its default at r1
	// (where the external subnet lives); r2 and r3, which have no direct
	// r1 link, default via r4. The ISP reconfiguration issue mutates one
	// of these routes.
	for i := 2; i <= routers; i++ {
		name := fmt.Sprintf("r%d", i)
		nh := meshNeighborAddr(n, name, "r1")
		if !nh.IsValid() {
			nh = meshNeighborAddr(n, name, "r4")
		}
		if nh.IsValid() {
			n.Devices[name].StaticRoutes = []netmodel.StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: nh}}
		}
	}

	for _, r := range infra {
		mgmtACL(n.Devices[r], universityMgmtEntries)
		secrets(n.Devices[r], r)
	}

	snap := dataplane.Compute(n)
	policies := spec.Mine(snap, n, spec.Options{
		Services:    []spec.Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 80}},
		Sensitive:   sensitive,
		MaxPolicies: 175,
	})

	s := &Scenario{
		Name:      "university",
		Network:   n,
		Configs:   render(n),
		Policies:  policies,
		Sensitive: sensitive,
	}
	s.Issues = universityIssues(n)
	return s
}

// meshNeighborAddr returns the peer address of the first /30 link between
// dev and peer, or the zero Addr.
func meshNeighborAddr(n *netmodel.Network, dev, peer string) netip.Addr {
	d := n.Devices[dev]
	for _, ifName := range d.InterfaceNames() {
		link := n.LinkAt(dev, ifName)
		if link == nil {
			continue
		}
		other, ok := link.Other(dev)
		if !ok || other.Device != peer {
			continue
		}
		pi := n.Devices[peer].Interface(other.Interface)
		if pi != nil && pi.HasAddr() {
			return pi.Addr.Addr()
		}
	}
	return netip.Addr{}
}

// universityIssues defines the three pilot-study issues on the university
// network (the paper reports these results as "similar" to the enterprise
// ones and omits the figure; we regenerate them anyway).
func universityIssues(n *netmodel.Network) []Issue {
	// ACL issue standing in for the VLAN class (the campus body is fully
	// routed): the registrar guard on h15's router denies too much.
	aclFault := ticket.ACLDeny("r2", "SENSITIVE-15", 5, pfx("10.15.0.10/32"), 22)
	acl := Issue{
		Name: "acl", Fault: aclFault,
		SrcHost: "h1", DstHost: "h15", Proto: netmodel.TCP, DstPort: 22,
		Script: append([]ticket.FixCommand{
			{Device: "h1", Line: "ping h15 tcp 22"},
			{Device: "r2", Line: "show ip route"},
			{Device: "r2", Line: "show access-lists SENSITIVE-15"},
			{Device: "r2", Line: "show running-config"},
		}, aclFault.Fix...),
	}
	acl.Script = append(acl.Script, ticket.FixCommand{Device: "h1", Line: "ping h15 tcp 22"})

	// OSPF issue: in a dense mesh a single passive interface reroutes
	// instead of breaking, so the fault silences ALL of r13's adjacencies
	// (a botched "passive-interface default" rollout), stranding h13.
	ospfFault := universityOSPFFault(n)
	ospf := Issue{
		Name: "ospf", Fault: ospfFault,
		SrcHost: "h2", DstHost: "h13", Proto: netmodel.ICMP,
		Script: append([]ticket.FixCommand{
			{Device: "h2", Line: "ping h13"},
			{Device: "r13", Line: "show ip ospf neighbor"},
			{Device: "r13", Line: "show ip route"},
			{Device: "r13", Line: "show running-config"},
		}, ospfFault.Fix...),
	}
	ospf.Script = append(ospf.Script, ticket.FixCommand{Device: "h2", Line: "ping h13"})

	// ISP issue: r4's campus default points at a junk next hop, cutting
	// h4 off from the external service h14.
	nh := meshNeighborAddr(n, "r4", "r1")
	ispFault := ticket.BadStaticRoute("r4", pfx("0.0.0.0/0"), ip("10.250.0.9"), nh)
	isp := Issue{
		Name: "isp", Fault: ispFault,
		SrcHost: "h4", DstHost: "h14", Proto: netmodel.ICMP,
		Script: append([]ticket.FixCommand{
			{Device: "h4", Line: "ping h14"},
			{Device: "r4", Line: "show ip route"},
		}, ispFault.Fix...),
	}
	isp.Script = append(isp.Script, ticket.FixCommand{Device: "h4", Line: "ping h14"})

	return []Issue{acl, ospf, isp}
}

// universityOSPFFault silences every OSPF adjacency of r13 (passive on all
// transit interfaces), stranding h13's subnet.
func universityOSPFFault(n *netmodel.Network) ticket.Fault {
	d := n.Devices["r13"]
	var transit []string
	for _, ifName := range d.InterfaceNames() {
		itf := d.Interfaces[ifName]
		if itf.HasAddr() && itf.Addr.Bits() == 30 {
			transit = append(transit, ifName)
		}
	}
	var fixes []ticket.FixCommand
	for _, ifName := range transit {
		fixes = append(fixes, ticket.FixCommand{Device: "r13",
			Line: "router ospf no passive-interface " + ifName})
	}
	return ticket.Fault{
		Name:        "ospf-passive-r13-all",
		Kind:        "ospf",
		Description: "r13 marked every transit interface passive; campus lost routes to 10.13.0.0/24",
		RootCause:   "r13",
		Changes: func(net *netmodel.Network) ([]config.Change, error) {
			return ticket.PassiveInterfaces(net, "r13", transit...)
		},
		Fix: fixes,
	}
}
