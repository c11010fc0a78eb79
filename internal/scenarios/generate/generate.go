// Package generate synthesizes datacenter- and provider-scale evaluation
// networks: a k-ary fat-tree datacenter, an ISP backbone with many eBGP
// customer attachments, and a multi-site enterprise WAN. Where package
// scenarios hand-builds the paper's Table 1 networks, these generators are
// parametric and deterministic — the same parameters and seed always
// produce a byte-identical Scenario (network, rendered configs, mined
// policies, scripted issues) — so sweeps, mining and the multi-tenant
// service consume them exactly like the hand-built ones.
package generate

import (
	"fmt"
	"net/netip"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/spec"
	"heimdall/internal/ticket"
)

func addr4(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

func prefix4(a, b, c, d byte, bits int) netip.Prefix {
	return netip.PrefixFrom(addr4(a, b, c, d), bits)
}

// linkBase maps a link index into a /30 inside the 10.<region>.0.0 space:
// 64 links per third octet, 16384 per second octet. Regions are chosen so
// generated address plans never collide (fat-tree backbone 10.192/11,
// fat-tree pods 10.224/11, host subnets under 10.0/12, and so on).
func linkBase(region byte, i int) netip.Addr {
	return addr4(10, region+byte(i/16384), byte((i/64)%256), byte((i%64)*4))
}

// link30 cables a /30 infrastructure link: devA gets .1, devB gets .2.
func link30(n *netmodel.Network, devA, ifA, devB, ifB string, base netip.Addr) {
	n.MustConnect(devA, ifA, devB, ifB)
	b := base.As4()
	n.Devices[devA].Interface(ifA).Addr = netip.PrefixFrom(addr4(b[0], b[1], b[2], b[3]+1), 30)
	n.Devices[devB].Interface(ifB).Addr = netip.PrefixFrom(addr4(b[0], b[1], b[2], b[3]+2), 30)
}

// attach cables a host to a routed port: the gateway side gets .1 of the
// /24, the host gets .last, and the host's default gateway is set.
func attach(n *netmodel.Network, host, dev, itf string, subnet netip.Addr, last byte) {
	n.MustConnect(host, "eth0", dev, itf)
	b := subnet.As4()
	gw := addr4(b[0], b[1], b[2], 1)
	n.Devices[dev].Interface(itf).Addr = netip.PrefixFrom(gw, 24)
	h := n.Devices[host]
	h.Interface("eth0").Addr = netip.PrefixFrom(addr4(b[0], b[1], b[2], last), 24)
	h.DefaultGateway = gw
}

// attachLAN cables a host into an access-port VLAN LAN whose SVI gateway
// already exists on the switch; the host gets .last of the SVI's /24.
func attachLAN(n *netmodel.Network, host, sw, port string, vlan int, svi netip.Prefix, last byte) {
	n.MustConnect(host, "eth0", sw, port)
	p := n.Devices[sw].Interface(port)
	p.Mode = netmodel.Access
	p.AccessVLAN = vlan
	b := svi.Addr().As4()
	h := n.Devices[host]
	h.Interface("eth0").Addr = netip.PrefixFrom(addr4(b[0], b[1], b[2], last), svi.Bits())
	h.DefaultGateway = svi.Addr()
}

func secrets(d *netmodel.Device, seed string) {
	d.Secrets["enable"] = "ENC-" + seed
	d.Secrets["snmp"] = "comm-" + seed
}

func render(n *netmodel.Network) map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = config.Print(d)
	}
	return out
}

// finish computes the scenario's baseline snapshot, mines its policy set
// and assembles the Scenario.
func finish(name string, n *netmodel.Network, sensitive map[string]bool,
	opts spec.Options, issues []scenarios.Issue) *scenarios.Scenario {

	for _, r := range n.RoutersAndSwitches() {
		secrets(n.Devices[r], r)
	}
	snap := dataplane.Compute(n)
	return &scenarios.Scenario{
		Name:      name,
		Network:   n,
		Configs:   render(n),
		Policies:  spec.Mine(snap, n, opts),
		Sensitive: sensitive,
		Issues:    issues,
	}
}

// passiveAllFault silences every listed transit interface of one device —
// the botched "passive-interface default" rollout class. Unlike a single
// passive interface, this breaks reachability even on ECMP-redundant
// fabrics, which is what makes it ticketable.
func passiveAllFault(device string, transit []string, stranded string) ticket.Fault {
	fixes := make([]ticket.FixCommand, 0, len(transit))
	for _, ifName := range transit {
		fixes = append(fixes, ticket.FixCommand{Device: device,
			Line: "router ospf no passive-interface " + ifName})
	}
	return ticket.Fault{
		Name:        "ospf-passive-" + device + "-all",
		Kind:        privilege.TaskOSPF,
		Description: fmt.Sprintf("%s marked every transit interface passive; routes to %s lost", device, stranded),
		RootCause:   device,
		Changes: func(net *netmodel.Network) ([]config.Change, error) {
			return ticket.PassiveInterfaces(net, device, transit...)
		},
		Fix: fixes,
	}
}

// pingLine renders the console ping a technician opens a ticket with.
func pingLine(issue *scenarios.Issue) ticket.FixCommand {
	line := "ping " + issue.DstHost
	if issue.Proto == netmodel.TCP {
		line = fmt.Sprintf("ping %s tcp %d", issue.DstHost, issue.DstPort)
	}
	return ticket.FixCommand{Device: issue.SrcHost, Line: line}
}

// script assembles the issue's prepared command list: symptom ping,
// diagnosis commands, the fault's fix, and the verification re-ping.
func script(issue *scenarios.Issue, diagnosis ...ticket.FixCommand) {
	s := make([]ticket.FixCommand, 0, len(diagnosis)+len(issue.Fault.Fix)+2)
	s = append(s, pingLine(issue))
	s = append(s, diagnosis...)
	s = append(s, issue.Fault.Fix...)
	s = append(s, pingLine(issue))
	issue.Script = s
}
