// Package console implements the per-device command-line interface MSP
// technicians use. It is the twin network's presentation-layer surface: a
// command is parsed and classified into a privilege (action, resource)
// pair first, so the reference monitor can decide before anything executes.
//
// Commands are single-line, IOS-flavoured:
//
//	show running-config | show ip route | show interfaces [IF] |
//	show access-lists [NAME] | show vlan | show ip ospf neighbor
//	ping HOST|ADDR [tcp PORT|udp PORT]
//	interface IF shutdown | interface IF no shutdown
//	interface IF ip address ADDR MASK
//	interface IF ip access-group NAME in|out
//	interface IF no ip access-group in|out
//	interface IF switchport access vlan N
//	interface IF ip ospf cost N
//	access-list NAME SEQ permit|deny PROTO SRC [eq P] DST [eq P]
//	no access-list NAME SEQ
//	ip route NET MASK NEXTHOP [DIST] | no ip route NET MASK NEXTHOP
//	router ospf passive-interface IF | router ospf no passive-interface IF
//	router ospf network NET WILDCARD area N
//	router bgp AS neighbor ADDR remote-as N | router bgp AS no neighbor ADDR
//	router bgp AS network NET mask MASK
//	vlan N name NAME | no vlan N
//	ip default-gateway ADDR
package console

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

// Command is one parsed console command with its privilege classification.
type Command struct {
	Raw      string
	Device   string
	Action   string
	Resource string
	// Write reports whether executing the command mutates configuration.
	Write bool

	exec func(env *Env) (string, error)
}

// Env is what a command needs to execute: the network holding the target
// device and its dataplane snapshot (Snapshot) for read/diagnostic
// commands. NewEnv and NewEnvSeeded build it.
type Env struct {
	Net *netmodel.Network

	// snap is the snapshot last served (nil: compute on next use), pending
	// the classified writes since, which the next one derives across.
	snap    *dataplane.Snapshot
	pending dataplane.ChangeSet
}

// noteWrite records one executed write: a classified write queues an
// incremental derivation, everything else pays the full invalidation.
func (e *Env) noteWrite(action, device string) {
	kind, ok := writeChangeKind(action)
	switch {
	case !ok:
		e.invalidate()
	case e.snap != nil: // with nothing cached the next read computes anyway
		e.pending = append(e.pending, dataplane.Change{Device: device, Kind: kind})
	}
}

// invalidate drops the snapshot: the next read computes it from scratch.
func (e *Env) invalidate() { e.snap, e.pending = nil, nil }

// writeChangeKind maps a console write action onto the narrowest dataplane
// change class it can affect on its device (see dataplane.ChangeKind).
// Interface edits are classed L3-topology without inspecting the port —
// strictly more conservative than the enforcer's L2-only refinement, never
// less. Unknown write actions report false and force a full recompute.
func writeChangeKind(action string) (dataplane.ChangeKind, bool) {
	switch action {
	case "config.acl.add", "config.acl.remove":
		return dataplane.ChangeACL, true
	case "config.route.add", "config.route.remove", "config.gateway.set":
		return dataplane.ChangeStatic, true
	case "config.ospf.set":
		return dataplane.ChangeOSPF, true
	case "config.bgp.set":
		return dataplane.ChangeBGP, true
	case "config.vlan.set", "config.vlan.remove":
		return dataplane.ChangeL2, true
	case "config.interface.set":
		return dataplane.ChangeL3Topology, true
	}
	return 0, false
}

// Console parses and executes commands against one device.
type Console struct {
	device string
	env    *Env
}

// New returns a console bound to the named device.
func New(device string, env *Env) *Console {
	return &Console{device: device, env: env}
}

// Device returns the console's target device name.
func (c *Console) Device() string { return c.device }

// Run parses and immediately executes a command line (no mediation). The
// twin network's reference monitor uses Parse + Execute separately.
func (c *Console) Run(line string) (string, error) {
	cmd, err := c.Parse(line)
	if err != nil {
		return "", err
	}
	return c.Execute(cmd)
}

// Execute runs a previously parsed command.
func (c *Console) Execute(cmd Command) (string, error) {
	out, err := cmd.exec(c.env)
	if err != nil {
		return "", err
	}
	if cmd.Write {
		c.env.noteWrite(cmd.Action, cmd.Device)
	}
	return out, nil
}

// Parse classifies a command line without executing it.
func (c *Console) Parse(line string) (Command, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Command{}, fmt.Errorf("console: empty command")
	}
	dev := c.device
	mk := func(action, resource string, write bool, exec func(env *Env) (string, error)) Command {
		return Command{Raw: line, Device: dev, Action: action, Resource: resource, Write: write, exec: exec}
	}
	devRes := "device:" + dev

	switch f[0] {
	case "show":
		return c.parseShow(line, f[1:], mk, devRes)
	case "ping":
		return c.parsePing(line, f[1:], mk, devRes)
	case "traceroute":
		if len(f) != 2 {
			return Command{}, fmt.Errorf("console: usage: traceroute HOST|ADDR")
		}
		target := f[1]
		return mk("diag.traceroute", devRes, false, func(env *Env) (string, error) {
			return c.tracePath(env, target, netmodel.ICMP, 0)
		}), nil
	case "interface":
		return c.parseInterface(line, f[1:], mk)
	case "access-list":
		return c.parseACLAdd(line, f[1:], mk)
	case "no":
		return c.parseNo(line, f[1:], mk)
	case "ip":
		return c.parseIP(line, f[1:], mk, devRes)
	case "router":
		return c.parseRouter(line, f[1:], mk, devRes)
	case "vlan":
		if len(f) != 4 || f[2] != "name" {
			return Command{}, fmt.Errorf("console: usage: vlan N name NAME")
		}
		id, err := strconv.Atoi(f[1])
		if err != nil || id < 1 || id > 4094 {
			return Command{}, fmt.Errorf("console: bad vlan id %q", f[1])
		}
		name := f[3]
		return mk("config.vlan.set", fmt.Sprintf("%s:vlan:%d", devRes, id), true, func(env *Env) (string, error) {
			d := env.Net.Devices[dev]
			d.VLANs[id] = &netmodel.VLAN{ID: id, Name: name}
			return "", nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown command %q", f[0])
}

func (c *Console) parseShow(line string, f []string, mk mkFunc, devRes string) (Command, error) {
	dev := c.device
	rest := strings.Join(f, " ")
	switch {
	case rest == "running-config":
		return mk("show.running-config", devRes, false, func(env *Env) (string, error) {
			return config.Print(env.Net.Devices[dev]), nil
		}), nil
	case rest == "ip route":
		return mk("show.ip.route", devRes, false, func(env *Env) (string, error) {
			return env.Snapshot().FormatRIB(dev), nil
		}), nil
	case rest == "interfaces" || (len(f) == 2 && f[0] == "interfaces"):
		var name string
		if len(f) == 2 {
			name = f[1]
		}
		return mk("show.interfaces", devRes, false, func(env *Env) (string, error) {
			return renderInterfaces(env.Net.Devices[dev], name)
		}), nil
	case rest == "access-lists" || (len(f) == 2 && f[0] == "access-lists"):
		var name string
		if len(f) == 2 {
			name = f[1]
		}
		return mk("show.access-lists", devRes, false, func(env *Env) (string, error) {
			return renderACLs(env.Net.Devices[dev], name)
		}), nil
	case rest == "vlan":
		return mk("show.vlan", devRes, false, func(env *Env) (string, error) {
			return renderVLANs(env.Net.Devices[dev]), nil
		}), nil
	case rest == "ip ospf neighbor":
		return mk("show.ip.ospf", devRes, false, func(env *Env) (string, error) {
			return renderOSPFNeighbors(env, dev), nil
		}), nil
	case rest == "ip bgp" || rest == "ip bgp summary":
		return mk("show.ip.bgp", devRes, false, func(env *Env) (string, error) {
			return env.Snapshot().FormatBGP(dev), nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown show command %q", rest)
}

func (c *Console) parsePing(line string, f []string, mk mkFunc, devRes string) (Command, error) {
	if len(f) != 1 && len(f) != 3 {
		return Command{}, fmt.Errorf("console: usage: ping HOST|ADDR [tcp|udp PORT]")
	}
	target := f[0]
	proto := netmodel.ICMP
	var port uint16
	if len(f) == 3 {
		p, err := netmodel.ParseProtocol(f[1])
		if err != nil || (p != netmodel.TCP && p != netmodel.UDP) {
			return Command{}, fmt.Errorf("console: ping protocol must be tcp or udp")
		}
		proto = p
		v, err := strconv.Atoi(f[2])
		if err != nil || v < 1 || v > 65535 {
			return Command{}, fmt.Errorf("console: bad port %q", f[2])
		}
		port = uint16(v)
	}
	return mk("diag.ping", devRes, false, func(env *Env) (string, error) {
		return c.ping(env, target, proto, port)
	}), nil
}

type mkFunc func(action, resource string, write bool, exec func(env *Env) (string, error)) Command

func (c *Console) parseInterface(line string, f []string, mk mkFunc) (Command, error) {
	if len(f) < 2 {
		return Command{}, fmt.Errorf("console: usage: interface IF SUBCOMMAND")
	}
	dev := c.device
	ifName := f[0]
	res := fmt.Sprintf("device:%s:interface:%s", dev, ifName)
	sub := strings.Join(f[1:], " ")
	withIf := func(apply func(itf *netmodel.Interface) error) func(env *Env) (string, error) {
		return func(env *Env) (string, error) {
			d := env.Net.Devices[dev]
			itf := d.Interface(ifName)
			if itf == nil {
				return "", fmt.Errorf("console: %s: no interface %s", dev, ifName)
			}
			return "", apply(itf)
		}
	}
	sf := f[1:]
	switch {
	case sub == "shutdown":
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			itf.Shutdown = true
			return nil
		})), nil
	case sub == "no shutdown":
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			itf.Shutdown = false
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "address":
		pfxStr, maskStr := sf[2], sf[3]
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			p, err := config.ParseAddrMask(pfxStr, maskStr)
			if err != nil {
				return err
			}
			itf.Addr = p
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "access-group" && (sf[3] == "in" || sf[3] == "out"):
		name, dir := sf[2], sf[3]
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			if dir == "in" {
				itf.ACLIn = name
			} else {
				itf.ACLOut = name
			}
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "no" && sf[1] == "ip" && sf[2] == "access-group" && (sf[3] == "in" || sf[3] == "out"):
		dir := sf[3]
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			if dir == "in" {
				itf.ACLIn = ""
			} else {
				itf.ACLOut = ""
			}
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "ospf" && sf[2] == "cost":
		cost, err := strconv.Atoi(sf[3])
		if err != nil || cost < 1 || cost > 65535 {
			return Command{}, fmt.Errorf("console: bad ospf cost %q", sf[3])
		}
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			itf.OSPFCost = cost
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "switchport" && sf[1] == "access" && sf[2] == "vlan":
		id, err := strconv.Atoi(sf[3])
		if err != nil || id < 1 || id > 4094 {
			return Command{}, fmt.Errorf("console: bad vlan id %q", sf[3])
		}
		return mk("config.interface.set", res, true, withIf(func(itf *netmodel.Interface) error {
			itf.Mode = netmodel.Access
			itf.AccessVLAN = id
			return nil
		})), nil
	}
	return Command{}, fmt.Errorf("console: unknown interface subcommand %q", sub)
}

func (c *Console) parseACLAdd(line string, f []string, mk mkFunc) (Command, error) {
	// access-list NAME SEQ permit|deny PROTO SRC [eq P] DST [eq P]
	if len(f) < 5 {
		return Command{}, fmt.Errorf("console: short access-list command")
	}
	dev := c.device
	name := f[0]
	entry, err := config.ParseACLEntry(f[1:])
	if err != nil {
		return Command{}, err
	}
	res := fmt.Sprintf("device:%s:acl:%s", dev, name)
	return mk("config.acl.add", res, true, func(env *Env) (string, error) {
		env.Net.Devices[dev].ACL(name, true).InsertEntry(entry)
		return "", nil
	}), nil
}

func (c *Console) parseNo(line string, f []string, mk mkFunc) (Command, error) {
	dev := c.device
	switch {
	case len(f) == 3 && f[0] == "access-list":
		name := f[1]
		seq, err := strconv.Atoi(f[2])
		if err != nil {
			return Command{}, fmt.Errorf("console: bad sequence number %q", f[2])
		}
		res := fmt.Sprintf("device:%s:acl:%s", dev, name)
		return mk("config.acl.remove", res, true, func(env *Env) (string, error) {
			a := env.Net.Devices[dev].ACL(name, false)
			if a == nil || !a.RemoveEntry(seq) {
				return "", fmt.Errorf("console: %s: no ACL entry %s seq %d", dev, name, seq)
			}
			return "", nil
		}), nil
	case len(f) == 5 && f[0] == "ip" && f[1] == "route":
		netStr, maskStr, nhStr := f[2], f[3], f[4]
		return mk("config.route.remove", fmt.Sprintf("device:%s:route:%s", dev, netStr), true,
			func(env *Env) (string, error) {
				p, err := config.ParseAddrMask(netStr, maskStr)
				if err != nil {
					return "", err
				}
				nh, err := netip.ParseAddr(nhStr)
				if err != nil {
					return "", fmt.Errorf("console: bad next hop %q", nhStr)
				}
				d := env.Net.Devices[dev]
				for i, r := range d.StaticRoutes {
					if r.Prefix == p.Masked() && r.NextHop == nh {
						d.StaticRoutes = append(d.StaticRoutes[:i], d.StaticRoutes[i+1:]...)
						return "", nil
					}
				}
				return "", fmt.Errorf("console: %s: no route %s via %s", dev, p.Masked(), nh)
			}), nil
	case len(f) == 2 && f[0] == "vlan":
		id, err := strconv.Atoi(f[1])
		if err != nil {
			return Command{}, fmt.Errorf("console: bad vlan id %q", f[1])
		}
		return mk("config.vlan.remove", fmt.Sprintf("device:%s:vlan:%d", dev, id), true,
			func(env *Env) (string, error) {
				d := env.Net.Devices[dev]
				if _, ok := d.VLANs[id]; !ok {
					return "", fmt.Errorf("console: %s: no vlan %d", dev, id)
				}
				delete(d.VLANs, id)
				return "", nil
			}), nil
	}
	return Command{}, fmt.Errorf("console: unknown no-command %q", strings.Join(f, " "))
}

func (c *Console) parseIP(line string, f []string, mk mkFunc, devRes string) (Command, error) {
	dev := c.device
	switch {
	case len(f) >= 4 && f[0] == "route":
		netStr, maskStr, nhStr := f[1], f[2], f[3]
		dist := 0
		if len(f) == 5 {
			v, err := strconv.Atoi(f[4])
			if err != nil || v < 1 || v > 255 {
				return Command{}, fmt.Errorf("console: bad distance %q", f[4])
			}
			dist = v
		} else if len(f) != 4 {
			return Command{}, fmt.Errorf("console: usage: ip route NET MASK NEXTHOP [DIST]")
		}
		return mk("config.route.add", fmt.Sprintf("device:%s:route:%s", dev, netStr), true,
			func(env *Env) (string, error) {
				p, err := config.ParseAddrMask(netStr, maskStr)
				if err != nil {
					return "", err
				}
				nh, err := netip.ParseAddr(nhStr)
				if err != nil {
					return "", fmt.Errorf("console: bad next hop %q", nhStr)
				}
				d := env.Net.Devices[dev]
				r := netmodel.StaticRoute{Prefix: p.Masked(), NextHop: nh, Distance: dist}
				if !slices.Contains(d.StaticRoutes, r) { // a re-entry is a no-op, as on IOS
					d.StaticRoutes = append(d.StaticRoutes, r)
				}
				return "", nil
			}), nil
	case len(f) == 2 && f[0] == "default-gateway":
		gwStr := f[1]
		return mk("config.gateway.set", devRes+":gateway", true, func(env *Env) (string, error) {
			gw, err := netip.ParseAddr(gwStr)
			if err != nil {
				return "", fmt.Errorf("console: bad gateway %q", gwStr)
			}
			env.Net.Devices[dev].DefaultGateway = gw
			return "", nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown ip command %q", strings.Join(f, " "))
}

func (c *Console) parseRouter(line string, f []string, mk mkFunc, devRes string) (Command, error) {
	dev := c.device
	if len(f) >= 2 && f[0] == "bgp" {
		return c.parseBGP(line, f[1:], mk, devRes)
	}
	if len(f) < 2 || f[0] != "ospf" {
		return Command{}, fmt.Errorf("console: usage: router {ospf|bgp AS} SUBCOMMAND")
	}
	res := devRes + ":ospf"
	withOSPF := func(apply func(o *netmodel.OSPFProcess) error) func(env *Env) (string, error) {
		return func(env *Env) (string, error) {
			d := env.Net.Devices[dev]
			if d.OSPF == nil {
				d.OSPF = &netmodel.OSPFProcess{ProcessID: 1, Passive: make(map[string]bool)}
			}
			return "", apply(d.OSPF)
		}
	}
	sf := f[1:]
	switch {
	case len(sf) == 2 && sf[0] == "passive-interface":
		name := sf[1]
		return mk("config.ospf.set", res, true, withOSPF(func(o *netmodel.OSPFProcess) error {
			o.Passive[name] = true
			return nil
		})), nil
	case len(sf) == 3 && sf[0] == "no" && sf[1] == "passive-interface":
		name := sf[2]
		return mk("config.ospf.set", res, true, withOSPF(func(o *netmodel.OSPFProcess) error {
			delete(o.Passive, name)
			return nil
		})), nil
	case len(sf) == 5 && sf[0] == "network" && sf[3] == "area":
		netStr, wcStr, areaStr := sf[1], sf[2], sf[4]
		return mk("config.ospf.set", res, true, withOSPF(func(o *netmodel.OSPFProcess) error {
			p, err := config.ParseNetWildcard(netStr, wcStr)
			if err != nil {
				return err
			}
			area, err := strconv.Atoi(areaStr)
			if err != nil || area < 0 {
				return fmt.Errorf("console: bad area %q", areaStr)
			}
			o.Networks = append(o.Networks, netmodel.OSPFNetwork{Prefix: p, Area: area})
			return nil
		})), nil
	}
	return Command{}, fmt.Errorf("console: unknown router ospf subcommand %q", strings.Join(sf, " "))
}

// parseBGP handles "router bgp AS SUBCOMMAND".
func (c *Console) parseBGP(line string, f []string, mk mkFunc, devRes string) (Command, error) {
	dev := c.device
	asn, err := strconv.Atoi(f[0])
	if err != nil || asn <= 0 {
		return Command{}, fmt.Errorf("console: bad AS number %q", f[0])
	}
	res := devRes + ":bgp"
	withBGP := func(apply func(g *netmodel.BGPProcess) error) func(env *Env) (string, error) {
		return func(env *Env) (string, error) {
			d := env.Net.Devices[dev]
			if d.BGP == nil {
				d.BGP = &netmodel.BGPProcess{LocalAS: asn}
			}
			if d.BGP.LocalAS != asn {
				return "", fmt.Errorf("console: %s runs AS %d, not %d", dev, d.BGP.LocalAS, asn)
			}
			return "", apply(d.BGP)
		}
	}
	sf := f[1:]
	switch {
	case len(sf) == 4 && sf[0] == "neighbor" && sf[2] == "remote-as":
		addrStr, asStr := sf[1], sf[3]
		return mk("config.bgp.set", res, true, withBGP(func(g *netmodel.BGPProcess) error {
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return fmt.Errorf("console: bad neighbor address %q", addrStr)
			}
			remote, err := strconv.Atoi(asStr)
			if err != nil || remote <= 0 {
				return fmt.Errorf("console: bad remote-as %q", asStr)
			}
			g.SetNeighbor(addr, remote)
			return nil
		})), nil
	case len(sf) == 3 && sf[0] == "no" && sf[1] == "neighbor":
		addrStr := sf[2]
		return mk("config.bgp.set", res, true, withBGP(func(g *netmodel.BGPProcess) error {
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return fmt.Errorf("console: bad neighbor address %q", addrStr)
			}
			if !g.RemoveNeighbor(addr) {
				return fmt.Errorf("console: no neighbor %s", addrStr)
			}
			return nil
		})), nil
	case len(sf) == 4 && sf[0] == "network" && sf[2] == "mask":
		netStr, maskStr := sf[1], sf[3]
		return mk("config.bgp.set", res, true, withBGP(func(g *netmodel.BGPProcess) error {
			p, err := config.ParseAddrMask(netStr, maskStr)
			if err != nil {
				return err
			}
			g.Networks = append(g.Networks, p.Masked())
			return nil
		})), nil
	}
	return Command{}, fmt.Errorf("console: unknown router bgp subcommand %q", strings.Join(sf, " "))
}

// ping resolves the target (host name or address) and traces from the
// console's device.
func (c *Console) ping(env *Env, target string, proto netmodel.Protocol, port uint16) (string, error) {
	snap := env.Snapshot()
	dst, err := resolveTarget(env.Net, target)
	if err != nil {
		return "", err
	}
	src, ok := sourceAddr(env.Net.Devices[c.device])
	if !ok {
		return "", fmt.Errorf("console: %s has no usable source address", c.device)
	}
	f := dataplane.Flow{Proto: proto, Src: src, Dst: dst, DstPort: port}
	if proto == netmodel.TCP || proto == netmodel.UDP {
		f.SrcPort = 40000
	}
	tr := snap.TraceFrom(c.device, f)
	if tr.Delivered() {
		return fmt.Sprintf("!!!!! success: %s", tr.Flow), nil
	}
	return fmt.Sprintf("..... failed (%s at %s) %s", tr.Disposition, tr.Where, tr.Flow), nil
}

func (c *Console) tracePath(env *Env, target string, proto netmodel.Protocol, port uint16) (string, error) {
	snap := env.Snapshot()
	dst, err := resolveTarget(env.Net, target)
	if err != nil {
		return "", err
	}
	src, ok := sourceAddr(env.Net.Devices[c.device])
	if !ok {
		return "", fmt.Errorf("console: %s has no usable source address", c.device)
	}
	tr := snap.TraceFrom(c.device, dataplane.Flow{Proto: proto, Src: src, Dst: dst, DstPort: port})
	var b strings.Builder
	for i, hop := range tr.Hops {
		fmt.Fprintf(&b, "%2d  %s\n", i+1, hop.Device)
	}
	fmt.Fprintf(&b, "result: %s", tr.Disposition)
	return b.String(), nil
}

func resolveTarget(n *netmodel.Network, target string) (netip.Addr, error) {
	if a, err := netip.ParseAddr(target); err == nil {
		// 4-in-6 names an IPv4 destination; any other IPv6 literal simply
		// has no route in this IPv4-only dataplane.
		return a.Unmap(), nil
	}
	if a, ok := n.HostAddr(target); ok {
		return a, nil
	}
	// Allow pinging any device's first address by name.
	if d := n.Devices[target]; d != nil {
		if a, ok := sourceAddr(d); ok {
			return a, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("console: cannot resolve %q", target)
}

func sourceAddr(d *netmodel.Device) (netip.Addr, bool) {
	if d == nil {
		return netip.Addr{}, false
	}
	for _, name := range d.InterfaceNames() {
		itf := d.Interfaces[name]
		if itf.Up() && itf.HasAddr() {
			return itf.Addr.Addr(), true
		}
	}
	return netip.Addr{}, false
}

// Catalog returns every (action, resource) pair executable on the device:
// the attack-surface metric's "available commands" A_n. The set grows with
// the device's configuration surface (interfaces, ACLs, routes, VLANs).
func Catalog(d *netmodel.Device) []struct{ Action, Resource string } {
	devRes := "device:" + d.Name
	var out []struct{ Action, Resource string }
	add := func(action, resource string) {
		out = append(out, struct{ Action, Resource string }{action, resource})
	}
	for _, a := range []string{
		"show.running-config", "show.ip.route", "show.interfaces",
		"show.access-lists", "show.vlan", "show.ip.ospf", "show.ip.bgp",
		"diag.ping", "diag.traceroute",
	} {
		add(a, devRes)
	}
	for _, ifName := range d.InterfaceNames() {
		add("config.interface.set", devRes+":interface:"+ifName)
	}
	for _, aclName := range d.ACLNames() {
		add("config.acl.add", devRes+":acl:"+aclName)
		add("config.acl.remove", devRes+":acl:"+aclName)
	}
	add("config.acl.add", devRes+":acl:NEW") // a new ACL can always be created
	add("config.route.add", devRes+":route:0.0.0.0")
	if len(d.StaticRoutes) > 0 {
		add("config.route.remove", devRes+":route:"+d.StaticRoutes[0].Prefix.Addr().String())
	}
	if d.OSPF != nil {
		add("config.ospf.set", devRes+":ospf")
	}
	if d.BGP != nil {
		add("config.bgp.set", devRes+":bgp")
	}
	for _, id := range d.VLANIDs() {
		add("config.vlan.set", fmt.Sprintf("%s:vlan:%d", devRes, id))
		add("config.vlan.remove", fmt.Sprintf("%s:vlan:%d", devRes, id))
	}
	if d.Kind == netmodel.Host || d.DefaultGateway.IsValid() {
		add("config.gateway.set", devRes+":gateway")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Action != out[j].Action {
			return out[i].Action < out[j].Action
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}
