// Package console implements the per-device command-line interface MSP
// technicians use. It is the twin network's presentation-layer surface: a
// command is parsed and classified into a privilege (action, resource)
// pair first, so the reference monitor can decide before anything executes.
// A read renders from its environment. A write builds config.Changes from
// its device as it is when it executes, and Execute applies them
// persistently (config.ApplyChange): no device is ever written in place.
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

	exec  func(env *Env) (string, error)                    // a read
	build func(d *netmodel.Device) ([]config.Change, error) // a write
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

// Execute runs a previously parsed command. A read renders from the
// environment. A write is a change set built from its device as it is now
// (Apply): the device is replaced in the environment's network by the one
// the changes leave, never written, and the changes are queued for the next
// snapshot to derive across, classified as the enforcer classifies a
// commit's (dataplane.ChangeSetFor). A write that fails replaces nothing.
func (c *Console) Execute(cmd Command) (string, error) {
	if !cmd.Write {
		return cmd.exec(c.env)
	}
	nd, changes, err := cmd.Apply(c.env.Net.Devices[cmd.Device])
	if err != nil {
		return "", err
	}
	if c.env.snap != nil { // with nothing cached the next read computes anyway
		c.env.pending = append(c.env.pending, dataplane.ChangeSetFor(c.env.Net, changes)...)
	}
	c.env.Net.Devices[cmd.Device] = nd
	return "", nil
}

// Apply returns the device as the write cmd leaves d, and the changes that
// take it there (none for a write that changes nothing, such as a
// re-entered route). It never writes d: the result shares every section the
// changes do not write (config.ApplyChange).
func (cmd Command) Apply(d *netmodel.Device) (*netmodel.Device, []config.Change, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("console: no device %s", cmd.Device)
	}
	changes, err := cmd.build(d)
	for i := 0; i < len(changes) && err == nil; i++ {
		d, err = config.ApplyChange(d, changes[i])
	}
	if err != nil {
		return nil, nil, err
	}
	return d, changes, nil
}

// mkRead and mkWrite make a parsed line's Command from its classification
// and what it runs: a read renders from the environment, a write builds its
// changes from the device as it is when it executes.
type (
	mkRead  func(action, resource string, exec func(env *Env) (string, error)) Command
	mkWrite func(action, resource string, build func(d *netmodel.Device) ([]config.Change, error)) Command
)

// hasEntry reports whether the ACL (nil: undefined) holds an entry seq.
func hasEntry(a *netmodel.ACL, seq int) bool {
	return a != nil && slices.ContainsFunc(a.Entries, func(e netmodel.ACLEntry) bool { return e.Seq == seq })
}

// Parse classifies a command line without executing it.
func (c *Console) Parse(line string) (Command, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Command{}, fmt.Errorf("console: empty command")
	}
	dev := c.device
	mk := func(action, resource string, exec func(env *Env) (string, error)) Command {
		return Command{Raw: line, Device: dev, Action: action, Resource: resource, exec: exec}
	}
	mkw := func(action, resource string, build func(d *netmodel.Device) ([]config.Change, error)) Command {
		return Command{Raw: line, Device: dev, Action: action, Resource: resource, Write: true, build: build}
	}
	devRes := "device:" + dev

	switch f[0] {
	case "show":
		return c.parseShow(f[1:], mk, devRes)
	case "ping":
		return c.parsePing(f[1:], mk, devRes)
	case "traceroute":
		if len(f) != 2 {
			return Command{}, fmt.Errorf("console: usage: traceroute HOST|ADDR")
		}
		target := f[1]
		return mk("diag.traceroute", devRes, func(env *Env) (string, error) {
			return c.tracePath(env, target, netmodel.ICMP, 0)
		}), nil
	case "interface":
		return c.parseInterface(f[1:], mkw)
	case "access-list":
		return c.parseACLAdd(f[1:], mkw)
	case "no":
		return c.parseNo(f[1:], mkw)
	case "ip":
		return c.parseIP(f[1:], mkw, devRes)
	case "router":
		return c.parseRouter(f[1:], mkw, devRes)
	case "vlan":
		if len(f) != 4 || f[2] != "name" {
			return Command{}, fmt.Errorf("console: usage: vlan N name NAME")
		}
		id, err := strconv.Atoi(f[1])
		if err != nil || id < 1 || id > 4094 {
			return Command{}, fmt.Errorf("console: bad vlan id %q", f[1])
		}
		name := f[3]
		return mkw("config.vlan.set", fmt.Sprintf("%s:vlan:%d", devRes, id), func(*netmodel.Device) ([]config.Change, error) {
			return []config.Change{{Device: dev, Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: id, Name: name}}}, nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown command %q", f[0])
}

func (c *Console) parseShow(f []string, mk mkRead, devRes string) (Command, error) {
	dev := c.device
	rest := strings.Join(f, " ")
	switch {
	case rest == "running-config":
		return mk("show.running-config", devRes, func(env *Env) (string, error) {
			return config.Print(env.Net.Devices[dev]), nil
		}), nil
	case rest == "ip route":
		return mk("show.ip.route", devRes, func(env *Env) (string, error) {
			return env.Snapshot().FormatRIB(dev), nil
		}), nil
	case rest == "interfaces" || (len(f) == 2 && f[0] == "interfaces"):
		var name string
		if len(f) == 2 {
			name = f[1]
		}
		return mk("show.interfaces", devRes, func(env *Env) (string, error) {
			return renderInterfaces(env.Net.Devices[dev], name)
		}), nil
	case rest == "access-lists" || (len(f) == 2 && f[0] == "access-lists"):
		var name string
		if len(f) == 2 {
			name = f[1]
		}
		return mk("show.access-lists", devRes, func(env *Env) (string, error) {
			return renderACLs(env.Net.Devices[dev], name)
		}), nil
	case rest == "vlan":
		return mk("show.vlan", devRes, func(env *Env) (string, error) {
			return renderVLANs(env.Net.Devices[dev]), nil
		}), nil
	case rest == "ip ospf neighbor":
		return mk("show.ip.ospf", devRes, func(env *Env) (string, error) {
			return renderOSPFNeighbors(env, dev), nil
		}), nil
	case rest == "ip bgp" || rest == "ip bgp summary":
		return mk("show.ip.bgp", devRes, func(env *Env) (string, error) {
			return env.Snapshot().FormatBGP(dev), nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown show command %q", rest)
}

func (c *Console) parsePing(f []string, mk mkRead, devRes string) (Command, error) {
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
	return mk("diag.ping", devRes, func(env *Env) (string, error) {
		return c.ping(env, target, proto, port)
	}), nil
}

func (c *Console) parseInterface(f []string, mk mkWrite) (Command, error) {
	if len(f) < 2 {
		return Command{}, fmt.Errorf("console: usage: interface IF SUBCOMMAND")
	}
	dev := c.device
	ifName := f[0]
	sub, sf := strings.Join(f[1:], " "), f[1:]
	var edit func(itf *netmodel.Interface) error // edits a copy of the interface
	switch {
	case sub == "shutdown":
		edit = func(itf *netmodel.Interface) error { itf.Shutdown = true; return nil }
	case sub == "no shutdown":
		edit = func(itf *netmodel.Interface) error { itf.Shutdown = false; return nil }
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "address":
		pfxStr, maskStr := sf[2], sf[3]
		edit = func(itf *netmodel.Interface) (err error) {
			itf.Addr, err = config.ParseAddrMask(pfxStr, maskStr)
			return err
		}
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "access-group" && (sf[3] == "in" || sf[3] == "out"):
		edit = bindACL(sf[3], sf[2])
	case len(sf) == 4 && sf[0] == "no" && sf[1] == "ip" && sf[2] == "access-group" && (sf[3] == "in" || sf[3] == "out"):
		edit = bindACL(sf[3], "")
	case len(sf) == 4 && sf[0] == "ip" && sf[1] == "ospf" && sf[2] == "cost":
		cost, err := strconv.Atoi(sf[3])
		if err != nil || cost < 1 || cost > 65535 {
			return Command{}, fmt.Errorf("console: bad ospf cost %q", sf[3])
		}
		edit = func(itf *netmodel.Interface) error { itf.OSPFCost = cost; return nil }
	case len(sf) == 4 && sf[0] == "switchport" && sf[1] == "access" && sf[2] == "vlan":
		id, err := strconv.Atoi(sf[3])
		if err != nil || id < 1 || id > 4094 {
			return Command{}, fmt.Errorf("console: bad vlan id %q", sf[3])
		}
		edit = func(itf *netmodel.Interface) error { itf.Mode, itf.AccessVLAN = netmodel.Access, id; return nil }
	default:
		return Command{}, fmt.Errorf("console: unknown interface subcommand %q", sub)
	}
	return mk("config.interface.set", fmt.Sprintf("device:%s:interface:%s", dev, ifName), func(d *netmodel.Device) ([]config.Change, error) {
		old := d.Interface(ifName)
		if old == nil {
			return nil, fmt.Errorf("console: %s: no interface %s", dev, ifName)
		}
		itf := *old
		if err := edit(&itf); err != nil {
			return nil, err
		}
		return []config.Change{{Device: dev, Op: config.OpSetInterface, Interface: &itf}}, nil
	}), nil
}

// bindACL binds name (empty: none) as the interface's ACL in direction dir.
func bindACL(dir, name string) func(itf *netmodel.Interface) error {
	return func(itf *netmodel.Interface) error {
		if dir == "in" {
			itf.ACLIn = name
		} else {
			itf.ACLOut = name
		}
		return nil
	}
}

func (c *Console) parseACLAdd(f []string, mk mkWrite) (Command, error) {
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
	return mk("config.acl.add", res, func(d *netmodel.Device) ([]config.Change, error) {
		// An entry's sequence number names it: a line that reuses one
		// replaces that entry. The ACL is created at its first entry.
		op, e := config.OpAddACLEntry, entry
		if hasEntry(d.ACLs[name], e.Seq) {
			op = config.OpSetACLEntry
		}
		return []config.Change{{Device: dev, Op: op, ACLName: name, Entry: &e}}, nil
	}), nil
}

func (c *Console) parseNo(f []string, mk mkWrite) (Command, error) {
	dev := c.device
	switch {
	case len(f) == 3 && f[0] == "access-list":
		name := f[1]
		seq, err := strconv.Atoi(f[2])
		if err != nil {
			return Command{}, fmt.Errorf("console: bad sequence number %q", f[2])
		}
		res := fmt.Sprintf("device:%s:acl:%s", dev, name)
		return mk("config.acl.remove", res, func(d *netmodel.Device) ([]config.Change, error) {
			if !hasEntry(d.ACLs[name], seq) {
				return nil, fmt.Errorf("console: %s: no ACL entry %s seq %d", dev, name, seq)
			}
			return []config.Change{{Device: dev, Op: config.OpRemoveACLEntry, ACLName: name, Seq: seq}}, nil
		}), nil
	case len(f) == 5 && f[0] == "ip" && f[1] == "route":
		netStr, maskStr, nhStr := f[2], f[3], f[4]
		return mk("config.route.remove", fmt.Sprintf("device:%s:route:%s", dev, netStr),
			func(d *netmodel.Device) ([]config.Change, error) {
				p, err := config.ParseAddrMask(netStr, maskStr)
				if err != nil {
					return nil, err
				}
				nh, err := netip.ParseAddr(nhStr)
				if err != nil {
					return nil, fmt.Errorf("console: bad next hop %q", nhStr)
				}
				// The line names no distance: the change carries the route
				// it matched.
				i := slices.IndexFunc(d.StaticRoutes, func(r netmodel.StaticRoute) bool {
					return r.Prefix == p.Masked() && r.NextHop == nh
				})
				if i < 0 {
					return nil, fmt.Errorf("console: %s: no route %s via %s", dev, p.Masked(), nh)
				}
				r := d.StaticRoutes[i]
				return []config.Change{{Device: dev, Op: config.OpRemoveStaticRoute, Route: &r}}, nil
			}), nil
	case len(f) == 2 && f[0] == "vlan":
		id, err := strconv.Atoi(f[1])
		if err != nil {
			return Command{}, fmt.Errorf("console: bad vlan id %q", f[1])
		}
		return mk("config.vlan.remove", fmt.Sprintf("device:%s:vlan:%d", dev, id),
			func(d *netmodel.Device) ([]config.Change, error) {
				if _, ok := d.VLANs[id]; !ok {
					return nil, fmt.Errorf("console: %s: no vlan %d", dev, id)
				}
				return []config.Change{{Device: dev, Op: config.OpRemoveVLAN, VLANID: id}}, nil
			}), nil
	}
	return Command{}, fmt.Errorf("console: unknown no-command %q", strings.Join(f, " "))
}

func (c *Console) parseIP(f []string, mk mkWrite, devRes string) (Command, error) {
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
		return mk("config.route.add", fmt.Sprintf("device:%s:route:%s", dev, netStr),
			func(d *netmodel.Device) ([]config.Change, error) {
				p, err := config.ParseAddrMask(netStr, maskStr)
				if err != nil {
					return nil, err
				}
				nh, err := netip.ParseAddr(nhStr)
				if err != nil {
					return nil, fmt.Errorf("console: bad next hop %q", nhStr)
				}
				r := netmodel.StaticRoute{Prefix: p.Masked(), NextHop: nh, Distance: dist}
				if slices.Contains(d.StaticRoutes, r) { // a re-entry is no change, as on IOS
					return nil, nil
				}
				return []config.Change{{Device: dev, Op: config.OpAddStaticRoute, Route: &r}}, nil
			}), nil
	case len(f) == 2 && f[0] == "default-gateway":
		gwStr := f[1]
		return mk("config.gateway.set", devRes+":gateway", func(*netmodel.Device) ([]config.Change, error) {
			gw, err := netip.ParseAddr(gwStr)
			if err != nil {
				return nil, fmt.Errorf("console: bad gateway %q", gwStr)
			}
			return []config.Change{{Device: dev, Op: config.OpSetGateway, Gateway: gw}}, nil
		}), nil
	}
	return Command{}, fmt.Errorf("console: unknown ip command %q", strings.Join(f, " "))
}

func (c *Console) parseRouter(f []string, mk mkWrite, devRes string) (Command, error) {
	dev := c.device
	if len(f) >= 2 && f[0] == "bgp" {
		return c.parseBGP(f[1:], mk, devRes)
	}
	if len(f) < 2 || f[0] != "ospf" {
		return Command{}, fmt.Errorf("console: usage: router {ospf|bgp AS} SUBCOMMAND")
	}
	var edit func(o *netmodel.OSPFProcess) error // edits a copy of the process
	sf := f[1:]
	switch {
	case len(sf) == 2 && sf[0] == "passive-interface":
		name := sf[1]
		edit = func(o *netmodel.OSPFProcess) error { o.Passive[name] = true; return nil }
	case len(sf) == 3 && sf[0] == "no" && sf[1] == "passive-interface":
		name := sf[2]
		edit = func(o *netmodel.OSPFProcess) error { delete(o.Passive, name); return nil }
	case len(sf) == 5 && sf[0] == "network" && sf[3] == "area":
		netStr, wcStr, areaStr := sf[1], sf[2], sf[4]
		edit = func(o *netmodel.OSPFProcess) error {
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
		}
	default:
		return Command{}, fmt.Errorf("console: unknown router ospf subcommand %q", strings.Join(sf, " "))
	}
	// The process is created with its first statement, so a statement that
	// fails creates none.
	return mk("config.ospf.set", devRes+":ospf", func(d *netmodel.Device) ([]config.Change, error) {
		var o *netmodel.OSPFProcess
		if d.OSPF != nil {
			o = d.OSPF.Clone()
		} else {
			o = &netmodel.OSPFProcess{ProcessID: 1, Passive: make(map[string]bool)}
		}
		if err := edit(o); err != nil {
			return nil, err
		}
		return []config.Change{{Device: dev, Op: config.OpSetOSPF, OSPF: o}}, nil
	}), nil
}

// parseBGP handles "router bgp AS SUBCOMMAND".
func (c *Console) parseBGP(f []string, mk mkWrite, devRes string) (Command, error) {
	dev := c.device
	asn, err := strconv.Atoi(f[0])
	if err != nil || asn <= 0 {
		return Command{}, fmt.Errorf("console: bad AS number %q", f[0])
	}
	var edit func(g *netmodel.BGPProcess) error // edits a copy of the process
	sf := f[1:]
	switch {
	case len(sf) == 4 && sf[0] == "neighbor" && sf[2] == "remote-as":
		addrStr, asStr := sf[1], sf[3]
		edit = func(g *netmodel.BGPProcess) error {
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return fmt.Errorf("console: bad neighbor address %q", addrStr)
			}
			remote, err := strconv.Atoi(asStr)
			if err != nil || remote <= 0 {
				return fmt.Errorf("console: bad remote-as %q", asStr)
			}
			if nb := g.Neighbor(addr); nb != nil {
				nb.RemoteAS = remote
			} else {
				g.Neighbors = append(g.Neighbors, netmodel.BGPNeighbor{Addr: addr, RemoteAS: remote})
			}
			return nil
		}
	case len(sf) == 3 && sf[0] == "no" && sf[1] == "neighbor":
		addrStr := sf[2]
		edit = func(g *netmodel.BGPProcess) error {
			addr, err := netip.ParseAddr(addrStr)
			if err != nil {
				return fmt.Errorf("console: bad neighbor address %q", addrStr)
			}
			i := slices.IndexFunc(g.Neighbors, func(nb netmodel.BGPNeighbor) bool { return nb.Addr == addr })
			if i < 0 {
				return fmt.Errorf("console: no neighbor %s", addrStr)
			}
			g.Neighbors = slices.Delete(g.Neighbors, i, i+1)
			return nil
		}
	case len(sf) == 4 && sf[0] == "network" && sf[2] == "mask":
		netStr, maskStr := sf[1], sf[3]
		edit = func(g *netmodel.BGPProcess) error {
			p, err := config.ParseAddrMask(netStr, maskStr)
			if err != nil {
				return err
			}
			g.Networks = append(g.Networks, p.Masked())
			return nil
		}
	default:
		return Command{}, fmt.Errorf("console: unknown router bgp subcommand %q", strings.Join(sf, " "))
	}
	// As with OSPF, a statement that fails creates no process.
	return mk("config.bgp.set", devRes+":bgp", func(d *netmodel.Device) ([]config.Change, error) {
		var g *netmodel.BGPProcess
		if d.BGP != nil {
			g = d.BGP.Clone()
		} else {
			g = &netmodel.BGPProcess{LocalAS: asn}
		}
		if g.LocalAS != asn {
			return nil, fmt.Errorf("console: %s runs AS %d, not %d", dev, g.LocalAS, asn)
		}
		if err := edit(g); err != nil {
			return nil, err
		}
		return []config.Change{{Device: dev, Op: config.OpSetBGP, BGP: g}}, nil
	}), nil
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
