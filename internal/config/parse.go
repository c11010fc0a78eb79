package config

import (
	"bufio"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"

	"heimdall/internal/netmodel"
)

// ParseError describes a configuration syntax error with its line number.
type ParseError struct {
	Device string
	Line   int
	Text   string
	Reason string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("config: %s line %d: %s (%q)", e.Device, e.Line, e.Reason, e.Text)
}

// sniffKind returns the kind a "! kind:" header names, Router without one.
func sniffKind(text string) netmodel.DeviceKind {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "! kind:"); ok {
			switch strings.TrimSpace(rest) {
			case "router":
				return netmodel.Router
			case "switch":
				return netmodel.Switch
			case "host":
				return netmodel.Host
			}
		}
	}
	return netmodel.Router
}

type parser struct {
	dev  *netmodel.Device
	line int
	text string

	// current sub-mode context
	itf *netmodel.Interface
	acl *netmodel.ACL
	osp *netmodel.OSPFProcess
	bgp *netmodel.BGPProcess
	vln *netmodel.VLAN
}

func (p *parser) errf(reason string, args ...any) error {
	return &ParseError{Device: p.dev.Name, Line: p.line, Text: p.text, Reason: fmt.Sprintf(reason, args...)}
}

// Parse reads vendor-style configuration text and returns the semantic
// device model. The device kind is taken from the "! kind: <kind>" header
// comment emitted by Print; without one the device defaults to Router.
func Parse(name, text string) (*netmodel.Device, error) {
	p := &parser{dev: netmodel.NewDevice(name, sniffKind(text))}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		p.line++
		raw := sc.Text()
		p.text = raw
		line := strings.TrimRight(raw, " \t")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "!") {
			// Separators reset the sub-mode, like IOS's "!".
			if trimmed == "!" {
				p.resetMode()
			}
			continue
		}
		if line == trimmed {
			p.resetMode()
			if err := p.topLevel(trimmed); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.subMode(trimmed); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: reading %s: %w", name, err)
	}
	sortRoutes(p.dev.StaticRoutes)
	return p.dev, nil
}

// sortRoutes puts static routes in the canonical order used by Print, so
// that parsed devices compare equal regardless of statement order.
func sortRoutes(routes []netmodel.StaticRoute) {
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix != routes[j].Prefix {
			return routes[i].Prefix.String() < routes[j].Prefix.String()
		}
		return routes[i].NextHop.Less(routes[j].NextHop)
	})
}

func (p *parser) resetMode() {
	p.itf, p.acl, p.osp, p.bgp, p.vln = nil, nil, nil, nil, nil
}

func (p *parser) topLevel(line string) error {
	f := strings.Fields(line)
	switch {
	case f[0] == "hostname" && len(f) == 2:
		p.dev.Name = f[1]
	case f[0] == "interface" && len(f) == 2:
		p.itf = p.dev.AddInterface(f[1])
	case f[0] == "vlan" && len(f) == 2:
		id, err := strconv.Atoi(f[1])
		if err != nil || id <= 0 || id > 4094 {
			return p.errf("bad vlan id")
		}
		v, ok := p.dev.VLANs[id]
		if !ok {
			v = &netmodel.VLAN{ID: id}
			p.dev.VLANs[id] = v
		}
		p.vln = v
	case f[0] == "ip" && len(f) >= 2 && f[1] == "route":
		return p.ipRoute(f[2:])
	case f[0] == "ip" && len(f) >= 4 && f[1] == "access-list" && f[2] == "extended":
		p.acl = p.dev.ACL(f[3], true)
	case f[0] == "ip" && len(f) == 3 && f[1] == "default-gateway":
		gw, err := netip.ParseAddr(f[2])
		if err != nil {
			return p.errf("bad default gateway")
		}
		p.dev.DefaultGateway = gw
	case f[0] == "router" && len(f) == 3 && f[1] == "ospf":
		id, err := strconv.Atoi(f[2])
		if err != nil {
			return p.errf("bad ospf process id")
		}
		if p.dev.OSPF == nil {
			p.dev.OSPF = &netmodel.OSPFProcess{ProcessID: id, Passive: make(map[string]bool)}
		}
		p.osp = p.dev.OSPF
	case f[0] == "router" && len(f) == 3 && f[1] == "bgp":
		asn, err := strconv.Atoi(f[2])
		if err != nil || asn <= 0 {
			return p.errf("bad bgp AS number")
		}
		if p.dev.BGP == nil {
			p.dev.BGP = &netmodel.BGPProcess{LocalAS: asn}
		}
		p.bgp = p.dev.BGP
	case f[0] == "enable" && len(f) == 3 && f[1] == "secret":
		p.dev.Secrets["enable"] = f[2]
	case f[0] == "snmp-server" && len(f) >= 3 && f[1] == "community":
		p.dev.Secrets["snmp"] = f[2]
	case f[0] == "crypto" && len(f) >= 4 && f[1] == "isakmp" && f[2] == "key":
		p.dev.Secrets["isakmp"] = f[3]
	default:
		return p.errf("unknown top-level statement")
	}
	return nil
}

func (p *parser) ipRoute(f []string) error {
	// ip route <net> <mask> <nexthop> [distance]
	if len(f) < 3 {
		return p.errf("ip route needs network, mask, next-hop")
	}
	pfx, err := ParseAddrMask(f[0], f[1])
	if err != nil {
		return p.errf("bad route: %v", err)
	}
	nh, err := netip.ParseAddr(f[2])
	if err != nil || !nh.Is4() {
		return p.errf("bad route next-hop")
	}
	r := netmodel.StaticRoute{Prefix: pfx.Masked(), NextHop: nh}
	if len(f) == 4 {
		d, err := strconv.Atoi(f[3])
		if err != nil || d < 1 || d > 255 {
			return p.errf("bad route distance")
		}
		r.Distance = d
	}
	if !slices.Contains(p.dev.StaticRoutes, r) { // a re-entered route is one route, as on IOS
		p.dev.StaticRoutes = append(p.dev.StaticRoutes, r)
	}
	return nil
}

func (p *parser) subMode(line string) error {
	switch {
	case p.itf != nil:
		return p.interfaceLine(line)
	case p.acl != nil:
		return p.aclLine(line)
	case p.osp != nil:
		return p.ospfLine(line)
	case p.bgp != nil:
		return p.bgpLine(line)
	case p.vln != nil:
		return p.vlanLine(line)
	}
	return p.errf("indented line outside any section")
}

func (p *parser) interfaceLine(line string) error {
	f := strings.Fields(line)
	switch {
	case f[0] == "description":
		p.itf.Description = strings.TrimSpace(strings.TrimPrefix(line, "description"))
	case f[0] == "ip" && len(f) == 4 && f[1] == "address":
		pfx, err := ParseAddrMask(f[2], f[3])
		if err != nil {
			return p.errf("%v", err)
		}
		p.itf.Addr = pfx
	case f[0] == "no" && len(f) == 3 && f[1] == "ip" && f[2] == "address":
		p.itf.Addr = netip.Prefix{}
	case line == "shutdown":
		p.itf.Shutdown = true
	case line == "no shutdown":
		p.itf.Shutdown = false
	case f[0] == "ip" && len(f) == 4 && f[1] == "access-group":
		switch f[3] {
		case "in":
			p.itf.ACLIn = f[2]
		case "out":
			p.itf.ACLOut = f[2]
		default:
			return p.errf("access-group direction must be in or out")
		}
	case f[0] == "no" && len(f) == 5 && f[1] == "ip" && f[2] == "access-group":
		switch f[4] {
		case "in":
			p.itf.ACLIn = ""
		case "out":
			p.itf.ACLOut = ""
		default:
			return p.errf("access-group direction must be in or out")
		}
	case f[0] == "ip" && len(f) == 4 && f[1] == "ospf" && f[2] == "cost":
		cost, err := strconv.Atoi(f[3])
		if err != nil || cost < 1 || cost > 65535 {
			return p.errf("bad ospf cost")
		}
		p.itf.OSPFCost = cost
	case f[0] == "switchport" && len(f) == 3 && f[1] == "mode":
		switch f[2] {
		case "access":
			p.itf.Mode = netmodel.Access
		case "trunk":
			p.itf.Mode = netmodel.Trunk
		default:
			return p.errf("bad switchport mode")
		}
	case f[0] == "switchport" && len(f) == 4 && f[1] == "access" && f[2] == "vlan":
		id, err := strconv.Atoi(f[3])
		if err != nil {
			return p.errf("bad access vlan")
		}
		p.itf.AccessVLAN = id
		if p.itf.Mode == netmodel.Routed {
			p.itf.Mode = netmodel.Access
		}
	case f[0] == "switchport" && len(f) == 5 && f[1] == "trunk" && f[2] == "allowed" && f[3] == "vlan":
		var vlans []int
		for _, s := range strings.Split(f[4], ",") {
			id, err := strconv.Atoi(s)
			if err != nil {
				return p.errf("bad trunk vlan list")
			}
			vlans = append(vlans, id)
		}
		p.itf.TrunkVLANs = vlans
		if p.itf.Mode == netmodel.Routed {
			p.itf.Mode = netmodel.Trunk
		}
	default:
		return p.errf("unknown interface statement")
	}
	return nil
}

func (p *parser) aclLine(line string) error {
	e, err := ParseACLEntry(strings.Fields(line))
	if err != nil {
		return p.errf("%v", err)
	}
	p.acl.InsertEntry(e)
	return nil
}

// ParseACLEntry parses the tokens of one IOS-style ACL entry:
// "SEQ permit|deny PROTO SRC [eq P] DST [eq P]" where SRC and DST are
// "any", "host A", or "A WILDCARD". The console package shares this with
// the parser for its access-list command.
func ParseACLEntry(f []string) (netmodel.ACLEntry, error) {
	if len(f) < 4 {
		return netmodel.ACLEntry{}, fmt.Errorf("short ACL entry")
	}
	seq, err := strconv.Atoi(f[0])
	if err != nil {
		return netmodel.ACLEntry{}, fmt.Errorf("ACL entry must start with a sequence number")
	}
	e := netmodel.ACLEntry{Seq: seq}
	switch f[1] {
	case "permit":
		e.Action = netmodel.Permit
	case "deny":
		e.Action = netmodel.Deny
	default:
		return netmodel.ACLEntry{}, fmt.Errorf("ACL action must be permit or deny")
	}
	proto, err := netmodel.ParseProtocol(f[2])
	if err != nil {
		return netmodel.ACLEntry{}, err
	}
	e.Proto = proto
	rest := f[3:]
	src, sport, rest, err := aclAddrSpec(rest)
	if err != nil {
		return netmodel.ACLEntry{}, err
	}
	dst, dport, rest, err := aclAddrSpec(rest)
	if err != nil {
		return netmodel.ACLEntry{}, err
	}
	if len(rest) != 0 {
		return netmodel.ACLEntry{}, fmt.Errorf("trailing ACL tokens %v", rest)
	}
	e.Src, e.SrcPort, e.Dst, e.DstPort = src, sport, dst, dport
	return e, nil
}

// aclAddrSpec consumes one address spec: "any" | "host A" | "A WILDCARD",
// optionally followed by "eq PORT".
func aclAddrSpec(f []string) (netip.Prefix, uint16, []string, error) {
	if len(f) == 0 {
		return netip.Prefix{}, 0, nil, fmt.Errorf("missing ACL address")
	}
	var pfx netip.Prefix
	switch f[0] {
	case "any":
		f = f[1:]
	case "host":
		if len(f) < 2 {
			return netip.Prefix{}, 0, nil, fmt.Errorf("host needs an address")
		}
		a, err := netip.ParseAddr(f[1])
		if err != nil {
			return netip.Prefix{}, 0, nil, fmt.Errorf("bad host address")
		}
		pfx = netip.PrefixFrom(a, 32)
		f = f[2:]
	default:
		if len(f) < 2 {
			return netip.Prefix{}, 0, nil, fmt.Errorf("address needs a wildcard")
		}
		var err error
		pfx, err = ParseNetWildcard(f[0], f[1])
		if err != nil {
			return netip.Prefix{}, 0, nil, err
		}
		f = f[2:]
	}
	var port uint16
	if len(f) >= 2 && f[0] == "eq" {
		v, err := strconv.Atoi(f[1])
		if err != nil || v < 1 || v > 65535 {
			return netip.Prefix{}, 0, nil, fmt.Errorf("bad port")
		}
		port = uint16(v)
		f = f[2:]
	}
	return pfx, port, f, nil
}

func (p *parser) ospfLine(line string) error {
	f := strings.Fields(line)
	switch {
	case f[0] == "router-id" && len(f) == 2:
		id, err := netip.ParseAddr(f[1])
		if err != nil {
			return p.errf("bad router-id")
		}
		p.osp.RouterID = id
	case f[0] == "network" && len(f) == 5 && f[3] == "area":
		pfx, err := ParseNetWildcard(f[1], f[2])
		if err != nil {
			return p.errf("%v", err)
		}
		area, err := strconv.Atoi(f[4])
		if err != nil || area < 0 {
			return p.errf("bad area")
		}
		p.osp.Networks = append(p.osp.Networks, netmodel.OSPFNetwork{Prefix: pfx, Area: area})
	case f[0] == "area" && len(f) == 5 && f[2] == "range":
		area, err := strconv.Atoi(f[1])
		if err != nil || area < 0 {
			return p.errf("bad area")
		}
		addr, err := netip.ParseAddr(f[3])
		if err != nil {
			return p.errf("bad range address")
		}
		ones, err := maskToBits(f[4])
		if err != nil {
			return p.errf("%v", err)
		}
		pfx, err := addr.Prefix(ones)
		if err != nil {
			return p.errf("bad range prefix")
		}
		p.osp.Ranges = append(p.osp.Ranges, netmodel.OSPFNetwork{Prefix: pfx, Area: area})
	case f[0] == "passive-interface" && len(f) == 2:
		p.osp.Passive[f[1]] = true
	case f[0] == "no" && len(f) == 3 && f[1] == "passive-interface":
		delete(p.osp.Passive, f[2])
	default:
		return p.errf("unknown ospf statement")
	}
	return nil
}

func (p *parser) bgpLine(line string) error {
	f := strings.Fields(line)
	switch {
	case len(f) == 3 && f[0] == "bgp" && f[1] == "router-id":
		id, err := netip.ParseAddr(f[2])
		if err != nil {
			return p.errf("bad bgp router-id")
		}
		p.bgp.RouterID = id
	case len(f) == 4 && f[0] == "neighbor" && f[2] == "remote-as":
		addr, err := netip.ParseAddr(f[1])
		if err != nil {
			return p.errf("bad bgp neighbor address")
		}
		asn, err := strconv.Atoi(f[3])
		if err != nil || asn <= 0 {
			return p.errf("bad bgp remote-as")
		}
		p.bgp.SetNeighbor(addr, asn)
	case len(f) == 4 && f[0] == "network" && f[2] == "mask":
		pfx, err := ParseAddrMask(f[1], f[3])
		if err != nil {
			return p.errf("%v", err)
		}
		p.bgp.Networks = append(p.bgp.Networks, pfx.Masked())
	case len(f) == 2 && f[0] == "redistribute" && f[1] == "connected":
		p.bgp.RedistributeConnected = true
	default:
		return p.errf("unknown bgp statement")
	}
	return nil
}

func (p *parser) vlanLine(line string) error {
	f := strings.Fields(line)
	if f[0] == "name" && len(f) == 2 {
		p.vln.Name = f[1]
		return nil
	}
	return p.errf("unknown vlan statement")
}
