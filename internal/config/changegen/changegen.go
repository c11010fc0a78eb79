// Package changegen decodes fuzz input into configuration change sets and
// undo lists, for the fuzz targets that hold a hand-written encoder to its
// oracle: the change-set digest (internal/verify) and the journal's link
// content (internal/journal). Nothing but tests imports it.
package changegen

import (
	"net/netip"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
)

// Draw decodes data into a change set and then an undo list; a read past
// the end of data is 0. Every field is drawn from a few values, so equal
// sets come up often. A string is one of a few, one of which is two others
// run together (an encoding that does not delimit them collides) and two
// of which need every kind of JSON escape; an address is zero, IPv4, IPv6
// or zoned (one zone needs escaping); a prefix's length may exceed its
// address's, which makes it invalid; a list or a map is nil, empty, or
// holds one or two elements.
func Draw(data []byte) ([]config.Change, []config.Undo) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	num := func() int { return int(int8(next())) }
	str := func() string {
		return []string{"", "a", "b", "ab", "Gi0/0", `<"\>&`, "\x01\n\xff é"}[next()%7]
	}
	flag := func() bool { return next()&1 == 1 }
	n := func() int { return int(next()%4) - 1 } // -1 for nil
	addr := func() netip.Addr {
		switch next() % 4 {
		case 1:
			return netip.AddrFrom4([4]byte{10, 0, next() % 2, next() % 3})
		case 2:
			return netip.AddrFrom16([16]byte{15: next() % 3})
		case 3:
			return netip.AddrFrom16([16]byte{0: 0xfe, 1: 0x80, 15: 1}).WithZone([]string{"", "eth0", "<e\"0>"}[next()%3])
		}
		return netip.Addr{}
	}
	prefix := func() netip.Prefix {
		a := addr()
		if !a.IsValid() {
			return netip.Prefix{}
		}
		return netip.PrefixFrom(a, int(next()%40))
	}
	areas := func() []netmodel.OSPFNetwork {
		k := n()
		if k < 0 {
			return nil
		}
		out := make([]netmodel.OSPFNetwork, k)
		for i := range out {
			out[i] = netmodel.OSPFNetwork{Prefix: prefix(), Area: num()}
		}
		return out
	}
	entry := func() netmodel.ACLEntry {
		return netmodel.ACLEntry{Seq: num(), Action: netmodel.ACLAction(next() % 2), Proto: netmodel.Protocol(next() % 4),
			Src: prefix(), Dst: prefix(), SrcPort: uint16(next()), DstPort: uint16(next())}
	}
	route := func() netmodel.StaticRoute {
		return netmodel.StaticRoute{Prefix: prefix(), NextHop: addr(), Distance: num()}
	}
	// The payloads, drawn when bit 1, 2, 4, … of present is set.
	var present byte
	iface := func() *netmodel.Interface {
		if present&1 == 0 {
			return nil
		}
		i := &netmodel.Interface{Name: str(), Description: str(), Addr: prefix(), Shutdown: flag(),
			ACLIn: str(), ACLOut: str(), Mode: netmodel.SwitchportMode(next() % 3), AccessVLAN: num(), OSPFCost: num()}
		if k := n(); k >= 0 {
			i.TrunkVLANs = make([]int, k)
			for j := range i.TrunkVLANs {
				i.TrunkVLANs[j] = num()
			}
		}
		return i
	}
	ospf := func() *netmodel.OSPFProcess {
		if present&8 == 0 {
			return nil
		}
		o := &netmodel.OSPFProcess{ProcessID: num(), RouterID: addr(), Networks: areas(), Ranges: areas()}
		if k := n(); k >= 0 {
			o.Passive = make(map[string]bool, k)
			for j := 0; j < k; j++ {
				o.Passive[str()] = flag()
			}
		}
		return o
	}
	bgp := func() *netmodel.BGPProcess {
		if present&16 == 0 {
			return nil
		}
		p := &netmodel.BGPProcess{LocalAS: num(), RouterID: addr(), RedistributeConnected: flag()}
		if k := n(); k >= 0 {
			p.Neighbors = make([]netmodel.BGPNeighbor, k)
			for j := range p.Neighbors {
				p.Neighbors[j] = netmodel.BGPNeighbor{Addr: addr(), RemoteAS: num()}
			}
		}
		if k := n(); k >= 0 {
			p.Networks = make([]netip.Prefix, k)
			for j := range p.Networks {
				p.Networks[j] = prefix()
			}
		}
		return p
	}
	vlan := func() *netmodel.VLAN {
		if present&32 == 0 {
			return nil
		}
		return &netmodel.VLAN{ID: num(), Name: str()}
	}

	changes := make([]config.Change, next()%4)
	for i := range changes {
		c := config.Change{Device: str(), Op: config.Op(next() % 17), ACLName: str(), Seq: num(), VLANID: num(), Gateway: addr()}
		present = next()
		c.Interface = iface()
		if present&2 != 0 {
			e := entry()
			c.Entry = &e
		}
		if present&4 != 0 {
			r := route()
			c.Route = &r
		}
		c.OSPF, c.BGP, c.VLAN = ospf(), bgp(), vlan()
		changes[i] = c
	}

	undos := make([]config.Undo, next()%4)
	for i := range undos {
		u := config.Undo{Device: str(), Section: str(), Name: str(), VLANID: num()}
		present = next()
		u.Interface = iface()
		if present&2 != 0 {
			u.ACL = &netmodel.ACL{Name: str()}
			if k := n(); k >= 0 {
				u.ACL.Entries = make([]netmodel.ACLEntry, k)
				for j := range u.ACL.Entries {
					u.ACL.Entries[j] = entry()
				}
			}
		}
		if present&4 != 0 {
			if k := n(); k >= 0 {
				u.Routes = make([]netmodel.StaticRoute, k)
				for j := range u.Routes {
					u.Routes[j] = route()
				}
			}
		}
		u.OSPF, u.BGP, u.VLAN = ospf(), bgp(), vlan()
		if present&64 != 0 {
			a := addr()
			u.Gateway = &a
		}
		undos[i] = u
	}
	return changes, undos
}
