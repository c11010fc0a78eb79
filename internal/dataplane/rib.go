package dataplane

import (
	"cmp"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"heimdall/internal/netmodel"
)

// octetRank and maskRank give Prefix.String()'s order as integers:
// octetRank[v] is the rank of v's decimal text among "0".."255" sorted as
// strings, maskRank[b] that of b's among "0".."32". Every octet's text ends
// in a separator ('.' or '/') that sorts below every digit, so a shorter
// text that is a prefix of a longer one sorts first octet by octet, exactly
// as the whole rendering does.
var octetRank, maskRank = textRanks(256), textRanks(33)

func textRanks(n int) []uint8 {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	ranks := make([]uint8, n)
	for r, v := range order {
		ranks[v] = uint8(r)
	}
	return ranks
}

// prefixKey is a valid IPv4 prefix's position in Prefix.String() order:
// the octets' text ranks, then the mask's. The address is taken as is, so
// an unmasked prefix keys like its rendering too.
func prefixKey(p netip.Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(octetRank[a[0]])<<30 | uint64(octetRank[a[1]])<<22 |
		uint64(octetRank[a[2]])<<14 | uint64(octetRank[a[3]])<<6 | uint64(maskRank[p.Bits()])
}

// comparePrefix orders prefixes as strings.Compare orders their String()
// renderings: by prefixKey for IPv4, by the renderings otherwise.
func comparePrefix(a, b netip.Prefix) int {
	if a == b {
		return 0
	}
	if a.IsValid() && b.IsValid() && a.Addr().Is4() && b.Addr().Is4() {
		return cmp.Compare(prefixKey(a), prefixKey(b))
	}
	return strings.Compare(a.String(), b.String())
}

// RouteProto identifies how a route was learned.
type RouteProto int

const (
	// Connected routes cover the subnets of up, addressed interfaces.
	Connected RouteProto = iota
	// Static routes come from "ip route" statements.
	Static
	// OSPF routes are computed by the link-state process.
	OSPF
	// BGP routes are learned over eBGP sessions.
	BGP
)

// String returns the IOS-style route code letter ("C", "S", "O").
func (p RouteProto) String() string {
	switch p {
	case Connected:
		return "C"
	case Static:
		return "S"
	case OSPF:
		return "O"
	case BGP:
		return "B"
	default:
		return "?"
	}
}

// FIBEntry is one forwarding-table entry: a next hop (or directly connected
// subnet) through an egress interface.
type FIBEntry struct {
	Prefix netip.Prefix
	Proto  RouteProto
	// NextHop is the invalid Addr for connected routes.
	NextHop netip.Addr
	// OutIf is the egress interface name.
	OutIf string
	// AD and Metric order competing routes.
	AD     int
	Metric int
}

// Connected reports whether the entry is a directly connected subnet.
func (e FIBEntry) Connected() bool { return !e.NextHop.IsValid() }

// String renders the entry in show-ip-route style.
func (e FIBEntry) String() string { return string(e.appendTo(make([]byte, 0, 64))) }

// appendTo appends String's rendering to b, the one renderer behind String
// and FormatRIB.
func (e FIBEntry) appendTo(b []byte) []byte {
	b = append(append(b, e.Proto.String()...), ' ')
	if e.Prefix.IsValid() {
		b = e.Prefix.AppendTo(b)
	} else {
		b = append(b, "invalid Prefix"...) // the zero Prefix too, as its String
	}
	if e.Connected() {
		b = append(b, " is directly connected, "...)
	} else {
		b = strconv.AppendInt(append(b, " ["...), int64(e.AD), 10)
		b = strconv.AppendInt(append(b, '/'), int64(e.Metric), 10)
		b = e.NextHop.AppendTo(append(b, "] via "...))
		b = append(b, ", "...)
	}
	return append(b, e.OutIf...)
}

// route is one route as a pointer-free IPv4 row, what a route cell holds
// its OSPF, BGP and RIB routes as: building, merging and indexing a table
// copies no pointer. addr and bits are the prefix as given (an unmasked
// prefix renders as given), key its RIB-order key (prefixKey); hop is the
// next hop's address with bit 32 set, 0 for a directly connected route, so
// hops order as netip.Addr orders them; outIf indexes the interface names
// of the routeRows holding the row.
type route struct {
	key    uint64
	hop    uint64
	ad     int
	metric int
	addr   uint32
	outIf  uint16
	bits   uint8
	proto  uint8
}

// routeRows is a list of rows and the interface names they index.
type routeRows struct {
	rows []route
	ifs  []string
}

// newRoute is p's row via hop (the invalid Addr: directly connected) out of
// interface ifs[outIf], or false when p or hop is not IPv4: the dataplane
// forwards IPv4 only, and holds only IPv4 routes.
func newRoute(p netip.Prefix, proto RouteProto, hop netip.Addr, outIf, ad, metric int) (route, bool) {
	if !p.Addr().Is4() || hop.IsValid() && !hop.Is4() {
		return route{}, false
	}
	r := route{key: prefixKey(p), addr: addrBits(p.Addr()), bits: uint8(p.Bits()), proto: uint8(proto),
		outIf: uint16(outIf), ad: ad, metric: metric}
	if hop.IsValid() {
		r.hop = 1<<32 | uint64(addrBits(hop))
	}
	return r, true
}

// nextHop is the row's next hop, the invalid Addr when directly connected.
func (r *route) nextHop() netip.Addr {
	if r.hop == 0 {
		return netip.Addr{}
	}
	return bitsAddr(uint32(r.hop))
}

// entry is the row as a FIBEntry, its interface named from ifs.
func (r *route) entry(ifs []string) FIBEntry {
	return FIBEntry{Prefix: netip.PrefixFrom(bitsAddr(r.addr), int(r.bits)), Proto: RouteProto(r.proto),
		NextHop: r.nextHop(), OutIf: ifs[r.outIf], AD: r.ad, Metric: r.metric}
}

// entries materializes the rows as FIBEntries.
func (rs routeRows) entries() []FIBEntry {
	out := make([]FIBEntry, len(rs.rows))
	for i := range rs.rows {
		out[i] = rs.rows[i].entry(rs.ifs)
	}
	return out
}

// sameRoutes reports whether two lists hold the same routes, rows equal and
// interfaces equal by name (two lists may number their names apart).
func sameRoutes(a, b routeRows) bool {
	return slices.EqualFunc(a.rows, b.rows, func(x, y route) bool {
		ix, iy := x.outIf, y.outIf
		x.outIf, y.outIf = 0, 0
		return x == y && a.ifs[ix] == b.ifs[iy]
	})
}

// ifIndex returns name's position in *ifs, appending it when absent. Route
// lists name a handful of interfaces, so the scan beats a map.
func ifIndex(ifs *[]string, name string) int {
	if i := slices.Index(*ifs, name); i >= 0 {
		return i
	}
	*ifs = append(*ifs, name)
	return len(*ifs) - 1
}

// ribFor computes a device's full routing table from its own connected and
// static candidates and its OSPF and BGP routes. Entries are best-path only
// (lowest administrative distance, then metric), with ECMP preserved,
// ordered by (prefix string, next hop, out-interface).
func ribFor(d *netmodel.Device, ospf, bgp routeRows) routeRows {
	// Only the handful of local candidates needs sorting: the protocol
	// passes already emit their routes in RIB order.
	local := localRoutes(d)
	slices.SortFunc(local.rows, func(a, b route) int { return compareRoute(a, b, local.ifs) })
	return mergeBest(local, ospf, bgp)
}

// compareRoute is RIB order: (prefix string, next hop, out-interface), the
// interfaces named from ifs.
func compareRoute(a, b route, ifs []string) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return compareHop(a, b, ifs)
}

// compareHop orders two routes of one prefix by (next hop, out-interface).
func compareHop(a, b route, ifs []string) int {
	if c := cmp.Compare(a.hop, b.hop); c != 0 {
		return c
	}
	return strings.Compare(ifs[a.outIf], ifs[b.outIf])
}

// localRoutes lists the device's connected and static candidates, in no
// particular order, over its interface names in name order.
func localRoutes(d *netmodel.Device) routeRows {
	ifs := d.InterfaceNames()
	rows := make([]route, 0, len(ifs)+len(d.StaticRoutes)+1)
	add := func(p netip.Prefix, proto RouteProto, hop netip.Addr, outIf, ad int) {
		if r, ok := newRoute(p, proto, hop, outIf, ad, 0); ok {
			rows = append(rows, r)
		}
	}
	// onSubnet is how the device decides it can ARP a next hop directly:
	// the first up, addressed interface in name order whose subnet holds a
	// answers, and resolves it only when it is an L3 endpoint.
	onSubnet := func(a netip.Addr) (int, bool) {
		for i, name := range ifs {
			if itf := d.Interfaces[name]; itf.Up() && itf.HasAddr() && itf.Addr.Masked().Contains(a) {
				return i, l3Endpoint(itf)
			}
		}
		return 0, false
	}

	// Connected.
	for i, name := range ifs {
		if itf := d.Interfaces[name]; l3Endpoint(itf) {
			add(itf.Addr.Masked(), Connected, netip.Addr{}, i, 0)
		}
	}

	// Static. A static route is active only when its next hop lies in a
	// connected subnet (single-level resolution, the common enterprise case).
	for _, r := range d.StaticRoutes {
		if i, ok := onSubnet(r.NextHop); ok {
			add(r.Prefix, Static, r.NextHop, i, r.AdminDistance())
		}
	}

	// Host default gateway behaves like a static default route.
	if d.Kind == netmodel.Host && d.DefaultGateway.IsValid() {
		if i, ok := onSubnet(d.DefaultGateway); ok {
			add(netip.PrefixFrom(netip.IPv4Unspecified(), 0), Static, d.DefaultGateway, i, 1)
		}
	}
	return routeRows{rows, ifs}
}

// mergeBest merges the three candidate lists of one device, each already in
// RIB order — (prefix string, next hop, out-interface) — into its RIB,
// keeping for every prefix only the rows with the lowest (AD, metric) and
// preserving equal-cost multipath. The RIB names the three lists'
// interfaces one after another. The lexical prefix-string order is
// load-bearing: the first row of a prefix is the default ECMP selection,
// and the derive oracles compare RIBs entry for entry.
func mergeBest(local, ospf, bgp routeRows) routeRows {
	lists := [3][]route{local.rows, ospf.rows, bgp.rows}
	base := [3]uint16{0, uint16(len(local.ifs)), uint16(len(local.ifs) + len(ospf.ifs))}
	out := routeRows{rows: make([]route, 0, len(local.rows)+len(ospf.rows)+len(bgp.rows)), ifs: local.ifs}
	if len(ospf.ifs)+len(bgp.ifs) > 0 {
		out.ifs = slices.Concat(local.ifs, ospf.ifs, bgp.ifs)
	}
	for {
		// The smallest front prefix across the lists is the next RIB prefix.
		first := -1
		for k := range lists {
			if len(lists[k]) > 0 && (first < 0 || lists[k][0].key < lists[first][0].key) {
				first = k
			}
		}
		if first < 0 {
			return out
		}
		key := lists[first][0].key

		// Pass 1 over the prefix's run in every list: its best (AD, metric).
		ad, metric := lists[first][0].ad, lists[first][0].metric
		for _, l := range lists {
			for i := 0; i < len(l) && l[i].key == key; i++ {
				if e := &l[i]; e.ad < ad || (e.ad == ad && e.metric < metric) {
					ad, metric = e.ad, e.metric
				}
			}
		}
		// Pass 2: emit the survivors and step every list past the run.
		from := len(out.rows)
		for k := range lists {
			l, i := lists[k], 0
			for ; i < len(l) && l[i].key == key; i++ {
				if l[i].ad == ad && l[i].metric == metric {
					r := l[i]
					r.outIf += base[k]
					out.rows = append(out.rows, r)
				}
			}
			lists[k] = l[i:]
		}
		// Each list's survivors are in hop order; when lists tie on
		// (AD, metric) this interleaves them, otherwise it is one pass
		// over a sorted run.
		if run := out.rows[from:]; len(run) > 1 {
			slices.SortStableFunc(run, func(a, b route) int { return compareHop(a, b, out.ifs) })
		}
	}
}
