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

// adminDistance returns the default administrative distance of the protocol.
func (p RouteProto) adminDistance() int {
	switch p {
	case Connected:
		return 0
	case Static:
		return 1
	case OSPF:
		return 110
	case BGP:
		return ebgpAdminDistance
	}
	return 255
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

// ribFor computes a device's full routing table from its own connected and
// static candidates and its OSPF and BGP routes. Entries are best-path only
// (lowest administrative distance, then metric), with ECMP preserved,
// ordered by (prefix string, next hop, out-interface).
func ribFor(d *netmodel.Device, ospf, bgp []FIBEntry) []FIBEntry {
	// Only the handful of local candidates needs sorting: the protocol
	// passes already emit their routes in RIB order.
	local := localRoutes(d)
	slices.SortFunc(local, compareRoute)
	return mergeBest(local, ospf, bgp)
}

// compareRoute is RIB order: (prefix string, next hop, out-interface).
func compareRoute(a, b FIBEntry) int {
	if c := comparePrefix(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	return compareHop(a, b)
}

// localRoutes lists the device's connected and static candidates, in no
// particular order.
func localRoutes(d *netmodel.Device) []FIBEntry {
	local := make([]FIBEntry, 0, len(d.Interfaces)+len(d.StaticRoutes)+1)

	// Connected.
	for ifName, itf := range d.Interfaces {
		if l3Endpoint(itf) {
			local = append(local, FIBEntry{
				Prefix: itf.Addr.Masked(),
				Proto:  Connected,
				OutIf:  ifName,
			})
		}
	}

	// Static. A static route is active only when its next hop lies in a
	// connected subnet (single-level resolution, the common enterprise case).
	for _, r := range d.StaticRoutes {
		if itf, ok := d.AddrOnSubnet(r.NextHop); ok && l3Endpoint(itf) {
			local = append(local, FIBEntry{
				Prefix:  r.Prefix,
				Proto:   Static,
				NextHop: r.NextHop,
				OutIf:   itf.Name,
				AD:      r.AdminDistance(),
			})
		}
	}

	// Host default gateway behaves like a static default route.
	if d.Kind == netmodel.Host && d.DefaultGateway.IsValid() {
		if itf, ok := d.AddrOnSubnet(d.DefaultGateway); ok && l3Endpoint(itf) {
			local = append(local, FIBEntry{
				Prefix:  netip.MustParsePrefix("0.0.0.0/0"),
				Proto:   Static,
				NextHop: d.DefaultGateway,
				OutIf:   itf.Name,
				AD:      1,
			})
		}
	}
	return local
}

// compareHop orders two entries of one prefix by (next hop, out-interface).
func compareHop(a, b FIBEntry) int {
	if c := a.NextHop.Compare(b.NextHop); c != 0 {
		return c
	}
	return strings.Compare(a.OutIf, b.OutIf)
}

// mergeBest merges the three candidate lists of one device, each already in
// RIB order — (prefix string, next hop, out-interface) — into its RIB,
// keeping for every prefix only the entries with the lowest (AD, metric)
// and preserving equal-cost multipath. The lexical prefix-string order is
// load-bearing: the first entry of a prefix is the default ECMP selection,
// and the derive oracles compare RIBs entry for entry.
func mergeBest(local, ospf, bgp []FIBEntry) []FIBEntry {
	lists := [3][]FIBEntry{local, ospf, bgp}
	out := make([]FIBEntry, 0, len(local)+len(ospf)+len(bgp))
	for {
		// The smallest front prefix across the lists is the next RIB prefix.
		first := -1
		for k := range lists {
			if len(lists[k]) > 0 && (first < 0 || comparePrefix(lists[k][0].Prefix, lists[first][0].Prefix) < 0) {
				first = k
			}
		}
		if first < 0 {
			return out
		}
		p := lists[first][0].Prefix

		// Pass 1 over the prefix's run in every list: its best (AD, metric).
		ad, metric := lists[first][0].AD, lists[first][0].Metric
		for _, l := range lists {
			for i := 0; i < len(l) && l[i].Prefix == p; i++ {
				if e := &l[i]; e.AD < ad || (e.AD == ad && e.Metric < metric) {
					ad, metric = e.AD, e.Metric
				}
			}
		}
		// Pass 2: emit the survivors and step every list past the run.
		from := len(out)
		for k := range lists {
			l, i := lists[k], 0
			for ; i < len(l) && l[i].Prefix == p; i++ {
				if l[i].AD == ad && l[i].Metric == metric {
					out = append(out, l[i])
				}
			}
			lists[k] = l[i:]
		}
		// Each list's survivors are in hop order; when lists tie on
		// (AD, metric) this interleaves them, otherwise it is one pass
		// over a sorted run.
		if run := out[from:]; len(run) > 1 {
			slices.SortStableFunc(run, compareHop)
		}
	}
}
