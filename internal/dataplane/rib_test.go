package dataplane

import (
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

// bestPaths is the RIB assembly ribFor used before mergeBest, moved here
// unchanged as the reference: filter the concatenated candidates down to
// each prefix's lowest (AD, metric), then sort everything by (prefix string,
// next hop, out-interface).
func bestPaths(entries []FIBEntry) []FIBEntry {
	type adMetric struct{ ad, metric int }
	best := make(map[netip.Prefix]adMetric, len(entries))
	for _, e := range entries {
		b, ok := best[e.Prefix]
		if !ok || e.AD < b.ad || (e.AD == b.ad && e.Metric < b.metric) {
			best[e.Prefix] = adMetric{e.AD, e.Metric}
		}
	}
	out := make([]FIBEntry, 0, len(entries))
	for _, e := range entries {
		if b := best[e.Prefix]; e.AD == b.ad && e.Metric == b.metric {
			out = append(out, e)
		}
	}
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].Prefix.String()
	}
	sort.Sort(&ribOrder{entries: out, keys: keys})
	return out
}

// ribOrder sorts FIB entries with their cached prefix-string sort keys.
type ribOrder struct {
	entries []FIBEntry
	keys    []string
}

func (r *ribOrder) Len() int { return len(r.entries) }
func (r *ribOrder) Swap(i, j int) {
	r.entries[i], r.entries[j] = r.entries[j], r.entries[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}
func (r *ribOrder) Less(i, j int) bool {
	if r.keys[i] != r.keys[j] {
		return r.keys[i] < r.keys[j]
	}
	if r.entries[i].NextHop != r.entries[j].NextHop {
		return r.entries[i].NextHop.Less(r.entries[j].NextHop)
	}
	return r.entries[i].OutIf < r.entries[j].OutIf
}

// ReferenceRIB rebuilds one device's RIB from the snapshot's LSDB and BGP
// routes with the sort-based reference, for the external scenario tests.
func ReferenceRIB(s *Snapshot, device string) []FIBEntry {
	all := localRoutes(s.net.Devices[device]).entries()
	if si, ok := s.lsdb.index[device]; ok {
		all = append(all, s.lsdb.routesFrom(si).entries()...)
	}
	all = append(all, s.bgpRoutes[device].entries()...)
	return bestPaths(all)
}

// rowsOf is the rows of IPv4 entries, each interface named once, in RIB
// order.
func rowsOf(entries []FIBEntry) routeRows {
	var rs routeRows
	for _, e := range entries {
		r, ok := newRoute(e.Prefix, e.Proto, e.NextHop, ifIndex(&rs.ifs, e.OutIf), e.AD, e.Metric)
		if !ok {
			panic("not an IPv4 route: " + e.String())
		}
		rs.rows = append(rs.rows, r)
	}
	slices.SortFunc(rs.rows, func(a, b route) int { return compareRoute(a, b, rs.ifs) })
	return rs
}

// Property: the three-way merge equals filter-then-sort on random candidate
// lists — one prefix offered by several protocols, ECMP runs, statics with
// custom distances (tying with OSPF and BGP), duplicate entries.
func TestMergeBestMatchesReference(t *testing.T) {
	// "10.10.0.0/16" < "10.2.0.0/16" lexically but not numerically: the
	// order under test is the string's.
	pool := []netip.Prefix{
		pfx("0.0.0.0/0"), pfx("10.10.0.0/16"), pfx("10.2.0.0/16"), pfx("10.2.0.0/24"),
		pfx("10.2.1.0/24"), pfx("10.2.10.0/24"), pfx("10.2.0.4/30"), pfx("10.2.0.9/32"),
		pfx("172.16.0.0/12"), pfx("192.168.100.0/24"), pfx("9.0.0.0/8"),
	}
	ifs := []string{"Gi0/0", "Gi0/1", "Gi0/10", "Vlan20"}
	// Each list draws next hops from its own set, so entries of different
	// protocols never share a full sort key and the reference's unstable
	// sort has one possible outcome; the sets interleave, so tying lists
	// must be merged by hop and not just concatenated.
	hop := func(r *rand.Rand, list int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 0, byte(1 + r.Intn(3)), byte(list)})
	}
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		var local, ospf, bgp []FIBEntry
		for i, n := 0, r.Intn(9); i < n; i++ {
			p := pool[r.Intn(len(pool))]
			switch r.Intn(4) {
			case 0:
				local = append(local, FIBEntry{Prefix: p, Proto: Connected, OutIf: ifs[r.Intn(len(ifs))]})
			case 1:
				if len(local) > 0 {
					local = append(local, local[r.Intn(len(local))])
					continue
				}
				fallthrough
			default:
				local = append(local, FIBEntry{
					Prefix: p, Proto: Static, NextHop: hop(r, 0), OutIf: ifs[r.Intn(len(ifs))],
					AD: []int{1, 1, 20, 110, 200}[r.Intn(5)],
				})
			}
		}
		for _, p := range pool {
			if r.Intn(3) == 0 {
				metric := r.Intn(4) // 0 ties with a static of distance 110
				for _, k := range r.Perm(len(ifs))[:1+r.Intn(3)] {
					ospf = append(ospf, FIBEntry{
						Prefix: p, Proto: OSPF, NextHop: hop(r, 1), OutIf: ifs[k],
						AD: ospfAdminDistance, Metric: metric,
					})
				}
			}
			if r.Intn(4) == 0 {
				bgp = append(bgp, FIBEntry{
					Prefix: p, Proto: BGP, NextHop: hop(r, 2), OutIf: ifs[r.Intn(len(ifs))],
					AD: ebgpAdminDistance, Metric: r.Intn(3),
				})
			}
		}
		// Every input list arrives in RIB order, as ribFor's do.
		all := append(append(append([]FIBEntry(nil), local...), ospf...), bgp...)
		want := bestPaths(all)
		got := mergeBest(rowsOf(local), rowsOf(ospf), rowsOf(bgp)).entries()
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
	}
}

// sign folds a comparison result to -1, 0 or 1.
func sign(c int) int { return min(max(c, -1), 1) }

// Property: comparePrefix orders prefixes exactly as strings.Compare orders
// their String() renderings — random IPv4 prefixes, masked and unmasked,
// /0 to /32, octets drawn so that short and long texts share leading digits
// ("1", "10", "100", "19", "2", "255") — and falls back to the renderings
// for IPv6, 4-in-6 and invalid prefixes, alone or against IPv4.
func TestPrefixKeyOrdersLikeString(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	octet := func() byte {
		if r.Intn(2) == 0 {
			return []byte{0, 1, 2, 9, 10, 19, 20, 25, 100, 199, 200, 249, 250, 255}[r.Intn(14)]
		}
		return byte(r.Intn(256))
	}
	random := func() netip.Prefix {
		a := netip.AddrFrom4([4]byte{octet(), octet(), octet(), octet()})
		p := netip.PrefixFrom(a, r.Intn(33))
		switch r.Intn(12) {
		case 0:
			return netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+r.Intn(33)) // 4-in-6
		case 1:
			return netip.MustParsePrefix("2001:db8::/" + strconv.Itoa(r.Intn(129)))
		case 2:
			return netip.Prefix{}
		case 3, 4, 5:
			return p.Masked()
		}
		return p
	}
	for i := 0; i < 200000; i++ {
		a, b := random(), random()
		if got, want := sign(comparePrefix(a, b)), sign(strings.Compare(a.String(), b.String())); got != want {
			t.Fatalf("comparePrefix(%s, %s) = %d, strings.Compare = %d", a, b, got, want)
		}
	}
	// Every octet text against every other, as whole prefixes.
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			a := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(x), 0, 0}), 16)
			b := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(y), 0, 0}), 16)
			if sign(comparePrefix(a, b)) != sign(strings.Compare(a.String(), b.String())) {
				t.Fatalf("comparePrefix(%s, %s) disagrees with the strings", a, b)
			}
		}
	}
}

// RIB order costs no allocation: compareRoute keys IPv4 prefixes by integer
// and keeps no table that could grow with the prefixes a process sees.
func TestCompareRouteAllocatesNothing(t *testing.T) {
	rs := rowsOf([]FIBEntry{
		{Prefix: pfx("10.10.0.0/16"), NextHop: netip.MustParseAddr("10.0.0.1"), OutIf: "Gi0/0"},
		{Prefix: pfx("10.2.0.0/16"), NextHop: netip.MustParseAddr("10.0.0.2"), OutIf: "Gi0/1"},
		{Prefix: pfx("10.10.0.0/16"), NextHop: netip.MustParseAddr("10.0.0.1"), OutIf: "Gi0/2"},
	})
	a, c, b, ifs := rs.rows[0], rs.rows[1], rs.rows[2], rs.ifs
	var sink int
	// The race detector allocates on its own: CI's "Allocation budgets" step
	// runs this check without -race.
	if n := testing.AllocsPerRun(100, func() {
		sink += compareRoute(a, b, ifs) + compareRoute(b, a, ifs) + compareRoute(a, c, ifs)
	}); n != 0 && !RaceEnabled {
		t.Errorf("compareRoute allocates %.0f times per call", n)
	}
	if ifs[a.outIf] != "Gi0/0" || ifs[c.outIf] != "Gi0/2" || compareRoute(a, b, ifs) >= 0 || compareRoute(a, c, ifs) >= 0 {
		t.Error(`"10.10.0.0/16" must sort before "10.2.0.0/16", Gi0/0 before Gi0/2`)
	}
	_ = sink
}

// FIBLookup is the device's longest-prefix-match table as a lookup, for the
// external benchmark.
func FIBLookup(s *Snapshot, device string) func(netip.Addr) (int, bool) {
	i, _ := slices.BinarySearch(s.names, device)
	return s.cell(i).fib.lookup
}

// A route row, and an SPF first hop, holds no pointer: building, merging
// and indexing a route cell copies nothing the collector scans and needs no
// write barrier.
func TestRouteRowHoldsNoPointer(t *testing.T) {
	var pointers func(reflect.Type) bool
	pointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			return false
		case reflect.Array:
			return pointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if pointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	for _, v := range []any{route{}, ospfHop(0)} {
		if typ := reflect.TypeOf(v); pointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// TestStaticRouteResolution pins how a static route's next hop and a host's
// gateway resolve: the first up, addressed interface in name order whose
// subnet holds the address answers, and the route is active only when that
// interface is an L3 endpoint. A shut interface and an address on no
// subnet resolve nothing, and an access port that answers first deactivates
// a route a later routed interface would have carried.
func TestStaticRouteResolution(t *testing.T) {
	n := netmodel.NewNetwork("resolve")
	r1 := n.AddDevice("r1", netmodel.Router)
	r1.AddInterface("Gi0/0").Addr = netip.MustParsePrefix("10.0.1.1/24")
	shut := r1.AddInterface("Gi0/1")
	shut.Addr, shut.Shutdown = netip.MustParsePrefix("10.0.2.1/24"), true
	access := r1.AddInterface("Gi0/2")
	access.Addr, access.Mode = netip.MustParsePrefix("10.0.4.1/24"), netmodel.Access
	r1.AddInterface("Gi0/3").Addr = netip.MustParsePrefix("10.0.4.2/23")
	via := map[string]string{
		"192.168.1.0/24": "10.0.1.99", // on Gi0/0: active
		"192.168.2.0/24": "10.0.2.99", // on the shut Gi0/1 only: inactive
		"192.168.3.0/24": "10.0.5.99", // Gi0/3's /23, the only subnet holding it
		"192.168.4.0/24": "10.0.4.99", // the access port answers before Gi0/3
		"192.168.5.0/24": "10.9.0.1",  // on no subnet
	}
	for p, hop := range via {
		r1.StaticRoutes = append(r1.StaticRoutes, netmodel.StaticRoute{Prefix: netip.MustParsePrefix(p), NextHop: netip.MustParseAddr(hop)})
	}
	h1 := n.AddDevice("h1", netmodel.Host)
	h1.AddInterface("eth0").Addr = netip.MustParsePrefix("10.0.1.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.0.1.1")
	h2 := n.AddDevice("h2", netmodel.Host)
	h2.AddInterface("eth0").Addr = netip.MustParsePrefix("10.0.1.11/24")
	h2.DefaultGateway = netip.MustParseAddr("10.0.7.1")

	snap := Compute(n)
	statics := func(dev string) map[string]string {
		out := map[string]string{}
		for _, e := range snap.RIB(dev) {
			if e.Proto == Static {
				out[e.Prefix.String()] = e.OutIf
			}
		}
		return out
	}
	if got, want := statics("r1"), map[string]string{"192.168.1.0/24": "Gi0/0", "192.168.3.0/24": "Gi0/3"}; !maps.Equal(got, want) {
		t.Fatalf("r1's static routes = %v, want %v", got, want)
	}
	if got, want := statics("h1"), map[string]string{"0.0.0.0/0": "eth0"}; !maps.Equal(got, want) {
		t.Fatalf("h1's gateway route = %v, want %v", got, want)
	}
	if got := statics("h2"); len(got) != 0 {
		t.Fatalf("h2's gateway is on no subnet, yet it routes %v", got)
	}
}
