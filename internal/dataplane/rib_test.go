package dataplane

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
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
		keys[i] = prefixString(out[i].Prefix)
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

// ReferenceRIB rebuilds one device's RIB from the snapshot's retained
// protocol routes with the sort-based reference, for the external
// scenario tests.
func ReferenceRIB(s *Snapshot, device string) []FIBEntry {
	all := localRoutes(s.net.Devices[device])
	all = append(all, s.ospfRoutes[device]...)
	all = append(all, s.bgpRoutes[device]...)
	return bestPaths(all)
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
						AD: OSPF.adminDistance(), Metric: metric,
					})
				}
			}
			if r.Intn(4) == 0 {
				bgp = append(bgp, FIBEntry{
					Prefix: p, Proto: BGP, NextHop: hop(r, 2), OutIf: ifs[r.Intn(len(ifs))],
					AD: BGP.adminDistance(), Metric: r.Intn(3),
				})
			}
		}
		// Every input list arrives in RIB order, as ribFor's do.
		slices.SortFunc(local, compareRoute)
		slices.SortFunc(ospf, compareRoute)
		slices.SortFunc(bgp, compareRoute)

		all := append(append(append([]FIBEntry(nil), local...), ospf...), bgp...)
		want := bestPaths(all)
		got := mergeBest(local, ospf, bgp)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
	}
}
