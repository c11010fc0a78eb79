package dataplane

import (
	"cmp"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"heimdall/internal/netmodel"
)

// The OSPF link-state pass is built around an explicit, canonical LSDB.
// buildLSDB distills a network's OSPF configuration plus the L2 adjacency
// into an area-partitioned, index-addressed router graph; the SPF pass runs
// hierarchically (per-area Dijkstra plus ABR summaries, the standard
// two-level OSPF model). deriveLSDB patches a parent's LSDB row by row, and
// staleSources finds, from the rows the patch replaced, the sources whose
// shortest paths can have moved: those sharing an (area, component) scope
// with a replaced row.

// ospfAdminDistance is the administrative distance of an OSPF route.
const ospfAdminDistance = 110

// lsdbEdge is one adjacency edge of an OSPF area's router graph. peer is a
// position within that area's member list, not a global source index.
type lsdbEdge struct {
	peer     int
	localIf  string
	peerAddr netip.Addr
	cost     int
}

// ospfLSDB is the link-state database: every OSPF router, its per-area
// graph edges, and its advertised prefixes, all index-addressed and
// deterministically ordered, so two LSDBs with element-wise equal rows
// produce identical SPF results.
//
// The graph is partitioned by OSPF area. Area 0 (when present) is the
// backbone: routers with interfaces in area 0 and at least one other area
// are ABRs. An ABR advertises each attached nonzero area's prefixes into
// the backbone at its intra-area cost (a type-3 summary), and re-advertises
// its backbone view — intra routes plus backbone-learned summaries — into
// its nonzero areas. Sources prefer intra-area routes over inter-area ones
// regardless of cost, per OSPF route preference. A single-area network
// degenerates to one flat SPF, byte-identical to the pre-partitioned pass.
type ospfLSDB struct {
	sources []string       // router names, sorted
	index   map[string]int // name -> index into sources

	// Area partition. areas lists distinct area ids ascending; areasOf[i]
	// holds the positions (into areas) source i participates in, ascending.
	// Per area: members (source indices, ascending), localAt (source index
	// -> member position), per-member edge lists sorted by (peer, localIf,
	// peerAddr, cost), and per-member advertised prefixes in rank order.
	areas   []int
	areasOf [][]int
	members [][]int
	localAt []map[int]int
	aGraph  [][][]lsdbEdge
	aAdv    [][][]netip.Prefix

	adv    [][]netip.Prefix // per source, all areas, rank order
	advSet []map[netip.Prefix]bool
	// ranges holds each source's configured `area range` aggregation
	// statements in canonical (area, prefix-string) order. An ABR folds an
	// area's covered prefixes into the range prefix when summarizing them
	// into other areas; the summary cost is the minimum component cost
	// (RFC 1583 compatibility), so losing one covered prefix leaves the
	// aggregate — and every remote area's view — untouched as long as an
	// equal-cost component survives.
	ranges [][]netmodel.OSPFNetwork
	// rank maps every advertised prefix to its position in the global
	// lexical prefix-string order — per-source emission walks ranks in
	// order, which reproduces the String() order the route slices have
	// always used. ranked is the inverse (rank -> prefix).
	rank   map[netip.Prefix]int
	ranked []netip.Prefix
	// aRanks and advRanks are aAdv and adv as ranks, built once per LSDB at
	// the first routesFrom (ranks), so an SPF pass reads its advertisements
	// without a map lookup each.
	ranksOnce sync.Once
	aRanks    [][][]int32
	advRanks  [][]int32

	// Hierarchical state is lazy: single-area LSDBs (the common case) never
	// need it beyond the trivial backbone lookup.
	hierOnce sync.Once
	backbone int                    // position of area 0 in areas, or -1
	abrs     []int                  // ABR source indices, ascending
	sumInto0 []map[netip.Prefix]int // per ABR: nonzero-area prefix -> intra cost
	backView []map[netip.Prefix]int // per ABR: backbone-view prefix -> cost
}

// ospfInterface describes one OSPF-participating interface. cost is its
// OSPF cost: the hop count 1 unless an explicit OSPFCost is set.
type ospfInterface struct {
	dev     string
	name    string
	addr    netip.Prefix
	area    int
	cost    int
	passive bool
}

// buildLSDB collects the OSPF router graph and advertisements for n.
//
// Adjacency forms between two interfaces when they are L2-adjacent, share a
// subnet and an area, and neither is passive. Every enabled interface's
// subnet (including passive ones) is advertised into its interface's area.
// Inter-area routing follows the standard area-0 backbone rule explicitly:
// the SPF pass is per-area, and prefixes cross areas only as ABR summaries
// through the backbone (see ospfLSDB).
func buildLSDB(n *netmodel.Network, adj adjacency) *ospfLSDB {
	participants := make(map[netmodel.Endpoint]ospfInterface)
	var sources []string
	var areas []int
	for devName, d := range n.Devices {
		for ifName := range d.Interfaces {
			ep := netmodel.Endpoint{Device: devName, Interface: ifName}
			if oi, ok := ospfIf(n, ep); ok {
				participants[ep] = oi
				sources, areas = append(sources, devName), append(areas, oi.area)
			}
		}
	}
	slices.Sort(sources)
	slices.Sort(areas)
	l := &ospfLSDB{sources: slices.Compact(sources), areas: slices.Compact(areas)}
	l.index = make(map[string]int, len(l.sources))
	for i, src := range l.sources {
		l.index[src] = i
	}

	// Area membership, and advertised prefixes per (area, source) and per
	// source (all enabled interfaces, passive too).
	na := len(l.areas)
	l.members, l.advSet = make([][]int, na), make([]map[netip.Prefix]bool, len(l.sources))
	advBy := make([]map[int]map[netip.Prefix]bool, na)
	for _, oi := range participants {
		ai, si := slices.Index(l.areas, oi.area), l.index[oi.dev]
		l.members[ai] = append(l.members[ai], si)
		if advBy[ai] == nil {
			advBy[ai] = make(map[int]map[netip.Prefix]bool)
		}
		if advBy[ai][si] == nil {
			advBy[ai][si] = make(map[netip.Prefix]bool)
		}
		if l.advSet[si] == nil {
			l.advSet[si] = make(map[netip.Prefix]bool)
		}
		advBy[ai][si][oi.addr.Masked()] = true
		l.advSet[si][oi.addr.Masked()] = true
	}
	l.localAt = make([]map[int]int, na)
	l.aGraph = make([][][]lsdbEdge, na)
	for ai, ms := range l.members {
		slices.Sort(ms)
		ms = slices.Compact(ms)
		l.members[ai] = ms
		l.localAt[ai] = make(map[int]int, len(ms))
		for li, si := range ms {
			l.localAt[ai][si] = li
		}
		l.aGraph[ai] = make([][]lsdbEdge, len(ms))
	}
	l.areasOf = make([][]int, len(l.sources))
	for ai := range l.areas {
		for _, si := range l.members[ai] {
			l.areasOf[si] = append(l.areasOf[si], ai)
		}
	}

	// Per-area router graph: edge source->peer via (localIf, peerAddr).
	for ep, oi := range participants {
		ai := slices.Index(l.areas, oi.area)
		li := l.localAt[ai][l.index[oi.dev]]
		for _, other := range adj[ep] {
			if po, ok := participants[other]; ok && peers(oi, po) {
				l.aGraph[ai][li] = append(l.aGraph[ai][li], edgeTo(l, ai, oi, po))
			}
		}
	}
	// Participants iterate in map order; sort each edge list into the
	// canonical order (peer position order == peer name order, since
	// members are sorted by source index).
	for ai := range l.aGraph {
		for li := range l.aGraph[ai] {
			sortEdges(l.aGraph[ai][li])
		}
	}

	// Configured aggregation ranges, canonically ordered per source. Their
	// prefixes join the global lexical rank used for deterministic emission:
	// an aggregate can be emitted though no interface advertises it.
	l.ranges = make([][]netmodel.OSPFNetwork, len(l.sources))
	for si, src := range l.sources {
		l.ranges[si] = canonicalRanges(n.Devices[src].OSPF)
	}
	l.setRank(l.union())
	l.adv = make([][]netip.Prefix, len(l.sources))
	for si, set := range l.advSet {
		l.adv[si] = l.inRankOrder(set)
	}
	l.aAdv = make([][][]netip.Prefix, na)
	for ai := range l.areas {
		l.aAdv[ai] = make([][]netip.Prefix, len(l.members[ai]))
		for li, si := range l.members[ai] {
			l.aAdv[ai][li] = l.inRankOrder(advBy[ai][si])
		}
	}
	return l
}

// sortEdges orders one member's edge list canonically: peer position (which
// is peer name order, since members are sorted by source index), then local
// interface, peer address, cost.
func sortEdges(edges []lsdbEdge) {
	slices.SortFunc(edges, func(a, b lsdbEdge) int {
		if c := cmp.Compare(a.peer, b.peer); c != 0 {
			return c
		}
		if c := strings.Compare(a.localIf, b.localIf); c != 0 {
			return c
		}
		if c := a.peerAddr.Compare(b.peerAddr); c != 0 {
			return c
		}
		return cmp.Compare(a.cost, b.cost)
	})
}

// canonicalRanges returns o's `area range` statements masked and in the
// canonical (area, prefix-string) order, or nil when none are configured.
func canonicalRanges(o *netmodel.OSPFProcess) []netmodel.OSPFNetwork {
	if o == nil || len(o.Ranges) == 0 {
		return nil
	}
	cp := make([]netmodel.OSPFNetwork, 0, len(o.Ranges))
	for _, r := range o.Ranges {
		if r.Prefix.Addr().Is4() { // OSPFv2: every ranked prefix is IPv4
			cp = append(cp, netmodel.OSPFNetwork{Prefix: r.Prefix.Masked(), Area: r.Area})
		}
	}
	slices.SortFunc(cp, func(a, b netmodel.OSPFNetwork) int {
		if c := cmp.Compare(a.Area, b.Area); c != 0 {
			return c
		}
		return comparePrefix(a.Prefix, b.Prefix)
	})
	return cp
}

// union is every advertised prefix plus every configured range prefix.
func (l *ospfLSDB) union() map[netip.Prefix]bool {
	all := make(map[netip.Prefix]bool, len(l.rank))
	for _, set := range l.advSet {
		for p := range set {
			all[p] = true
		}
	}
	for _, rs := range l.ranges {
		for _, r := range rs {
			all[r.Prefix] = true
		}
	}
	return all
}

// setRank installs the global lexical prefix rank over the given prefix
// union.
func (l *ospfLSDB) setRank(all map[netip.Prefix]bool) {
	l.ranked = make([]netip.Prefix, 0, len(all))
	for p := range all {
		l.ranked = append(l.ranked, p)
	}
	slices.SortFunc(l.ranked, comparePrefix)
	l.rank = make(map[netip.Prefix]int, len(l.ranked))
	for i, p := range l.ranked {
		l.rank[p] = i
	}
}

// inRankOrder lists a prefix set in global rank order: one rank lookup per
// prefix, an integer sort, and the inverse table back.
func (l *ospfLSDB) inRankOrder(set map[netip.Prefix]bool) []netip.Prefix {
	ranks := make([]int, 0, len(set))
	for p := range set {
		ranks = append(ranks, l.rank[p])
	}
	slices.Sort(ranks)
	ps := make([]netip.Prefix, len(ranks))
	for i, r := range ranks {
		ps[i] = l.ranked[r]
	}
	return ps
}

// sharedRow reports whether two slices are the same backing array. A
// patched LSDB keeps its parent's row whenever the rebuilt row has equal
// content (deriveLSDB), so between the two a row is shared by identity
// exactly when its content is unchanged.
func sharedRow[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ospfIf resolves one endpoint's OSPF participation in n: an IPv4 L3
// endpoint (OSPF is OSPFv2) of an OSPF router whose network statements
// enable its address.
func ospfIf(n *netmodel.Network, ep netmodel.Endpoint) (ospfInterface, bool) {
	d := n.Devices[ep.Device]
	if d == nil || d.OSPF == nil {
		return ospfInterface{}, false
	}
	itf := d.Interfaces[ep.Interface]
	if itf == nil || !l3Endpoint(itf) || !itf.Addr.Addr().Is4() {
		return ospfInterface{}, false
	}
	area, ok := d.OSPF.EnabledArea(itf.Addr.Addr())
	if !ok {
		return ospfInterface{}, false
	}
	return ospfInterface{
		dev: ep.Device, name: ep.Interface, addr: itf.Addr,
		area: area, cost: max(itf.OSPFCost, 1), passive: d.OSPF.Passive[ep.Interface],
	}, true
}

// peers reports whether oi has an edge to po: two L2-adjacent participants
// of distinct routers, neither passive, in one area, with po's address on
// oi's subnet (subnet containment can be asymmetric, so the edge can be).
func peers(oi, po ospfInterface) bool {
	return !oi.passive && !po.passive && oi.dev != po.dev && oi.area == po.area &&
		oi.addr.Masked().Contains(po.addr.Addr())
}

// edgeTo is oi's edge to po in area position ai.
func edgeTo(l *ospfLSDB, ai int, oi, po ospfInterface) lsdbEdge {
	return lsdbEdge{peer: l.localAt[ai][l.index[po.dev]], localIf: oi.name, peerAddr: po.addr.Addr(), cost: oi.cost}
}

// rebuildEdges recomputes source si's edge list in area position ai against
// network n and adjacency adj. It reads exactly what buildLSDB reads for
// that row: si's own interfaces and adjacency rows plus its peers'
// configurations.
func (l *ospfLSDB) rebuildEdges(n *netmodel.Network, adj adjacency, ai, si int) []lsdbEdge {
	src := l.sources[si]
	// The row it replaces is the usual size of the new one.
	edges := make([]lsdbEdge, 0, len(l.aGraph[ai][l.localAt[ai][si]]))
	for ifName := range n.Devices[src].Interfaces {
		ep := netmodel.Endpoint{Device: src, Interface: ifName}
		oi, ok := ospfIf(n, ep)
		if !ok || oi.area != l.areas[ai] {
			continue
		}
		for _, other := range adj[ep] {
			if po, ok := ospfIf(n, other); ok && peers(oi, po) {
				edges = append(edges, edgeTo(l, ai, oi, po))
			}
		}
	}
	sortEdges(edges)
	return edges
}

// deriveLSDB patches old into the LSDB of n: it rebuilds only the rows the
// change set can have touched, shares everything else with old, and keeps
// old's row wherever a patched row comes out with equal content. A graph,
// advertisement or range row of the result is therefore old's row by
// identity exactly when its content is unchanged — the invariant
// staleSources decides SPF reuse from. patched reports whether the result
// is such a patch. n may be oldNet written in place: old rows, not old
// configuration, are the record.
//
// Structural drift falls back to a full buildLSDB (patched = false): a
// device entering or leaving the router set, a router's per-area
// membership changing, or a new area id. Otherwise the changed routers'
// advertisement and range rows are rebuilt (the rank table only when the
// prefix union moved), and their edge rows whole, as are, after an
// adjacency rebuild, those of routers whose own (canonical) adjacency rows
// differ: an L2-only change on a transit switch rewires routers not
// adjacent to the changed device. Every other router keeps its edges to
// unchanged routers, and its edges to changed ones are recomputed in one
// pass over the changed routers' endpoints: adjacency is symmetric (built
// from L2 groups), so a router whose adjacency rows did not move meets
// their endpoints where it met them before, and nothing else it reads moved.
func deriveLSDB(old *ospfLSDB, oldNet, n *netmodel.Network, oldAdj, adj adjacency,
	adjRebuilt bool, changed map[string]bool) (l *ospfLSDB, patched bool) {
	if old == nil || oldNet == nil || len(old.sources) == 0 {
		return buildLSDB(n, adj), false
	}
	// The changed routers' per-area advertisement sets, by source index.
	touched := make(map[int]map[int]map[netip.Prefix]bool)
	for dev := range changed {
		si, wasRouter := old.index[dev]
		if n.Devices[dev] == nil {
			return buildLSDB(n, adj), false // a device removed
		}
		byArea := make(map[int]map[netip.Prefix]bool)
		for ifName := range n.Devices[dev].Interfaces {
			oi, ok := ospfIf(n, netmodel.Endpoint{Device: dev, Interface: ifName})
			ai := slices.Index(old.areas, oi.area)
			switch {
			case !ok:
				continue
			case ai < 0:
				return buildLSDB(n, adj), false // new area id
			case byArea[ai] == nil:
				byArea[ai] = make(map[netip.Prefix]bool)
			}
			byArea[ai][oi.addr.Masked()] = true
		}
		if !wasRouter && len(byArea) == 0 {
			continue
		}
		if !wasRouter || len(byArea) != len(old.areasOf[si]) {
			return buildLSDB(n, adj), false // router set or area membership changed
		}
		for _, ai := range old.areasOf[si] {
			if byArea[ai] == nil {
				return buildLSDB(n, adj), false
			}
		}
		touched[si] = byArea
	}

	l = &ospfLSDB{
		sources: old.sources, index: old.index,
		areas: old.areas, areasOf: old.areasOf,
		members: old.members, localAt: old.localAt,
		aGraph: slices.Clone(old.aGraph), aAdv: old.aAdv,
		adv: old.adv, advSet: old.advSet, ranges: old.ranges,
		rank: old.rank, ranked: old.ranked,
	}
	if advMoved(old, n, touched) {
		l.patchAdvertisements(old, n, touched)
	} else {
		// Every advertisement row is old's: so are their ranks.
		l.ranksOnce.Do(func() { l.aRanks, l.advRanks = old.ranks() })
	}
	l.patchEdges(old, n, oldAdj, adj, adjRebuilt, touched)
	return l, true
}

// advMoved reports whether a touched router's advertisements or ranges
// differ from its rows in old.
func advMoved(old *ospfLSDB, n *netmodel.Network, touched map[int]map[int]map[netip.Prefix]bool) bool {
	for si, byArea := range touched {
		if !slices.Equal(canonicalRanges(n.Devices[old.sources[si]].OSPF), old.ranges[si]) {
			return true
		}
		for ai, set := range byArea {
			row := old.aAdv[ai][old.localAt[ai][si]]
			if len(row) != len(set) || slices.ContainsFunc(row, func(p netip.Prefix) bool { return !set[p] }) {
				return true
			}
		}
	}
	return false
}

// patchAdvertisements rebuilds the touched routers' advertisement and range
// rows, and the rank table when the global prefix union moved.
func (l *ospfLSDB) patchAdvertisements(old *ospfLSDB, n *netmodel.Network, touched map[int]map[int]map[netip.Prefix]bool) {
	l.aAdv = slices.Clone(old.aAdv)
	l.advSet = slices.Clone(old.advSet)
	for si, byArea := range touched {
		set := make(map[netip.Prefix]bool)
		for _, ps := range byArea {
			maps.Copy(set, ps)
		}
		l.advSet[si] = set
		l.ranges = setRow(l.ranges, old.ranges, si, canonicalRanges(n.Devices[l.sources[si]].OSPF))
	}

	// The rank table is shared whenever the global prefix union is
	// unchanged. When it is rebuilt, unshared rows stay correctly ordered
	// anyway: rank order is lexical prefix-string order, which is stable
	// under insertions and deletions.
	all, same := l.union(), true
	for p := range all {
		_, ok := old.rank[p]
		same = same && ok
	}
	if !same || len(all) != len(old.rank) {
		l.setRank(all)
	}

	for si, byArea := range touched {
		l.adv = setRow(l.adv, old.adv, si, l.inRankOrder(l.advSet[si]))
		for ai, set := range byArea {
			l.aAdv[ai] = setRow(l.aAdv[ai], old.aAdv[ai], l.localAt[ai][si], l.inRankOrder(set))
		}
	}
}

// patchEdges rebuilds the edge rows as deriveLSDB says: whole for the
// touched routers and, after an adjacency rebuild, for routers whose
// adjacency rows differ; for any other router met across a touched router's
// endpoint, its old row less its edges to touched routers, plus theirs
// recomputed (toChanged, by area position; a router met with none loses
// the ones it had).
func (l *ospfLSDB) patchEdges(old *ospfLSDB, n *netmodel.Network, oldAdj, adj adjacency, adjRebuilt bool, touched map[int]map[int]map[netip.Prefix]bool) {
	whole := make([]bool, len(l.sources))
	for si, src := range l.sources {
		if whole[si] = touched[si] != nil; whole[si] || !adjRebuilt {
			continue
		}
		for ifName := range n.Devices[src].Interfaces {
			ep := netmodel.Endpoint{Device: src, Interface: ifName}
			if whole[si] = !slices.Equal(oldAdj[ep], adj[ep]); whole[si] {
				break
			}
		}
	}
	type areaEdge struct {
		ai int
		e  lsdbEdge
	}
	toChanged := make(map[int][]areaEdge)
	for ci := range touched {
		for ifName := range n.Devices[l.sources[ci]].Interfaces {
			ep := netmodel.Endpoint{Device: l.sources[ci], Interface: ifName}
			oc, ok := ospfIf(n, ep)
			for _, other := range adj[ep] {
				if pi, router := l.index[other.Device]; router && !whole[pi] {
					edges := toChanged[pi]
					if po, pok := ospfIf(n, other); ok && pok && peers(po, oc) {
						ai := slices.Index(l.areas, po.area)
						edges = append(edges, areaEdge{ai, edgeTo(l, ai, po, oc)})
					}
					toChanged[pi] = edges
				}
			}
		}
	}

	var row []lsdbEdge
	for pi, edges := range toChanged {
		for _, ai := range l.areasOf[pi] {
			li := l.localAt[ai][pi]
			row = row[:0]
			for _, e := range old.aGraph[ai][li] {
				if touched[l.members[ai][e.peer]] == nil {
					row = append(row, e)
				}
			}
			for _, ae := range edges {
				if ae.ai == ai {
					row = append(row, ae.e)
				}
			}
			sortEdges(row)
			if !slices.Equal(row, old.aGraph[ai][li]) {
				l.aGraph[ai] = setRow(l.aGraph[ai], old.aGraph[ai], li, slices.Clone(row))
			}
		}
	}
	for si, w := range whole {
		for _, ai := range l.areasOf[si] {
			if w {
				l.aGraph[ai] = setRow(l.aGraph[ai], old.aGraph[ai], l.localAt[ai][si], l.rebuildEdges(n, adj, ai, si))
			}
		}
	}
}

// setRow installs row at rows[i] unless the row already there has equal
// content, and returns rows. rows is copied first while it is still parent's
// backing array, so a patched LSDB never writes through to the LSDB it
// shares structure with.
func setRow[T comparable](rows, parent [][]T, i int, row []T) [][]T {
	if slices.Equal(rows[i], row) {
		return rows
	}
	if sharedRow(rows, parent) {
		rows = slices.Clone(rows)
	}
	rows[i] = row
	return rows
}

// ospfHop is one candidate first hop toward a destination: the neighbor's
// address above the index of the source's interface toward it (into
// routesFrom's sorted names), so hops order by (via, interface name) as
// integers.
type ospfHop uint64

// addHop appends h unless already present. First-hop sets are tiny (ECMP
// fan-out), so the linear scan beats a map.
func addHop(hops []ospfHop, h ospfHop) []ospfHop {
	for _, x := range hops {
		if x == h {
			return hops
		}
	}
	return append(hops, h)
}

// areaSPF runs the single-source Dijkstra over one area's member graph
// from the local source position ls. It returns per-member distances (-1 =
// unreached) and, with firstHops, first-hop sets over ifs, the source's
// interface names in sorted order. The summary passes in hier consume
// distances only: tracking hop sets there roughly doubled the cost of every
// ABR's per-area Dijkstra.
func (l *ospfLSDB) areaSPF(ai, ls int, ifs []string, firstHops bool) ([]int, [][]ospfHop) {
	nv := len(l.members[ai])
	const unreached = -1
	dist := make([]int, nv)
	for i := range dist {
		dist[i] = unreached
	}
	dist[ls] = 0
	settled := make([]bool, nv)
	var hops [][]ospfHop
	if firstHops {
		hops = make([][]ospfHop, nv)
	}
	graph := l.aGraph[ai]
	for {
		// Select the unsettled node with the smallest distance. The lowest
		// position wins ties, which is exactly the name order the map-based
		// implementation tie-broke by; since every edge cost is >= 1,
		// equal-distance nodes never relax each other, so the tie order
		// cannot change any first-hop set anyway.
		cur, best := -1, -1
		for i := 0; i < nv; i++ {
			if settled[i] || dist[i] == unreached {
				continue
			}
			if best < 0 || dist[i] < best {
				cur, best = i, dist[i]
			}
		}
		if cur < 0 {
			break
		}
		settled[cur] = true
		for _, e := range graph[cur] {
			nd := dist[cur] + e.cost
			switch old := dist[e.peer]; {
			case old == unreached || nd < old:
				dist[e.peer] = nd
				if firstHops {
					hops[e.peer] = hops[e.peer][:0]
				}
			case nd > old:
				continue
			}
			// Propagate first hops for equal-or-new best paths.
			switch {
			case !firstHops:
			case cur == ls:
				i, _ := slices.BinarySearch(ifs, e.localIf)
				hops[e.peer] = addHop(hops[e.peer], ospfHop(addrBits(e.peerAddr))<<16|ospfHop(i))
			default:
				for _, h := range hops[cur] {
					hops[e.peer] = addHop(hops[e.peer], h)
				}
			}
		}
	}
	return dist, hops
}

// rangeFor returns the most specific configured range on source si that
// covers prefix p within the given area id, if any. The summarizing key an
// ABR uses for p is that range's prefix; uncovered prefixes pass through
// unaggregated.
func (l *ospfLSDB) rangeFor(si, area int, p netip.Prefix) (netip.Prefix, bool) {
	var best netip.Prefix
	found := false
	for _, r := range l.ranges[si] {
		if r.Area != area || r.Prefix.Bits() > p.Bits() || !r.Prefix.Contains(p.Addr()) {
			continue
		}
		if !found || r.Prefix.Bits() > best.Bits() {
			best, found = r.Prefix, true
		}
	}
	return best, found
}

// hier computes the hierarchical (inter-area) state once: the backbone
// position, the ABR set, each ABR's summary costs into the backbone, and
// each ABR's backbone view injected into its nonzero areas. Single-area
// LSDBs stop at the backbone lookup.
func (l *ospfLSDB) hier() {
	l.hierOnce.Do(func() {
		l.backbone = -1
		for i, a := range l.areas {
			if a == 0 {
				l.backbone = i
			}
		}
		if l.backbone < 0 || len(l.areas) < 2 {
			return
		}
		for si := range l.sources {
			if len(l.areasOf[si]) < 2 {
				continue
			}
			if _, ok := l.localAt[l.backbone][si]; ok {
				l.abrs = append(l.abrs, si)
			}
		}
		if len(l.abrs) == 0 {
			return
		}
		l.sumInto0 = make([]map[netip.Prefix]int, len(l.sources))
		l.backView = make([]map[netip.Prefix]int, len(l.sources))

		// Pass 1: per-ABR intra-area distances and backbone summaries.
		// dists[b] maps area position -> per-member distances from b.
		dists := make(map[int]map[int][]int, len(l.abrs))
		for _, b := range l.abrs {
			byArea := make(map[int][]int, len(l.areasOf[b]))
			sum := make(map[netip.Prefix]int)
			for _, ai := range l.areasOf[b] {
				d, _ := l.areaSPF(ai, l.localAt[ai][b], nil, false)
				byArea[ai] = d
				if ai == l.backbone {
					continue
				}
				area := l.areas[ai]
				for li := range l.members[ai] {
					if d[li] < 0 {
						continue
					}
					for _, p := range l.aAdv[ai][li] {
						if rp, ok := l.rangeFor(b, area, p); ok {
							p = rp // aggregate: min component cost wins below
						}
						if c, ok := sum[p]; !ok || d[li] < c {
							sum[p] = d[li]
						}
					}
				}
			}
			dists[b] = byArea
			l.sumInto0[b] = sum
		}

		// Pass 2: per-ABR backbone view — intra routes over all attached
		// areas, then backbone-learned summaries for everything else.
		// Intra-area routes win regardless of cost (OSPF preference).
		for _, b := range l.abrs {
			view := make(map[netip.Prefix]int)
			intra := make(map[netip.Prefix]bool)
			for _, ai := range l.areasOf[b] {
				d := dists[b][ai]
				ls := l.localAt[ai][b]
				area := l.areas[ai]
				for li := range l.members[ai] {
					if li == ls || d[li] < 0 {
						continue
					}
					for _, p := range l.aAdv[ai][li] {
						if rp, ok := l.rangeFor(b, area, p); ok {
							p = rp // aggregate into the range summary
						}
						if c, ok := view[p]; !ok || !intra[p] || d[li] < c {
							view[p] = d[li]
							intra[p] = true
						}
					}
				}
			}
			d0 := dists[b][l.backbone]
			for _, b2 := range l.abrs {
				if b2 == b {
					continue
				}
				p0 := l.localAt[l.backbone][b2]
				if d0[p0] < 0 {
					continue
				}
				for p, c := range l.sumInto0[b2] {
					if intra[p] {
						continue
					}
					if cur, ok := view[p]; !ok || d0[p0]+c < cur {
						view[p] = d0[p0] + c
					}
				}
			}
			l.backView[b] = view
		}
	})
}

// ranks returns the advertisement rows as ranks, building them at first
// use, all in one backing array.
func (l *ospfLSDB) ranks() (aRanks [][][]int32, advRanks [][]int32) {
	l.ranksOnce.Do(func() {
		n := 0
		for _, members := range l.aAdv {
			for _, ps := range members {
				n += len(ps)
			}
		}
		for _, ps := range l.adv {
			n += len(ps)
		}
		buf := make([]int32, 0, n)
		rows := func(ps []netip.Prefix) []int32 {
			from := len(buf)
			for _, p := range ps {
				buf = append(buf, int32(l.rank[p]))
			}
			return buf[from:len(buf):len(buf)]
		}
		l.aRanks = make([][][]int32, len(l.aAdv))
		for ai, members := range l.aAdv {
			l.aRanks[ai] = make([][]int32, len(members))
			for li, ps := range members {
				l.aRanks[ai][li] = rows(ps)
			}
		}
		l.advRanks = make([][]int32, len(l.adv))
		for si, ps := range l.adv {
			l.advRanks[si] = rows(ps)
		}
	})
	return l.aRanks, l.advRanks
}

// routesFrom computes the source router's OSPF routes in deterministic
// (prefix string, hop) order, over the names of the source's interfaces
// with an edge, sorted: per-area Dijkstra for intra-area routes, plus ABR summaries for
// inter-area ones.
func (l *ospfLSDB) routesFrom(si int) routeRows {
	l.hier()
	aRanks, advRanks := l.ranks()

	// Accumulation is rank-indexed: the global prefix rank doubles as the
	// dedup key (no per-prefix map or pointer allocations) and as the
	// emission order, so the final walk needs no sort. A best of 0 marks an
	// untouched slot — every candidate's total cost is >= 1 because the
	// advertiser (intra) or the ABR (inter) is never the source itself.
	//
	// hops points at the SPF's own first-hop set of the advertising member:
	// the sets are duplicate-free, nothing below grows one in place, and the
	// in-place sort at emission leaves a shared set in the order every slot
	// sharing it wants. Only when two advertisers tie does the slot take a
	// private union (owned).
	type prefRoute struct {
		best  int
		local bool // the source's own prefix: connected beats OSPF anyway
		intra bool
		owned bool
		hops  []ospfHop
	}
	acc := make([]prefRoute, len(l.ranked))
	for _, r := range advRanks[si] {
		acc[r].local = true
	}
	any := false
	add := func(ri, dist int, intra bool, hs []ospfHop) {
		a := &acc[ri]
		if a.local {
			return
		}
		if a.best != 0 {
			if a.intra && !intra {
				return // intra-area routes win regardless of cost
			}
			if a.intra == intra && dist > a.best {
				return
			}
			if a.intra == intra && dist == a.best {
				if !a.owned {
					a.hops = append(make([]ospfHop, 0, len(a.hops)+len(hs)), a.hops...)
					a.owned = true
				}
				for _, h := range hs {
					a.hops = addHop(a.hops, h)
				}
				return
			}
		}
		a.best, a.intra, a.owned, a.hops = dist, intra, false, hs
		any = true
	}

	// Intra-area candidates, keeping each area's SPF for the inter pass.
	type areaRun struct {
		ai   int
		dist []int
		hops [][]ospfHop
	}
	runs := make([]areaRun, 0, len(l.areasOf[si]))
	inBackbone := false
	edges := 0
	for _, ai := range l.areasOf[si] {
		edges += len(l.aGraph[ai][l.localAt[ai][si]])
	}
	ifs := make([]string, 0, edges)
	for _, ai := range l.areasOf[si] {
		for _, e := range l.aGraph[ai][l.localAt[ai][si]] {
			if i, found := slices.BinarySearch(ifs, e.localIf); !found {
				ifs = slices.Insert(ifs, i, e.localIf)
			}
		}
	}
	for _, ai := range l.areasOf[si] {
		ls := l.localAt[ai][si]
		dist, hops := l.areaSPF(ai, ls, ifs, true)
		runs = append(runs, areaRun{ai: ai, dist: dist, hops: hops})
		if ai == l.backbone {
			inBackbone = true
		}
		for li := range l.members[ai] {
			if li == ls || dist[li] < 0 || len(hops[li]) == 0 {
				continue
			}
			for _, r := range aRanks[ai][li] {
				add(int(r), dist[li], true, hops[li])
			}
		}
	}

	// Inter-area candidates. Backbone members consume ABR summaries
	// directly; non-backbone members consume the backbone views their
	// areas' ABRs re-advertise. Map iteration order is irrelevant: add()
	// keeps the minimum and unions hops only at the minimum.
	if len(l.abrs) > 0 {
		if inBackbone {
			for _, r := range runs {
				if r.ai != l.backbone {
					continue
				}
				for _, b := range l.abrs {
					if b == si {
						continue
					}
					p0 := l.localAt[l.backbone][b]
					if r.dist[p0] < 0 || len(r.hops[p0]) == 0 {
						continue
					}
					for p, c := range l.sumInto0[b] {
						add(l.rank[p], r.dist[p0]+c, false, r.hops[p0])
					}
				}
			}
		} else {
			for _, r := range runs {
				for _, b := range l.abrs {
					lb, ok := l.localAt[r.ai][b]
					if !ok || r.dist[lb] < 0 || len(r.hops[lb]) == 0 {
						continue
					}
					for p, c := range l.backView[b] {
						add(l.rank[p], r.dist[lb]+c, false, r.hops[lb])
					}
				}
			}
		}
	}
	if !any {
		return routeRows{}
	}

	// One or two hops per prefix (ECMP fan-out): an in-place insertion
	// sort each, and the routes counted before the one allocation.
	n := 0
	for ri := range acc {
		if a := &acc[ri]; a.best != 0 {
			slices.Sort(a.hops)
			n += len(a.hops)
		}
	}
	out := routeRows{rows: make([]route, 0, n), ifs: ifs}
	for ri := range acc {
		a := &acc[ri]
		if a.best == 0 {
			continue
		}
		r, _ := newRoute(l.ranked[ri], OSPF, netip.IPv4Unspecified(), 0, ospfAdminDistance, a.best)
		for _, h := range a.hops {
			r.hop, r.outIf = 1<<32|uint64(h>>16), uint16(h)
			out.rows = append(out.rows, r)
		}
	}
	return out
}

// staleSources reports, per source, whether its routesFrom result can
// differ from the same source's in old, the LSDB l was patched from (l and
// old share one layout, and a row of l is old's row by identity exactly
// when its content is unchanged — see deriveLSDB). routesFrom reads, in
// each of the source's areas, the graph and advertisement rows of the
// members it reaches plus the summary vectors of the ABRs among them:
// their sumInto0 in the backbone, their backView elsewhere. A source is
// therefore stale iff, in one of its areas, its connected component holds a
// replaced row or an ABR whose vector differs. Components are undirected —
// subnet containment can be asymmetric, so an edge in either direction
// couples two members' SPF results — and taken over old's and l's edges
// together, so a source cut off from the change by the change itself is
// still stale. A nil result means no source is.
func (l *ospfLSDB) staleSources(old *ospfLSDB) []bool {
	// dirty[ai][li] marks a replaced row. No replaced row anywhere (range
	// rows included: they feed the ABR vectors) means nothing can differ.
	dirty := make([][]bool, len(l.areas))
	mark := func(ai, li int) {
		if dirty[ai] == nil {
			dirty[ai] = make([]bool, len(l.members[ai]))
		}
		dirty[ai][li] = true
	}
	any := !sharedRow(l.ranges, old.ranges)
	for ai := range l.areas {
		if sharedRow(l.aGraph[ai], old.aGraph[ai]) && sharedRow(l.aAdv[ai], old.aAdv[ai]) {
			continue
		}
		for li := range l.members[ai] {
			if !sharedRow(l.aGraph[ai][li], old.aGraph[ai][li]) || !sharedRow(l.aAdv[ai][li], old.aAdv[ai][li]) {
				mark(ai, li)
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	l.hier()
	old.hier()
	for _, b := range l.abrs {
		for _, ai := range l.areasOf[b] {
			vec, oldVec := l.backView[b], old.backView[b]
			if ai == l.backbone {
				vec, oldVec = l.sumInto0[b], old.sumInto0[b]
			}
			if !maps.Equal(vec, oldVec) {
				mark(ai, l.localAt[ai][b])
			}
		}
	}

	var stale []bool
	for ai, marks := range dirty {
		if marks == nil {
			continue
		}
		comp := make(disjointSet, len(marks))
		for li := range comp {
			comp[li] = li
		}
		for _, graph := range [][][]lsdbEdge{l.aGraph[ai], old.aGraph[ai]} {
			for li, edges := range graph {
				for _, e := range edges {
					comp.union(li, e.peer)
				}
			}
		}
		// Spread each mark to its component's root, then read it back.
		for li, m := range marks {
			if m {
				marks[comp.find(li)] = true
			}
		}
		for li, si := range l.members[ai] {
			if marks[comp.find(li)] {
				if stale == nil {
					stale = make([]bool, len(l.sources))
				}
				stale[si] = true
			}
		}
	}
	return stale
}
