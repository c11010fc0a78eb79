package netmodel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// scanLinkAt is Network.LinkAt as it was before the cabling index: the
// first link in Links that touches the interface.
func scanLinkAt(n *netmodel.Network, device, itf string) *netmodel.Link {
	for _, l := range n.Links {
		if l.Touches(device, itf) {
			return l
		}
	}
	return nil
}

// scanNeighbors is Network.Neighbors as it was: one scan of every link.
func scanNeighbors(n *netmodel.Network, device string) []string {
	seen := make(map[string]bool)
	for _, l := range n.Links {
		if other, ok := l.Other(device); ok && other.Device != device {
			seen[other.Device] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// scanPathsBetween is Network.PathsBetween as it was: a name index and the
// adjacency built by one walk over the links on every call, and
// breadth-first searches over it by position.
func scanPathsBetween(n *netmodel.Network, src, dst string, slack int) map[string]bool {
	names := make([]string, 0, len(n.Devices))
	index := make(map[string]int, len(n.Devices))
	for name := range n.Devices {
		index[name] = len(names)
		names = append(names, name)
	}
	adj := make([][]int, len(names))
	for _, l := range n.Links {
		a, okA := index[l.A.Device]
		b, okB := index[l.B.Device]
		if okA && okB {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	bfs := func(start int) []int {
		dist := make([]int, len(adj))
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue := []int{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if dist[next] < 0 {
					dist[next] = dist[cur] + 1
					queue = append(queue, next)
				}
			}
		}
		return dist
	}
	out := make(map[string]bool)
	s, okS := index[src]
	d, okD := index[dst]
	if !okS || !okD {
		return out
	}
	fromSrc := bfs(s)
	shortest := fromSrc[d]
	if shortest < 0 {
		return out
	}
	fromDst := bfs(d)
	for v, ds := range fromSrc {
		if dd := fromDst[v]; ds >= 0 && dd >= 0 && ds+dd <= shortest+slack {
			out[names[v]] = true
		}
	}
	return out
}

// checkCabling holds LinkAt and Neighbors on every device and interface a
// link or the device map names (and one name neither does), and
// PathsBetween on each given pair at slack 0–2, to the link scans.
func checkCabling(t *testing.T, n *netmodel.Network, pairs [][2]string) {
	t.Helper()
	ends := map[netmodel.Endpoint]bool{{Device: "no-such-device", Interface: "x"}: true}
	for name, d := range n.Devices {
		for in := range d.Interfaces {
			ends[netmodel.Endpoint{Device: name, Interface: in}] = true
		}
	}
	for _, l := range n.Links {
		ends[l.A], ends[l.B] = true, true
	}
	for ep := range ends {
		if got, want := n.LinkAt(ep.Device, ep.Interface), scanLinkAt(n, ep.Device, ep.Interface); got != want {
			t.Fatalf("%s: LinkAt(%s) = %v, the link scan says %v", n.Name, ep, got, want)
		}
		if got, want := n.Neighbors(ep.Device), scanNeighbors(n, ep.Device); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Neighbors(%s) = %v, the link scan says %v", n.Name, ep.Device, got, want)
		}
	}
	for _, p := range pairs {
		for slack := 0; slack <= 2; slack++ {
			got, want := n.PathsBetween(p[0], p[1], slack), scanPathsBetween(n, p[0], p[1], slack)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PathsBetween(%s, %s, %d) = %v, the link scan says %v", n.Name, p[0], p[1], slack, got, want)
			}
		}
	}
}

// allPairs is every unordered pair of the names, each name with itself too
// (PathsBetween is symmetric).
func allPairs(names []string) [][2]string {
	var out [][2]string
	for i := range names {
		for j := i; j < len(names); j++ {
			out = append(out, [2]string{names[i], names[j]})
		}
	}
	return out
}

// TestPathsBetweenMatchesLinkScan: the cabling index answers LinkAt,
// Neighbors and PathsBetween (every host pair, slack 0–2) as the link scans
// did, on every scenario family and generated tier but the k=16 fat-tree
// (k=8's shape, with 1,024 hosts), on a CloneCOW copy of each, and on a
// network with a parallel cable and a self-loop.
func TestPathsBetweenMatchesLinkScan(t *testing.T) {
	odd := netmodel.NewNetwork("odd")
	for _, name := range []string{"a", "b", "c"} {
		odd.AddDevice(name, netmodel.Router)
	}
	odd.MustConnect("a", "p0", "b", "p0")
	odd.MustConnect("a", "p1", "b", "p1") // parallel cable
	odd.MustConnect("b", "p2", "b", "p3") // self-loop
	odd.MustConnect("b", "p4", "c", "p0")
	checkCabling(t, odd, allPairs(append(odd.DeviceNames(), "no-such-device")))

	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.FatTree(generate.FatTreeParams{K: 8}),
		generate.ISP(generate.ISPParams{}),
		generate.WAN(generate.WANParams{}),
	} {
		n := scen.Network
		pairs := allPairs(n.Hosts())
		if raceEnabled && len(pairs) > 1000 {
			// The race detector slows the scans tenfold: a seeded sample.
			rng := rand.New(rand.NewSource(1))
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			pairs = pairs[:1000]
		}
		checkCabling(t, n, pairs)
		checkCabling(t, n.CloneCOW(), pairs[:min(len(pairs), 50)])
	}
}

// TestCablingFollowsLinks: the index follows the links it was built from.
// Links appended to directly or replaced by a slice of the same length, a
// device added, a Connect on a CloneCOW copy (which leaves the source's
// answers alone) and a link to a device the map lacks (which adds no path)
// all answer as the link scans do.
func TestCablingFollowsLinks(t *testing.T) {
	n := netmodel.NewNetwork("grow")
	for _, name := range []string{"h1", "r1", "r2", "h2"} {
		kind := netmodel.Router
		if name[0] == 'h' {
			kind = netmodel.Host
		}
		n.AddDevice(name, kind)
	}
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "h2", "eth0")
	pairs := allPairs(append(n.DeviceNames(), "ghost", "r3"))
	checkCabling(t, n, pairs) // h1 and h2 apart

	n.Links = append(n.Links, &netmodel.Link{
		A: netmodel.Endpoint{Device: "r1", Interface: "Gi0/1"},
		B: netmodel.Endpoint{Device: "r2", Interface: "Gi0/0"},
	})
	checkCabling(t, n, pairs) // appended to directly: h1 reaches h2

	n.Links = append(n.Links, &netmodel.Link{
		A: netmodel.Endpoint{Device: "ghost", Interface: "x"},
		B: netmodel.Endpoint{Device: "r1", Interface: "Gi0/2"},
	}, &netmodel.Link{
		A: netmodel.Endpoint{Device: "ghost", Interface: "y"},
		B: netmodel.Endpoint{Device: "h2", Interface: "eth1"},
	})
	checkCabling(t, n, pairs) // no path runs through ghost

	rewired := slices.Clone(n.Links)
	rewired[0] = &netmodel.Link{
		A: netmodel.Endpoint{Device: "h1", Interface: "eth0"},
		B: netmodel.Endpoint{Device: "r2", Interface: "Gi0/3"},
	}
	n.Links = rewired
	checkCabling(t, n, pairs) // a new slice of the same length: h1 cabled to r2

	before := fmt.Sprint(n.PathsBetween("h1", "h2", 2), n.Neighbors("r2"), n.LinkAt("r2", "Gi0/2"))
	c := n.CloneCOW()
	c.AddDevice("r3", netmodel.Router)
	checkCabling(t, c, pairs) // a device added: r3 is its own path
	c.MustConnect("r1", "Gi0/3", "r3", "Gi0/0")
	c.MustConnect("r3", "Gi0/1", "r2", "Gi0/2")
	checkCabling(t, c, pairs) // r3 is on a path at slack 1
	if after := fmt.Sprint(n.PathsBetween("h1", "h2", 2), n.Neighbors("r2"), n.LinkAt("r2", "Gi0/2")); after != before {
		t.Fatalf("a Connect on a CloneCOW copy moved the source's answers: %s, was %s", after, before)
	}
	checkCabling(t, n, pairs)
}
