package netmodel_test

import (
	"math/rand"
	"reflect"
	"testing"

	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// scanPathsBetween is Network.PathsBetween as it was: an adjacency built by
// one Neighbors scan of every link per device, and string-keyed
// breadth-first searches over it.
func scanPathsBetween(n *netmodel.Network, src, dst string, slack int) map[string]bool {
	adj := make(map[string][]string)
	for name := range n.Devices {
		adj[name] = n.Neighbors(name)
	}
	bfs := func(start string) map[string]int {
		dist := map[string]int{start: 0}
		queue := []string{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if _, seen := dist[next]; !seen {
					dist[next] = dist[cur] + 1
					queue = append(queue, next)
				}
			}
		}
		return dist
	}
	out := make(map[string]bool)
	fromSrc, fromDst := bfs(src), bfs(dst)
	shortest, ok := fromSrc[dst]
	if !ok {
		return out
	}
	for name := range n.Devices {
		ds, ok1 := fromSrc[name]
		dd, ok2 := fromDst[name]
		if ok1 && ok2 && ds+dd <= shortest+slack {
			out[name] = true
		}
	}
	return out
}

// TestPathsBetweenMatchesLinkScan: the adjacency built in one walk over the
// links answers as the per-device scans did, on every scenario family and on
// a network with a parallel cable and a self-loop.
func TestPathsBetweenMatchesLinkScan(t *testing.T) {
	odd := netmodel.NewNetwork("odd")
	for _, name := range []string{"a", "b", "c"} {
		odd.AddDevice(name, netmodel.Router)
	}
	odd.MustConnect("a", "p0", "b", "p0")
	odd.MustConnect("a", "p1", "b", "p1") // parallel cable
	odd.MustConnect("b", "p2", "b", "p3") // self-loop
	odd.MustConnect("b", "p4", "c", "p0")

	nets := []*netmodel.Network{odd}
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2}),
		generate.WAN(generate.WANParams{Sites: 4}),
	} {
		nets = append(nets, scen.Network)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range nets {
		names := append(n.DeviceNames(), "no-such-device")
		for i := 0; i < 40; i++ {
			src, dst := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			for slack := 0; slack <= 2; slack++ {
				got, want := n.PathsBetween(src, dst, slack), scanPathsBetween(n, src, dst, slack)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: PathsBetween(%s, %s, %d) = %v, the link scan says %v", n.Name, src, dst, slack, got, want)
				}
			}
		}
	}
}
