package dataplane_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// lsdbNets are the patched-LSDB oracle's networks: university, where r13
// is adjacent to every other router, the three-area hierarchy with its
// aggregation range, and the k=4 fat-tree's backbone and pod areas.
var lsdbNets = []func() *netmodel.Network{
	func() *netmodel.Network { return scenarios.University().Network },
	dataplane.ThreeAreaNet,
	func() *netmodel.Network { return generate.FatTree(generate.FatTreeParams{K: 4}).Network },
}

// ospfEdit writes one OSPF-relevant edit, drawn from pick, to an OSPF
// router of n: in place, or on a copy of n that shares every other device.
// It returns the written network, whether the adjacency can have moved, and
// the device. The edits: a passive toggle, a cost, a network statement
// added (over one of the device's subnets, in one of its areas) or removed,
// a mask change (which makes subnet containment between two peers
// asymmetric), and a shutdown toggle.
func ospfEdit(pick func(n int) int, n *netmodel.Network) (*netmodel.Network, bool, string) {
	var routers []string
	for _, name := range n.DeviceNames() {
		if n.Devices[name].OSPF != nil {
			routers = append(routers, name)
		}
	}
	dev := routers[pick(len(routers))]
	if pick(2) == 0 {
		n = n.CloneCOW(dev)
	}
	d := n.Devices[dev]
	names := d.InterfaceNames()
	itf := d.Interfaces[names[pick(len(names))]]
	switch pick(5) {
	case 0:
		d.OSPF.Passive[itf.Name] = !d.OSPF.Passive[itf.Name]
	case 1:
		itf.OSPFCost = pick(4)
	case 2:
		if nets := d.OSPF.Networks; len(nets) > 0 && (pick(2) == 0 || !itf.HasAddr()) {
			i := pick(len(nets))
			d.OSPF.Networks = append(nets[:i:i], nets[i+1:]...)
		} else if itf.HasAddr() {
			area := 0
			if len(nets) > 0 {
				area = nets[pick(len(nets))].Area
			}
			d.OSPF.Networks = append(nets[:len(nets):len(nets)], netmodel.OSPFNetwork{Prefix: itf.Addr.Masked(), Area: area})
		}
	case 3:
		if itf.HasAddr() {
			itf.Addr = netip.PrefixFrom(itf.Addr.Addr(), min(max(itf.Addr.Bits()+pick(5)-2, 8), 32))
		}
		return n, true, dev
	default:
		itf.Shutdown = !itf.Shutdown
		return n, true, dev
	}
	return n, false, dev
}

// runLSDBChain applies steps edits drawn from pick to net, deriving each
// LSDB from the one before and holding it to LSDBChain.Step's oracle.
func runLSDBChain(t *testing.T, net *netmodel.Network, steps int, pick func(n int) int) {
	t.Helper()
	chain := dataplane.NewLSDBChain(net)
	for step := 0; step < steps; step++ {
		next, topo, dev := ospfEdit(pick, net)
		if err := chain.Step(next, topo, dev); err != nil {
			t.Fatalf("step %d (%s, in place %v, topo %v): %v", step, dev, next == net, topo, err)
		}
		net = next
	}
}

// TestDeriveLSDBRandomEdits is the seeded run of the patched-LSDB oracle:
// chains of random OSPF edits, in place and on copies, over every network
// of lsdbNets.
func TestDeriveLSDBRandomEdits(t *testing.T) {
	for i, mk := range lsdbNets {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed*10 + int64(i)))
			runLSDBChain(t, mk(), 30, r.Intn)
		}
	}
}

// FuzzDeriveLSDB fuzzes the patched-LSDB oracle: the first byte picks the
// network, and every later byte is one draw of the edit script (the script
// ends when the bytes do).
func FuzzDeriveLSDB(f *testing.F) {
	f.Add([]byte{0, 12, 0, 3, 0, 1})
	f.Add([]byte{1, 2, 0, 1, 3, 4, 2, 1, 0, 2, 1, 1, 3, 0, 4, 1})
	f.Add([]byte{2, 5, 1, 2, 2, 0, 7, 0, 0, 3, 3, 1, 9, 1, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		net, data := lsdbNets[int(data[0])%len(lsdbNets)](), data[1:]
		used := 0
		pick := func(n int) int {
			if used >= len(data) {
				return 0
			}
			used++
			return int(data[used-1]) % n
		}
		runLSDBChain(t, net, min(len(data)/3, 40), pick)
	})
}
