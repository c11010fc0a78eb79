package dataplane_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/telemetry"
)

// routesBuilt is the wired-meter series a snapshot bumps per route cell it
// builds.
const routesBuilt = "heimdall_dataplane_routes_built_total"

// readRoutes reads one device's routes the way kind picks: its RIB, its
// rendered table, its BGP summary, or a trace it originates towards dst.
func readRoutes(s *dataplane.Snapshot, dev string, kind int, dst netip.Addr) {
	switch kind {
	case 0:
		s.RIB(dev)
	case 1:
		s.FormatRIB(dev)
	case 2:
		s.FormatBGP(dev)
	default:
		s.TraceFrom(dev, dataplane.Flow{Proto: netmodel.ICMP, Dst: dst})
	}
}

// assertSameRoutes holds got to want, two snapshots of n: every device's RIB,
// rendered table and BGP summary, and every host-pair trace.
func assertSameRoutes(t *testing.T, n *netmodel.Network, got, want *dataplane.Snapshot) {
	t.Helper()
	for _, dev := range n.DeviceNames() {
		if !slices.Equal(got.RIB(dev), want.RIB(dev)) {
			t.Fatalf("%s: RIB diverged\n got %v\nwant %v", dev, got.RIB(dev), want.RIB(dev))
		}
		if got.FormatRIB(dev) != want.FormatRIB(dev) || got.FormatBGP(dev) != want.FormatBGP(dev) {
			t.Fatalf("%s: rendered routes diverged", dev)
		}
	}
	hosts := n.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			g, gerr := got.Reach(src, dst, netmodel.ICMP, 0)
			w, werr := want.Reach(src, dst, netmodel.ICMP, 0)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s->%s diverged:\n got %v %v\nwant %v %v", src, dst, gerr, g, werr, w)
			}
		}
	}
}

// TestLazyRoutesOrderIndependent: a device's routes are built at their
// first read, and which device is read first — or on which goroutine —
// changes nothing. Cells resolved in a seeded random order through every
// kind of read, and by 8 goroutines at once (run under -race), must equal
// a snapshot resolved in name order: every RIB, rendered table and
// host-pair trace. So must a snapshot derived across an OSPF change whose
// host-pair traces 8 goroutines ask for at once, each carry decision
// resolving the suspects it crosses.
func TestLazyRoutesOrderIndependent(t *testing.T) {
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
	} {
		t.Run(scen.Name, func(t *testing.T) {
			n := scen.Network
			names, hosts := n.DeviceNames(), n.Hosts()
			want := dataplane.Compute(n)
			for _, dev := range names {
				want.RIB(dev)
			}
			resolve := func(s *dataplane.Snapshot, rng *rand.Rand) {
				for _, i := range rng.Perm(len(names)) {
					dst, _ := n.HostAddr(hosts[rng.Intn(len(hosts))])
					readRoutes(s, names[i], rng.Intn(4), dst)
				}
			}

			shuffled := dataplane.Compute(n)
			resolve(shuffled, rand.New(rand.NewSource(int64(len(names)))))
			assertSameRoutes(t, n, shuffled, want)

			concurrent := dataplane.Compute(n)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					resolve(concurrent, rand.New(rand.NewSource(seed)))
				}(int64(g))
			}
			wg.Wait()
			assertSameRoutes(t, n, concurrent, want)

			// A derived snapshot's suspects — routers with a new cell and an
			// unchanged config — are resolved by concurrent Reach calls too.
			dev := ospfDevice(n)
			if dev == "" {
				return
			}
			parent := dataplane.Compute(n)
			for _, src := range hosts {
				for _, dst := range hosts {
					parent.Reach(src, dst, netmodel.ICMP, 0)
				}
			}
			m := n.CloneCOW(dev)
			m.Devices[dev].Interfaces[firstUpIf(m.Devices[dev])].OSPFCost = 9
			child := parent.Derive(m, dataplane.ChangeSet{{Device: dev, Kind: dataplane.ChangeOSPF}})
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for _, i := range rng.Perm(len(hosts) * len(hosts)) {
						child.Reach(hosts[i/len(hosts)], hosts[i%len(hosts)], netmodel.ICMP, 0)
					}
				}(int64(g))
			}
			wg.Wait()
			assertSameRoutes(t, m, child, dataplane.Compute(m))
		})
	}
}

// TestDeriveInPlaceOverUnbuiltCells is the commit pipeline's shape with the
// parent's routes not yet read: production is mutated in place and the
// child derived onto the same *Network while most of the parent's cells are
// unbuilt, so the cells the child shares are built from the mutated network
// afterwards. Every route and policy trace of the child must equal a
// from-scratch Compute, and the derive itself builds no route table.
func TestDeriveInPlaceOverUnbuiltCells(t *testing.T) {
	for _, tc := range []struct {
		name, dev string
		kind      dataplane.ChangeKind
		apply     func(d *netmodel.Device)
	}{
		{"ospf-passive", "r13", dataplane.ChangeOSPF, func(d *netmodel.Device) { d.OSPF.Passive["Gi0/0"] = !d.OSPF.Passive["Gi0/0"] }},
		{"static", "r2", dataplane.ChangeStatic, func(d *netmodel.Device) {
			d.StaticRoutes = append(d.StaticRoutes, netmodel.StaticRoute{
				Prefix: netip.MustParsePrefix("10.5.0.0/24"), NextHop: netip.MustParseAddr("10.200.0.3")})
		}},
		{"l3-topology", "r2", dataplane.ChangeL3Topology, func(d *netmodel.Device) { d.Interfaces[firstUpIf(d)].Shutdown = true }},
		{"acl", "r13", dataplane.ChangeACL, func(d *netmodel.Device) {
			d.ACL("NOOP", true).InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.AnyProto})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scen := scenarios.University()
			n := scen.Network
			reg := telemetry.NewRegistry()
			parent := dataplane.ComputeWithOptions(n, dataplane.Options{Meter: reg})
			// Warm two policies: the parent's flow cache holds traces to
			// carry, and most of its cells stay unbuilt.
			for _, p := range scen.Policies[:2] {
				parent.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
			}
			built := reg.CounterValue(routesBuilt)
			if built == 0 || int(built) > len(n.Devices)/2 {
				t.Fatalf("fixture: %v of %d cells built", built, len(n.Devices))
			}
			tc.apply(n.Devices[tc.dev])
			child := parent.Derive(n, dataplane.ChangeSet{{Device: tc.dev, Kind: tc.kind}})
			if got := reg.CounterValue(routesBuilt); got != built {
				t.Fatalf("the derive built %v route tables", got-built)
			}
			full := dataplane.Compute(n)
			for _, p := range scen.Policies {
				g, gerr := child.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
				w, werr := full.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(g, w) {
					t.Fatalf("%s diverged:\n got %v\nwant %v", p.ID, g, w)
				}
			}
			assertSameRoutes(t, n, child, full)
		})
	}
}
