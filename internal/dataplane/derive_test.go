package dataplane_test

// The Derive oracle: for every mutation class on both evaluation scenarios,
// a derived snapshot must be byte-identical to a from-scratch Compute of
// the mutated network. This is the correctness anchor of the incremental
// sweep — if Derive ever diverges, the attack-surface numbers silently rot.
// (The test lives in an external package so it can import scenarios, which
// itself imports dataplane.)

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
)

// deriveCase is one mutation class applied to one device of a scenario.
// optional cases skip scenarios with no eligible device (the university
// network has no switches, so the L2 fabric cases only run on enterprise).
type deriveCase struct {
	name     string
	kind     dataplane.ChangeKind
	device   func(n *netmodel.Network) string
	apply    func(d *netmodel.Device)
	optional bool
}

// firstUpIf returns the device's first up, addressed interface.
func firstUpIf(d *netmodel.Device) string {
	for _, ifName := range d.InterfaceNames() {
		if itf := d.Interfaces[ifName]; itf.Up() && itf.HasAddr() {
			return ifName
		}
	}
	return ""
}

// aclDevice finds a device that already carries an ACL.
func aclDevice(n *netmodel.Network) string {
	for _, dev := range n.RoutersAndSwitches() {
		if len(n.Devices[dev].ACLNames()) > 0 {
			return dev
		}
	}
	return ""
}

// ospfDevice finds a router running OSPF.
func ospfDevice(n *netmodel.Network) string {
	for _, dev := range n.RoutersAndSwitches() {
		d := n.Devices[dev]
		if d.Kind == netmodel.Router && d.OSPF != nil {
			return dev
		}
	}
	return ""
}

func router(name string) func(n *netmodel.Network) string {
	return func(n *netmodel.Network) string { return name }
}

// switchWhere finds a switch for which pred returns a usable interface (or
// any switch when pred is nil). Returns "" when the scenario has none.
func switchWhere(pred func(d *netmodel.Device) bool) func(n *netmodel.Network) string {
	return func(n *netmodel.Network) string {
		for _, dev := range n.RoutersAndSwitches() {
			d := n.Devices[dev]
			if d.Kind != netmodel.Switch {
				continue
			}
			if pred == nil || pred(d) {
				return dev
			}
		}
		return ""
	}
}

// firstIfWhere returns the name of the device's first interface satisfying
// pred, in deterministic order.
func firstIfWhere(d *netmodel.Device, pred func(itf *netmodel.Interface) bool) string {
	for _, ifName := range d.InterfaceNames() {
		if pred(d.Interfaces[ifName]) {
			return ifName
		}
	}
	return ""
}

func deriveCases() []deriveCase {
	blackhole := netip.MustParseAddr("192.0.2.254")
	return []deriveCase{
		{
			name:   "acl-insert-deny",
			kind:   dataplane.ChangeACL,
			device: aclDevice,
			apply: func(d *netmodel.Device) {
				name := d.ACLNames()[0]
				d.ACL(name, true).InsertEntry(netmodel.ACLEntry{
					Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto,
				})
			},
		},
		{
			name:   "acl-remove-first-entry",
			kind:   dataplane.ChangeACL,
			device: aclDevice,
			apply: func(d *netmodel.Device) {
				a := d.ACL(d.ACLNames()[0], false)
				if len(a.Entries) > 0 {
					a.RemoveEntry(a.Entries[0].Seq)
				}
			},
		},
		{
			name:   "static-blackhole-default",
			kind:   dataplane.ChangeStatic,
			device: router("r2"),
			apply: func(d *netmodel.Device) {
				// Next hop on a connected subnet that no device owns: the
				// route activates and blackholes matching traffic.
				itf := d.Interfaces[firstUpIf(d)]
				base := itf.Addr.Masked().Addr().As4()
				nh := netip.AddrFrom4([4]byte{base[0], base[1], base[2], base[3] + 2})
				d.StaticRoutes = append(d.StaticRoutes,
					netmodel.StaticRoute{Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: nh})
			},
		},
		{
			name:   "static-remove-all",
			kind:   dataplane.ChangeStatic,
			device: router("r2"),
			apply:  func(d *netmodel.Device) { d.StaticRoutes = nil },
		},
		{
			name: "host-gateway-rewrite",
			kind: dataplane.ChangeStatic,
			device: func(n *netmodel.Network) string {
				return n.Hosts()[0]
			},
			apply: func(d *netmodel.Device) { d.DefaultGateway = blackhole },
		},
		{
			name:   "ospf-cost-bump",
			kind:   dataplane.ChangeOSPF,
			device: ospfDevice,
			apply: func(d *netmodel.Device) {
				d.Interfaces[firstUpIf(d)].OSPFCost = 7
			},
		},
		{
			name:   "ospf-silence-all-passive",
			kind:   dataplane.ChangeOSPF,
			device: ospfDevice,
			apply: func(d *netmodel.Device) {
				for _, ifName := range d.InterfaceNames() {
					d.OSPF.Passive[ifName] = true
				}
			},
		},
		{
			name:   "ospf-process-removal",
			kind:   dataplane.ChangeOSPF,
			device: ospfDevice,
			apply:  func(d *netmodel.Device) { d.OSPF = nil },
		},
		{
			// ChangeTopology remains the conservative catch-all; keep one
			// case on it so the full-recompute fallback stays covered.
			name:   "interface-down",
			kind:   dataplane.ChangeTopology,
			device: router("r2"),
			apply: func(d *netmodel.Device) {
				d.Interfaces[firstUpIf(d)].Shutdown = true
			},
		},
		{
			name:   "l3topo-interface-down",
			kind:   dataplane.ChangeL3Topology,
			device: router("r2"),
			apply: func(d *netmodel.Device) {
				d.Interfaces[firstUpIf(d)].Shutdown = true
			},
		},
		{
			name: "l3topo-svi-down",
			kind: dataplane.ChangeL3Topology,
			device: switchWhere(func(d *netmodel.Device) bool {
				return firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.IsSVI() && itf.HasAddr() && itf.Up()
				}) != ""
			}),
			apply: func(d *netmodel.Device) {
				ifName := firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.IsSVI() && itf.HasAddr() && itf.Up()
				})
				d.Interfaces[ifName].Shutdown = true
			},
			optional: true,
		},
		{
			// Defining an unused VLAN is pure L2 state: every routing table
			// must come through by identity.
			name:   "l2-vlan-define",
			kind:   dataplane.ChangeL2,
			device: router("r2"),
			apply: func(d *netmodel.Device) {
				d.VLANs[999] = &netmodel.VLAN{ID: 999, Name: "qa"}
			},
		},
		{
			name: "l2-vlan-delete",
			kind: dataplane.ChangeL2,
			device: switchWhere(func(d *netmodel.Device) bool {
				return d.VLANs[10] != nil
			}),
			apply:    func(d *netmodel.Device) { delete(d.VLANs, 10) },
			optional: true,
		},
		{
			name: "l2-access-port-move",
			kind: dataplane.ChangeL2,
			device: switchWhere(func(d *netmodel.Device) bool {
				return firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.Mode == netmodel.Access
				}) != ""
			}),
			apply: func(d *netmodel.Device) {
				ifName := firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.Mode == netmodel.Access
				})
				d.Interfaces[ifName].AccessVLAN = 999
			},
			optional: true,
		},
		{
			name: "l2-trunk-port-shutdown",
			kind: dataplane.ChangeL2,
			device: switchWhere(func(d *netmodel.Device) bool {
				return firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.Mode == netmodel.Trunk && !itf.HasAddr() && itf.Up()
				}) != ""
			}),
			apply: func(d *netmodel.Device) {
				ifName := firstIfWhere(d, func(itf *netmodel.Interface) bool {
					return itf.Mode == netmodel.Trunk && !itf.HasAddr() && itf.Up()
				})
				d.Interfaces[ifName].Shutdown = true
			},
			optional: true,
		},
	}
}

// assertSnapshotsEqual compares two snapshots of the same network through
// every observable surface: per-device RIBs (structural and rendered), and
// the trace of every host pair for ICMP and TCP/80 (exercising FIB lookups,
// ACL gates, and the address index).
func assertSnapshotsEqual(t *testing.T, n *netmodel.Network, got, want *dataplane.Snapshot) {
	t.Helper()
	for _, dev := range n.DeviceNames() {
		if !reflect.DeepEqual(got.RIB(dev), want.RIB(dev)) {
			t.Errorf("%s RIB diverged:\nderived:\n%s\nfull:\n%s",
				dev, got.FormatRIB(dev), want.FormatRIB(dev))
		}
		if g, w := got.FormatRIB(dev), want.FormatRIB(dev); g != w {
			t.Errorf("%s FormatRIB diverged:\nderived:\n%s\nfull:\n%s", dev, g, w)
		}
	}
	hosts := n.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			for _, probe := range []struct {
				proto netmodel.Protocol
				port  uint16
			}{{netmodel.ICMP, 0}, {netmodel.TCP, 80}} {
				g, gerr := got.Reach(src, dst, probe.proto, probe.port)
				w, werr := want.Reach(src, dst, probe.proto, probe.port)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s->%s errors diverged: %v vs %v", src, dst, gerr, werr)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s->%s %s trace diverged:\nderived: %s\nfull:    %s",
						src, dst, probe.proto, g, w)
				}
			}
		}
	}
}

// TestDeriveMatchesCompute is the oracle: Derive must reproduce a
// from-scratch Compute for every mutation class on both scenarios.
func TestDeriveMatchesCompute(t *testing.T) {
	for _, scen := range []*scenarios.Scenario{scenarios.Enterprise(), scenarios.University()} {
		base := scen.Network
		snap := dataplane.Compute(base)
		baseline := make(map[string]string, len(base.Devices))
		for _, dev := range base.DeviceNames() {
			baseline[dev] = snap.FormatRIB(dev)
		}
		for _, tc := range deriveCases() {
			t.Run(scen.Name+"/"+tc.name, func(t *testing.T) {
				dev := tc.device(base)
				if dev == "" {
					if tc.optional {
						t.Skipf("no eligible device in %s", scen.Name)
					}
					t.Fatalf("no eligible device in %s", scen.Name)
				}
				mutated := base.CloneCOW(dev)
				tc.apply(mutated.Devices[dev])
				derived := snap.Derive(mutated, dataplane.ChangeSet{{Device: dev, Kind: tc.kind}})
				full := dataplane.Compute(mutated)
				assertSnapshotsEqual(t, mutated, derived, full)
			})
		}
		// The base network and snapshot must come through the whole sweep
		// untouched: trials write only their COW-cloned device.
		for _, dev := range base.DeviceNames() {
			if snap.FormatRIB(dev) != baseline[dev] {
				t.Fatalf("%s: base snapshot corrupted at %s", scen.Name, dev)
			}
		}
		if fresh := dataplane.Compute(base); !reflect.DeepEqual(fresh.RIB("r2"), snap.RIB("r2")) {
			t.Fatalf("%s: base network mutated by the sweep", scen.Name)
		}
	}
}

// TestDeriveConcurrent derives many snapshots from one base concurrently —
// the sweep's access pattern — and checks each against a full compute.
// Run with -race this pins the share-read-only discipline of CloneCOW and
// Derive.
func TestDeriveConcurrent(t *testing.T) {
	scen := scenarios.Enterprise()
	base := scen.Network
	snap := dataplane.Compute(base)
	cases := deriveCases()
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*4)
	for round := 0; round < 4; round++ {
		for _, tc := range cases {
			tc := tc
			wg.Add(1)
			go func() {
				defer wg.Done()
				dev := tc.device(base)
				if dev == "" {
					return // optional case absent from this scenario
				}
				mutated := base.CloneCOW(dev)
				tc.apply(mutated.Devices[dev])
				derived := snap.Derive(mutated, dataplane.ChangeSet{{Device: dev, Kind: tc.kind}})
				full := dataplane.Compute(mutated)
				hosts := mutated.Hosts()
				src, dst := hosts[0], hosts[len(hosts)-1]
				g, _ := derived.Reach(src, dst, netmodel.ICMP, 0)
				w, _ := full.Reach(src, dst, netmodel.ICMP, 0)
				if !reflect.DeepEqual(g, w) {
					errs <- fmt.Errorf("%s: %s->%s diverged: %s vs %s", tc.name, src, dst, g, w)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeriveMultiChange exercises change sets naming several devices and
// mixed classes (the enforcer's shape: one review may touch ACLs on one
// device and statics on another).
func TestDeriveMultiChange(t *testing.T) {
	scen := scenarios.University()
	base := scen.Network
	snap := dataplane.Compute(base)

	aclDev := aclDevice(base)
	mutated := base.CloneCOW(aclDev, "r3", "r5")
	mutated.Devices[aclDev].ACL(mutated.Devices[aclDev].ACLNames()[0], true).
		InsertEntry(netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto})
	mutated.Devices["r3"].StaticRoutes = nil
	mutated.Devices["r5"].StaticRoutes = nil

	derived := snap.Derive(mutated, dataplane.ChangeSet{
		{Device: aclDev, Kind: dataplane.ChangeACL},
		{Device: "r3", Kind: dataplane.ChangeStatic},
		{Device: "r5", Kind: dataplane.ChangeStatic},
	})
	assertSnapshotsEqual(t, mutated, derived, dataplane.Compute(mutated))
}

// carriedCounter is the wired-meter series Reach bumps when it serves a flow
// from the parent's cache.
const carriedCounter = "heimdall_dataplane_flowcache_carried_total"

// rewired reports whether the two networks differ in L2 adjacency, seen
// through the exported surface: some endpoint's neighbour list changed.
func rewired(n *netmodel.Network, a, b *dataplane.Snapshot) bool {
	for _, dev := range n.DeviceNames() {
		for _, ifName := range n.Devices[dev].InterfaceNames() {
			ep := netmodel.Endpoint{Device: dev, Interface: ifName}
			if !reflect.DeepEqual(a.Adjacent(ep), b.Adjacent(ep)) {
				return true
			}
		}
	}
	return false
}

// TestDeriveCarriesCleanTraces is the oracle for carried traces: for every
// change class, warm the parent over all scenario policies, derive, and
// compare every Reach result — trace and error — with a from-scratch Compute
// of the mutated network. A derivation that keeps adjacency and address
// ownership must carry some traces (the point of the exercise) and one that
// does not must carry none. Every child also writes its clean traces back
// into the one parent, so later cases read what earlier ones left there.
func TestDeriveCarriesCleanTraces(t *testing.T) {
	cases := deriveCases()
	cases = append(cases, deriveCase{
		// A neighbour that never answers: BGP-class, no route moves.
		name: "bgp-dead-neighbor", kind: dataplane.ChangeBGP, optional: true,
		device: func(n *netmodel.Network) string {
			if d := n.Devices["edgeA"]; d != nil && d.BGP != nil {
				return "edgeA"
			}
			return ""
		},
		apply: func(d *netmodel.Device) { d.BGP.SetNeighbor(netip.MustParseAddr("192.0.2.77"), 64999) },
	})
	// Removing or silencing the process of a near-mesh router moves a route
	// on every router, so every trace crosses a RIB-dirty device.
	allDirty := map[string]bool{
		"university/ospf-silence-all-passive": true,
		"university/ospf-process-removal":     true,
	}
	for _, scen := range []*scenarios.Scenario{scenarios.Enterprise(), scenarios.University(), scenarios.Provider()} {
		base := scen.Network
		reg := telemetry.NewRegistry()
		snap := dataplane.ComputeWithOptions(base, dataplane.Options{Meter: reg})
		for _, tc := range cases {
			dev := tc.device(base)
			if dev == "" || base.Devices[dev] == nil {
				continue
			}
			t.Run(scen.Name+"/"+tc.name, func(t *testing.T) {
				for _, p := range scen.Policies {
					snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
				}
				mutated := base.CloneCOW(dev)
				tc.apply(mutated.Devices[dev])
				derived := snap.Derive(mutated, dataplane.ChangeSet{{Device: dev, Kind: tc.kind}})
				full := dataplane.Compute(mutated)
				before := reg.CounterValue(carriedCounter)
				lookups := func() float64 {
					return reg.CounterValue("heimdall_dataplane_flowcache_hits_total") + reg.CounterValue("heimdall_dataplane_flowcache_misses_total")
				}
				lookups0, hits0 := lookups(), reg.CounterValue("heimdall_dataplane_flowcache_hits_total")
				for _, p := range scen.Policies {
					g, gerr := derived.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
					w, werr := full.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("%s: errors diverged: %v vs %v", p.ID, gerr, werr)
					}
					if !reflect.DeepEqual(g, w) {
						t.Errorf("%s: trace diverged:\nderived: %s\nfull:    %s", p.ID, g, w)
					}
				}
				carried := reg.CounterValue(carriedCounter) - before
				t.Logf("carried %v of %d keeps", carried, len(scen.Policies))
				keeps := tc.kind < dataplane.ChangeL2 ||
					tc.kind == dataplane.ChangeL2 && !rewired(mutated, snap, full)
				switch {
				case !keeps && carried != 0:
					t.Errorf("carried %v traces across a changed adjacency or owner map", carried)
				case keeps && carried == 0 && !allDirty[scen.Name+"/"+tc.name]:
					t.Errorf("carried nothing of %d policies", len(scen.Policies))
				}
				hits := reg.CounterValue("heimdall_dataplane_flowcache_hits_total") - hits0
				if n := lookups() - lookups0; n != float64(len(scen.Policies)) || carried > hits {
					t.Errorf("%v lookups, %v hits, carried=%v over %d policies", n, hits, carried, len(scen.Policies))
				}
			})
		}
	}
}
