package generate_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// refTracer is the string-keyed trace Snapshot.TraceFrom walked before its
// hop index — device, interface and owner maps per hop, the ARP step over
// the adjacency's peer list — kept as the reference the indexed walk must
// match. It reads the snapshot through its exported surface only (Adjacent
// and RIB), so the owner map is rebuilt here from the network the snapshot
// describes, and each hop's longest-prefix match is a linear scan of its RIB.
type refTracer struct {
	s     *dataplane.Snapshot
	net   *netmodel.Network
	owner map[netip.Addr]netmodel.Endpoint
	ribs  map[string][]dataplane.FIBEntry
}

func newRefTracer(s *dataplane.Snapshot, n *netmodel.Network) *refTracer {
	r := &refTracer{s: s, net: n,
		owner: make(map[netip.Addr]netmodel.Endpoint), ribs: make(map[string][]dataplane.FIBEntry)}
	for _, dev := range n.DeviceNames() {
		d := n.Devices[dev]
		for _, ifName := range d.InterfaceNames() {
			itf := d.Interfaces[ifName]
			if itf.Up() && itf.HasAddr() && (itf.Mode == netmodel.Routed || itf.IsSVI()) {
				r.owner[itf.Addr.Addr()] = netmodel.Endpoint{Device: dev, Interface: ifName}
			}
		}
		r.ribs[dev] = s.RIB(dev)
	}
	return r
}

// lookup is the longest-prefix match as a linear scan of a RIB: the first
// entry of the longest prefix holding dst — of the later run in RIB order
// when two runs mask to one network (an unmasked prefix in the RIB).
func lookup(rib []dataplane.FIBEntry, dst netip.Addr) (dataplane.FIBEntry, bool) {
	dst = dst.Unmap()
	best := -1
	for i, e := range rib {
		if dst.Is4() && e.Prefix.Contains(dst) && (i == 0 || rib[i-1].Prefix != e.Prefix) &&
			(best < 0 || e.Prefix.Bits() >= rib[best].Prefix.Bits()) {
			best = i
		}
	}
	if best < 0 {
		return dataplane.FIBEntry{}, false
	}
	return rib[best], true
}

// traceFrom is TraceFrom as it was.
func (r *refTracer) traceFrom(src string, f dataplane.Flow) *dataplane.Trace {
	t := &dataplane.Trace{Flow: f, Hops: make([]dataplane.Hop, 0, 8)}
	cur := src
	inIf := ""
	visited := make([]string, 0, 8)
	for hop := 0; hop < 64; hop++ {
		d := r.net.Devices[cur]
		if d == nil {
			t.Disposition = dataplane.DropNoRoute
			t.Where = cur
			t.Detail = "unknown device"
			return t
		}
		if inIf != "" {
			itf := d.Interface(inIf)
			if itf != nil && itf.ACLIn != "" {
				if acl := d.ACL(itf.ACLIn, false); acl != nil {
					if acl.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny {
						t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf})
						t.Disposition = dataplane.DropACL
						t.Where = cur
						t.Detail = fmt.Sprintf("acl %s in on %s", itf.ACLIn, inIf)
						return t
					}
				}
			}
		}
		if owner, ok := r.owner[f.Dst]; ok && owner.Device == cur {
			t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf})
			t.Disposition = dataplane.Delivered
			return t
		}
		for _, v := range visited {
			if v == cur {
				t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf})
				t.Disposition = dataplane.DropLoop
				t.Where = cur
				return t
			}
		}
		visited = append(visited, cur)
		e, ok := lookup(r.ribs[cur], f.Dst)
		if !ok {
			t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf})
			t.Disposition = dataplane.DropNoRoute
			t.Where = cur
			return t
		}
		outItf := d.Interface(e.OutIf)
		if outItf != nil && outItf.ACLOut != "" {
			if acl := d.ACL(outItf.ACLOut, false); acl != nil {
				if acl.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny {
					t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
					t.Disposition = dataplane.DropACL
					t.Where = cur
					t.Detail = fmt.Sprintf("acl %s out on %s", outItf.ACLOut, e.OutIf)
					return t
				}
			}
		}
		nhAddr := e.NextHop
		if e.Connected() {
			nhAddr = f.Dst
		}
		nextEp, found := r.resolve(netmodel.Endpoint{Device: cur, Interface: e.OutIf}, nhAddr)
		if !found {
			t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
			t.Disposition = dataplane.DropARPFail
			t.Where = cur
			t.Detail = fmt.Sprintf("no neighbor %s via %s", nhAddr, e.OutIf)
			return t
		}
		t.Hops = append(t.Hops, dataplane.Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
		cur = nextEp.Device
		inIf = nextEp.Interface
	}
	t.Disposition = dataplane.DropLoop
	t.Where = cur
	return t
}

// resolve is the ARP step as it was: the adjacent endpoint owning addr, read
// off each peer's device.
func (r *refTracer) resolve(from netmodel.Endpoint, addr netip.Addr) (netmodel.Endpoint, bool) {
	for _, ep := range r.s.Adjacent(from) {
		d := r.net.Devices[ep.Device]
		if d == nil {
			continue
		}
		itf := d.Interface(ep.Interface)
		if itf != nil && itf.HasAddr() && itf.Addr.Addr() == addr {
			return ep, true
		}
	}
	return netmodel.Endpoint{}, false
}

// reach is Reach's uncached trace as it was: host addresses by
// Network.HostAddr.
func (r *refTracer) reach(srcHost, dstHost string, proto netmodel.Protocol, dstPort uint16) (*dataplane.Trace, error) {
	src, ok := r.net.HostAddr(srcHost)
	if !ok {
		return nil, fmt.Errorf("dataplane: no such host %q", srcHost)
	}
	dst, ok := r.net.HostAddr(dstHost)
	if !ok {
		return nil, fmt.Errorf("dataplane: no such host %q", dstHost)
	}
	f := dataplane.Flow{Proto: proto, Src: src, Dst: dst, DstPort: dstPort}
	if proto == netmodel.TCP || proto == netmodel.UDP {
		f.SrcPort = 40000
	}
	return r.traceFrom(srcHost, f), nil
}

// sameTrace reports whether an indexed trace is the reference's: the same
// rendering and deep-equal hops.
func sameTrace(got, want *dataplane.Trace) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.String() == want.String() && reflect.DeepEqual(got.Hops, want.Hops)
}

// compareReach fails unless the snapshot's Reach answers the flow as the
// reference does.
func compareReach(t *testing.T, s *dataplane.Snapshot, ref *refTracer, src, dst string, proto netmodel.Protocol, port uint16, where string) {
	t.Helper()
	got, gerr := s.Reach(src, dst, proto, port)
	want, werr := ref.reach(src, dst, proto, port)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !sameTrace(got, want) {
		t.Fatalf("%s: %s->%s %v/%d diverged from the reference\nindexed:   %v %v\nreference: %v %v",
			where, src, dst, proto, port, gerr, got, werr, want)
	}
}

// aclStep draws an ACL-class edit: an entry denying ssh toggled at the head
// of a list bound inbound on a router or switch.
func aclStep(rng *rand.Rand, n *netmodel.Network) (chainStep, bool) {
	type bound struct{ dev, acl string }
	var cands []bound
	for _, dev := range n.RoutersAndSwitches() {
		d := n.Devices[dev]
		for _, name := range d.InterfaceNames() {
			if a := d.Interfaces[name].ACLIn; a != "" && d.ACLs[a] != nil {
				cands = append(cands, bound{dev, a})
			}
		}
	}
	if len(cands) == 0 {
		return chainStep{}, false
	}
	b := cands[rng.Intn(len(cands))]
	return chainStep{"ssh-toggle " + b.acl, b.dev, dataplane.ChangeACL, func(d *netmodel.Device) {
		if acl := d.ACLs[b.acl]; !acl.RemoveEntry(1) {
			acl.InsertEntry(netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: netmodel.TCP, DstPort: 22})
		}
	}}, true
}

// TestTraceFromMatchesReference holds the indexed trace to the string-keyed
// reference on every scenario family, with and without flow-hash ECMP: every
// ordered host pair over icmp, tcp/22 and tcp/8443, plus traces that start
// at a router or switch (the console's ping and traceroute), to an address
// nobody owns and from a device nobody has — on a computed snapshot and then
// along a seeded chain of ACL, static, OSPF, L2 and L3-topology derivations,
// each derived from the last with its parent's cache warm, so carried traces
// and a hop index shared across generations are held to it too.
func TestTraceFromMatchesReference(t *testing.T) {
	steps := 24
	if raceEnabled {
		steps = 6
	}
	kinds := map[dataplane.ChangeKind]bool{}
	flows := []struct {
		proto netmodel.Protocol
		port  uint16
	}{{netmodel.ICMP, 0}, {netmodel.TCP, 22}, {netmodel.TCP, 8443}}
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}), generate.WAN(generate.WANParams{}),
	} {
		t.Run(scen.Name, func(t *testing.T) {
			n := scen.Network
			snap := dataplane.Compute(n)
			hosts := n.Hosts()
			rng := rand.New(rand.NewSource(int64(len(hosts))))
			for step := 0; step <= steps; step++ {
				where := "computed"
				if step > 0 {
					var cs dataplane.ChangeSet
					next := n
					for len(cs) == 0 {
						class := rng.Intn(stepClasses + 1)
						st, ok := aclStep(rng, next)
						if class < stepClasses {
							st, ok = randomStep(rng, next, class)
						}
						if !ok {
							continue
						}
						next = next.CloneCOW(st.device)
						st.apply(next.Devices[st.device])
						cs = append(cs, dataplane.Change{Device: st.device, Kind: st.kind})
						where = fmt.Sprintf("step %d (%s: %s)", step, st.device, st.op)
					}
					kinds[cs[0].Kind] = true
					snap, n = snap.Derive(next, cs), next
				}
				ref := newRefTracer(snap, n)
				for _, src := range hosts {
					for _, dst := range hosts {
						for _, f := range flows {
							compareReach(t, snap, ref, src, dst, f.proto, f.port, where)
						}
					}
				}
				for _, dev := range n.RoutersAndSwitches() {
					var src netip.Addr
					for _, name := range n.Devices[dev].InterfaceNames() {
						if itf := n.Devices[dev].Interfaces[name]; itf.Up() && itf.HasAddr() {
							src = itf.Addr.Addr()
							break
						}
					}
					dsts := []netip.Addr{netip.MustParseAddr("198.51.100.1")}
					for _, h := range hosts {
						a, _ := n.HostAddr(h)
						dsts = append(dsts, a)
					}
					for _, dst := range dsts {
						f := dataplane.Flow{Proto: netmodel.ICMP, Src: src, Dst: dst}
						if got, want := snap.TraceFrom(dev, f), ref.traceFrom(dev, f); !sameTrace(got, want) {
							t.Fatalf("%s: from %s diverged from the reference\nindexed:   %v\nreference: %v", where, dev, got, want)
						}
					}
				}
				f := dataplane.Flow{Proto: netmodel.ICMP, Dst: netip.MustParseAddr("10.0.0.1")}
				if got, want := snap.TraceFrom("no-such-device", f), ref.traceFrom("no-such-device", f); !sameTrace(got, want) {
					t.Fatalf("%s: unknown source diverged: %v, want %v", where, got, want)
				}
			}
		})
	}
	for _, k := range []dataplane.ChangeKind{dataplane.ChangeACL, dataplane.ChangeStatic, dataplane.ChangeOSPF, dataplane.ChangeL2, dataplane.ChangeL3Topology} {
		if !kinds[k] {
			t.Errorf("no chain derived a %s change: the case is gone", k)
		}
	}
}
