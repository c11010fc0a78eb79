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
	"heimdall/internal/verify"
)

// fromSource is what a retrace resumed on s must equal: the policy's flow,
// its addresses read from n, s's network, walked from the source.
func fromSource(s *dataplane.Snapshot, n *netmodel.Network, p verify.Policy) *dataplane.Trace {
	src, _ := n.HostAddr(p.Src)
	dst, _ := n.HostAddr(p.Dst)
	f := dataplane.Flow{Proto: p.Proto, Src: src, Dst: dst, DstPort: p.DstPort}
	if p.Proto == netmodel.TCP || p.Proto == netmodel.UDP {
		f.SrcPort = 40000
	}
	return s.TraceFrom(p.Src, f)
}

// resumeStep draws a change aimed at hop i of tr, the parent's trace of a
// policy flow, so the child resumes that trace there: an ACL entry on the
// hop's ingress or egress that denies the flow (or permits it, where tr was
// dropped by that ACL), a /32 static route for the destination back to the
// previous hop (a loop through the kept prefix) or to another neighbor, an
// OSPF cost on the hop's egress (new route cells on routers whose config did
// not change: suspects), or, in one draw of five, any step randomStep knows.
func resumeStep(rng *rand.Rand, n *netmodel.Network, s *dataplane.Snapshot, tr *dataplane.Trace, i int) (chainStep, bool) {
	h := tr.Hops[i]
	d, f := n.Devices[h.Device], tr.Flow
	host := func(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 32) }
	switch rng.Intn(5) {
	case 0: // ACL
		ifName, in := h.InIf, true
		if h.OutIf != "" && (ifName == "" || rng.Intn(2) == 0) {
			ifName, in = h.OutIf, false
		}
		if ifName == "" || d.Interface(ifName) == nil {
			return chainStep{}, false
		}
		action := netmodel.Deny
		if i == len(tr.Hops)-1 && tr.Disposition == dataplane.DropACL {
			action = netmodel.Permit
		}
		entry := netmodel.ACLEntry{Seq: 1, Action: action, Proto: f.Proto, Src: host(f.Src), Dst: host(f.Dst), DstPort: f.DstPort}
		return chainStep{fmt.Sprintf("acl %v %s in=%v", action, ifName, in), h.Device, dataplane.ChangeACL, func(d *netmodel.Device) {
			itf := d.Interfaces[ifName]
			bound := &itf.ACLOut
			if in {
				bound = &itf.ACLIn
			}
			if *bound == "" {
				*bound = "RESUME-" + ifName
				d.ACL(*bound, true).InsertEntry(netmodel.ACLEntry{Seq: 100, Action: netmodel.Permit, Proto: netmodel.AnyProto,
					Src: netip.MustParsePrefix("0.0.0.0/0"), Dst: netip.MustParsePrefix("0.0.0.0/0")})
			}
			d.ACL(*bound, true).InsertEntry(entry)
		}}, true
	case 1: // static
		var via netip.Addr
		if i > 0 && rng.Intn(2) == 0 {
			prev := tr.Hops[i-1]
			if itf := n.Devices[prev.Device].Interface(prev.OutIf); itf != nil && itf.HasAddr() {
				via = itf.Addr.Addr()
			}
		}
		if !via.IsValid() {
			for _, ifName := range d.InterfaceNames() {
				for _, peer := range s.Adjacent(netmodel.Endpoint{Device: h.Device, Interface: ifName}) {
					if itf := n.Devices[peer.Device].Interface(peer.Interface); itf != nil && itf.HasAddr() && rng.Intn(3) == 0 {
						via = itf.Addr.Addr()
					}
				}
			}
		}
		if !via.IsValid() {
			return chainStep{}, false
		}
		route := netmodel.StaticRoute{Prefix: host(f.Dst), NextHop: via}
		return chainStep{fmt.Sprintf("static %s via %s", route.Prefix, via), h.Device, dataplane.ChangeStatic, func(d *netmodel.Device) {
			d.StaticRoutes = append(d.StaticRoutes, route)
		}}, true
	case 2: // OSPF
		itf := d.Interface(h.OutIf)
		if itf == nil || !ospfIf(d, itf) {
			return chainStep{}, false
		}
		cost, ifName := 1+rng.Intn(40), h.OutIf
		return chainStep{fmt.Sprintf("ospf-cost %s=%d", ifName, cost), h.Device, dataplane.ChangeOSPF,
			func(d *netmodel.Device) { d.Interfaces[ifName].OSPFCost = cost }}, true
	case 3: // L2
		return randomStep(rng, n, stepClasses-1)
	default:
		return randomStep(rng, n, rng.Intn(stepClasses))
	}
}

// resumeStats is what the resume oracle exercised: traces resumed, resumed
// past their source, and resumed into a loop.
type resumeStats struct{ resumed, pastSource, loops int }

// resumeChain derives steps snapshots in a row from the scenario, each
// step one or two changes aimed at the paths of random policy flows
// (resumeStep), and holds every policy's ReachFrom on the child, given the
// parent's trace, to fromSource on the child.
func resumeChain(t *testing.T, scen *scenarios.Scenario, rng *rand.Rand, steps int) (stats resumeStats) {
	cur, snap := scen.Network, dataplane.Compute(scen.Network)
	policies := scen.Policies
	var trail []string
	for len(trail) < steps {
		prevs := make([]*dataplane.Trace, len(policies))
		for i, p := range policies {
			prevs[i], _ = snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		}
		next, cs, ops := cur, dataplane.ChangeSet(nil), ""
		for k, changes := 0, 1+rng.Intn(2); k < changes; k++ {
			tr := prevs[rng.Intn(len(prevs))]
			if tr == nil || len(tr.Hops) == 0 {
				continue
			}
			step, ok := resumeStep(rng, next, snap, tr, rng.Intn(len(tr.Hops)))
			if !ok {
				continue
			}
			ops += step.device + ": " + step.op + "; "
			next = next.CloneCOW(step.device)
			step.apply(next.Devices[step.device])
			cs = append(cs, dataplane.Change{Device: step.device, Kind: step.kind})
		}
		if len(cs) == 0 {
			continue
		}
		trail = append(trail, ops)
		child := snap.Derive(next, cs)
		for i, p := range policies {
			got, err := child.ReachFrom(prevs[i], p.Src, p.Dst, p.Proto, p.DstPort)
			if err != nil {
				if prevs[i] != nil {
					t.Fatalf("step %d: %s: %v\nsteps: %q", len(trail), p, err, trail)
				}
				continue
			}
			if want := fromSource(child, next, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s: resumed trace diverged from the source's\nresumed: %s\nsource:  %s\nparent:  %s\nsteps: %q",
					len(trail), p, got, want, prevs[i], trail)
			}
			if !child.Carries(nil) || child.Carries(prevs[i]) {
				continue
			}
			stats.resumed++
			if !containsDevice(cs, prevs[i].Hops[0].Device) {
				stats.pastSource++
			}
			if got.Disposition == dataplane.DropLoop {
				stats.loops++
			}
		}
		snap, cur = child, next
	}
	return stats
}

func containsDevice(cs dataplane.ChangeSet, dev string) bool {
	for _, c := range cs {
		if c.Device == dev {
			return true
		}
	}
	return false
}

// TestReachFromMatchesSource is the resume oracle: on every hand-built
// scenario and the generated tiers, along seeded chains of ACL, static,
// OSPF and L2 derivations aimed at policy paths (resumeChain), a trace
// ReachFrom resumes from the parent's must deep-equal TraceFrom from the
// source on the same snapshot. The chains must resume past the source and
// into loops through the kept prefix, or the case is gone.
func TestReachFromMatchesSource(t *testing.T) {
	seeds, steps := 3, 12
	if raceEnabled {
		seeds = 1
	}
	tiers := []struct {
		name  string
		build func() *scenarios.Scenario
	}{
		{"university", scenarios.University},
		{"enterprise", scenarios.Enterprise},
		{"provider", scenarios.Provider},
		{"fattree-k4", func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4}) }},
		{"isp", func() *scenarios.Scenario { return generate.ISP(generate.ISPParams{}) }},
		{"wan", func() *scenarios.Scenario { return generate.WAN(generate.WANParams{}) }},
	}
	var total resumeStats
	for _, tier := range tiers {
		scen := tier.build()
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tier.name, seed), func(t *testing.T) {
				s := resumeChain(t, scen, rand.New(rand.NewSource(int64(seed))), steps)
				total.resumed += s.resumed
				total.pastSource += s.pastSource
				total.loops += s.loops
			})
		}
	}
	t.Logf("%d traces resumed, %d past the source, %d into a loop", total.resumed, total.pastSource, total.loops)
	if total.pastSource == 0 || total.loops == 0 {
		t.Fatal("no chain resumed a trace past its source, or none into a loop: the case is gone")
	}
}
