package generate_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
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
// policy flow, so the child resumes that trace there or carries it by
// replaying the hop's ACLs: an ACL edit on the hop's ingress or egress
// (aclEdit, verdict-keeping or verdict-flipping), a /32 static route for the
// destination back to the previous hop (a loop through the kept prefix) or
// to another neighbor, an OSPF cost on the hop's egress (new route cells on
// routers whose config did not change: suspects), or, in one draw of five,
// any step randomStep knows.
func resumeStep(rng *rand.Rand, n *netmodel.Network, s *dataplane.Snapshot, tr *dataplane.Trace, i int) (chainStep, bool) {
	h := tr.Hops[i]
	d, f := n.Devices[h.Device], tr.Flow
	host := func(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 32) }
	switch rng.Intn(5) {
	case 0: // ACL
		return aclEdit(rng, n, tr, i, rng.Intn(2) == 0)
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

// aclEdit draws a ChangeACL edit aimed at hop i of tr, the parent's trace
// of a flow, on the ACL bound to the hop's ingress or egress interface. An
// interface with no ACL, or bound to an undefined one, first gets a
// permit-any ACL (which alone changes no verdict). With keep the flow's
// result at that ACL stays what tr took there: an entry for another flow
// (the next source address), or a deny behind the entry that decides the
// flow now (shadowed by a permit, or a second deny behind a deny). Without
// it the result flips: a deny of the flow ahead of everything where tr went
// past, a permit where tr was dropped there, or, where tr was dropped by the
// hop's egress ACL, a deny on its ingress ACL (the drop moves to another ACL
// of the same device, so only the trace's Detail and last hop differ).
func aclEdit(rng *rand.Rand, n *netmodel.Network, tr *dataplane.Trace, i int, keep bool) (chainStep, bool) {
	h, f := tr.Hops[i], tr.Flow
	in := h.OutIf == "" || h.InIf != "" && rng.Intn(2) == 0
	// An ingress drop ends its hop before the route lookup: no egress.
	dropped := i == len(tr.Hops)-1 && tr.Disposition == dataplane.DropACL && in == (h.OutIf == "")
	entry := netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: f.Proto,
		Src: netip.PrefixFrom(f.Src, 32), Dst: netip.PrefixFrom(f.Dst, 32), DstPort: f.DstPort}
	op, shadow := "deny", false
	switch {
	case !keep && dropped && !in && h.InIf != "" && rng.Intn(2) == 0:
		op, in = "moved-deny", true
	case !keep && dropped:
		op, entry.Action = "permit", netmodel.Permit
	case !keep:
	case rng.Intn(2) == 0:
		op, entry.Src = "other-flow", netip.PrefixFrom(f.Src.Next(), 32)
	default:
		op, shadow = "shadowed-deny", true
	}
	ifName := h.OutIf
	if in {
		ifName = h.InIf
	}
	if ifName == "" || n.Devices[h.Device].Interface(ifName) == nil {
		return chainStep{}, false
	}
	op = fmt.Sprintf("acl %s %s in=%v", op, ifName, in)
	return chainStep{op, h.Device, dataplane.ChangeACL, func(d *netmodel.Device) {
		itf := d.Interfaces[ifName]
		bound := &itf.ACLOut
		if in {
			bound = &itf.ACLIn
		}
		if *bound == "" {
			*bound = "CARRY-" + ifName
		}
		a := d.ACL(*bound, false)
		if a == nil {
			a = d.ACL(*bound, true)
			a.InsertEntry(netmodel.ACLEntry{Seq: 100, Action: netmodel.Permit, Proto: netmodel.AnyProto,
				Src: netip.MustParsePrefix("0.0.0.0/0"), Dst: netip.MustParsePrefix("0.0.0.0/0")})
		}
		if keep {
			// A shadowed deny goes one past the entry that decides the flow
			// (past the last one when the implicit deny does). Where that
			// number is taken, and for another flow's entry, the first free
			// number: a keeping edit replaces no entry.
			seq := 1
			for j := 0; shadow && j < len(a.Entries); j++ {
				seq = a.Entries[j].Seq + 1
				if a.Entries[j].Matches(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) {
					break
				}
			}
			taken := func(e netmodel.ACLEntry) bool { return e.Seq == seq }
			if slices.ContainsFunc(a.Entries, taken) {
				seq, entry.Src = 1, netip.PrefixFrom(f.Src.Next(), 32)
				for slices.ContainsFunc(a.Entries, taken) {
					seq++
				}
			}
			entry.Seq = seq
		}
		a.InsertEntry(entry)
	}}, true
}

// resumeStats is what the resume oracle exercised: traces resumed, resumed
// past their source, resumed into a loop, and carried across a changed
// device by replaying its ACLs.
type resumeStats struct{ resumed, pastSource, loops, replayed int }

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
			if child.Carries(prevs[i]) && crosses(prevs[i], cs) {
				stats.replayed++
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

// crosses reports whether the trace has a hop on a device the change set
// names.
func crosses(tr *dataplane.Trace, cs dataplane.ChangeSet) bool {
	return tr != nil && slices.ContainsFunc(tr.Hops, func(h dataplane.Hop) bool { return containsDevice(cs, h.Device) })
}

// resumeTiers are the topologies the resume and ACL-carry oracles run on:
// every hand-built scenario and the generated tiers.
var resumeTiers = []struct {
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

// TestReachFromMatchesSource is the resume oracle: on every hand-built
// scenario and the generated tiers, along seeded chains of ACL, static,
// OSPF and L2 derivations aimed at policy paths (resumeChain), a trace
// ReachFrom resumes from the parent's, or carries by replaying a changed
// device's ACLs, must deep-equal TraceFrom from the source on the same
// snapshot. The chains must resume past the source and into loops through
// the kept prefix, and carry by replay, or the case is gone.
func TestReachFromMatchesSource(t *testing.T) {
	seeds, steps := 3, 12
	if raceEnabled {
		seeds = 1
	}
	var total resumeStats
	for _, tier := range resumeTiers {
		scen := tier.build()
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tier.name, seed), func(t *testing.T) {
				s := resumeChain(t, scen, rand.New(rand.NewSource(int64(seed))), steps)
				total.resumed += s.resumed
				total.pastSource += s.pastSource
				total.loops += s.loops
				total.replayed += s.replayed
			})
		}
	}
	t.Logf("%d traces resumed, %d past the source, %d into a loop, %d carried by replay",
		total.resumed, total.pastSource, total.loops, total.replayed)
	if total.pastSource == 0 || total.loops == 0 || total.replayed == 0 {
		t.Fatal("no chain resumed a trace past its source, none into a loop, or none carried one by replay: the case is gone")
	}
}
