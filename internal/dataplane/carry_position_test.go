package dataplane_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// carryTiers are the resume oracle's topologies (resumeTiers in
// internal/scenarios/generate): every hand-built scenario and the generated
// tiers.
var carryTiers = []struct {
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

// carryEdit draws a change to hop h of a trace of flow f on n, whose
// snapshot is s: an ACL entry on the hop's ingress or egress interface (a
// deny of the flow ahead of every entry, or a deny of the next source
// address behind them, which keeps the flow's result) and, now and then, a
// binding on the hop's other half too — to an ACL the device does not
// define (a pass), or to one of its own that denies the flow or the next
// source address and permits the rest — a /32 static route
// for the destination via an adjacent endpoint, or an OSPF cost on the
// hop's egress (new route cells on routers whose config did not change:
// suspects). It returns nil when the hop offers none of the one drawn.
func carryEdit(rng *rand.Rand, n *netmodel.Network, s *dataplane.Snapshot, f dataplane.Flow, h dataplane.Hop) (dataplane.ChangeKind, func(*netmodel.Device)) {
	d := n.Devices[h.Device]
	switch rng.Intn(3) {
	case 0:
		ifName := h.OutIf
		if ifName == "" || h.InIf != "" && rng.Intn(2) == 0 {
			ifName = h.InIf
		}
		if d.Interface(ifName) == nil {
			return 0, nil
		}
		in, keep := ifName == h.InIf, rng.Intn(2) == 0
		other, both := h.InIf, rng.Intn(4)
		if in {
			other = h.OutIf
		}
		if other == "" || d.Interface(other) == nil {
			both = 0
		}
		return dataplane.ChangeACL, func(d *netmodel.Device) {
			if both > 0 {
				otherBound := &d.Interfaces[other].ACLIn
				if in {
					otherBound = &d.Interfaces[other].ACLOut
				}
				*otherBound = "UNDEFINED-" + other
				if both > 1 {
					*otherBound = "BOTH-" + other
					src := netip.PrefixFrom(f.Src, 32)
					if both == 3 {
						src = netip.PrefixFrom(f.Src.Next(), 32)
					}
					a := d.ACL(*otherBound, true)
					a.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: f.Proto, Src: src,
						Dst: netip.PrefixFrom(f.Dst, 32), DstPort: f.DstPort})
					a.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit, Proto: netmodel.AnyProto})
				}
			}
			itf := d.Interfaces[ifName]
			bound := &itf.ACLOut
			if in {
				bound = &itf.ACLIn
			}
			if *bound == "" {
				*bound = "POS-" + ifName
			}
			a := d.ACL(*bound, true)
			e := netmodel.ACLEntry{Seq: 1, Action: netmodel.Deny, Proto: f.Proto,
				Src: netip.PrefixFrom(f.Src, 32), Dst: netip.PrefixFrom(f.Dst, 32), DstPort: f.DstPort}
			if len(a.Entries) > 0 {
				e.Seq = a.Entries[0].Seq - 1
			}
			if keep {
				e.Seq, e.Src = 1, netip.PrefixFrom(f.Src.Next(), 32)
				if len(a.Entries) > 0 {
					e.Seq = a.Entries[len(a.Entries)-1].Seq + 1
				}
			}
			a.InsertEntry(e)
		}
	case 1:
		var via []netip.Addr
		for _, ifName := range d.InterfaceNames() {
			for _, peer := range s.Adjacent(netmodel.Endpoint{Device: h.Device, Interface: ifName}) {
				if itf := n.Devices[peer.Device].Interface(peer.Interface); itf != nil && itf.HasAddr() {
					via = append(via, itf.Addr.Addr())
				}
			}
		}
		if len(via) == 0 {
			return 0, nil
		}
		route := netmodel.StaticRoute{Prefix: netip.PrefixFrom(f.Dst, 32), NextHop: via[rng.Intn(len(via))]}
		return dataplane.ChangeStatic, func(d *netmodel.Device) { d.StaticRoutes = append(d.StaticRoutes, route) }
	default:
		if d.OSPF == nil || d.Interface(h.OutIf) == nil {
			return 0, nil
		}
		cost, ifName := 1+rng.Intn(40), h.OutIf
		return dataplane.ChangeOSPF, func(d *netmodel.Device) { d.Interfaces[ifName].OSPFCost = cost }
	}
}

// TestFirstStaleMatchesNames holds the carry test, which reads each trace's
// hop positions against Derive's position lists, to its name-based
// reference (FirstStaleByName), on every tier of the resume oracle. Along
// seeded chains of ACL, static and OSPF derivations aimed at policy paths,
// every policy's trace on the parent — walked from the source, carried, or
// resumed there with a prefix kept from its own parent — must give the
// same first stale index with and without replay. The chains must carry a
// trace across an ACL-only device by replay (across a hop with ACLs bound
// on both halves, one of them to an ACL the device does not define), stop
// one at a suspect whose RIB moved and hand a resumed trace with a kept
// prefix to the next step, or the case is gone.
func TestFirstStaleMatchesNames(t *testing.T) {
	seeds, steps := 3, 12
	if dataplane.RaceEnabled {
		seeds = 1
	}
	var replayed, bothHalves, undefined, atSuspect, resumedPrefix int
	for _, tier := range carryTiers {
		scen := tier.build()
		for seed := 1; seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			cur, snap := scen.Network, dataplane.Compute(scen.Network)
			prevs := make([]*dataplane.Trace, len(scen.Policies))
			for i, p := range scen.Policies {
				prevs[i], _ = snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
			}
			var trail []string
			for step := 0; step < steps; step++ {
				next, cs := cur, dataplane.ChangeSet(nil)
				for k := 1 + rng.Intn(2); k > 0; k-- {
					tr := prevs[rng.Intn(len(prevs))]
					if tr == nil || len(tr.Hops) == 0 {
						continue
					}
					h := tr.Hops[rng.Intn(len(tr.Hops))]
					kind, apply := carryEdit(rng, next, snap, tr.Flow, h)
					if apply == nil {
						continue
					}
					next = next.CloneCOW(h.Device)
					apply(next.Devices[h.Device])
					cs = append(cs, dataplane.Change{Device: h.Device, Kind: kind})
					trail = append(trail, fmt.Sprintf("%d: %s %s", step, h.Device, kind))
				}
				child := snap.Derive(next, cs)
				for i, p := range scen.Policies {
					tr := prevs[i]
					if tr == nil {
						continue
					}
					var got [2]int
					for k, replay := range []bool{true, false} {
						got[k] = child.FirstStale(tr, replay)
						if want := child.FirstStaleByName(snap, cs, tr, replay); got[k] != want {
							t.Fatalf("%s seed %d: %s (replay %v): first stale hop %d, by name %d\ntrace: %s\nsteps: %q",
								tier.name, seed, p, replay, got[k], want, tr, trail)
						}
					}
					if got[0] == len(tr.Hops) && got[1] < len(tr.Hops) {
						replayed++
						h := tr.Hops[got[1]]
						d := next.Devices[h.Device]
						if in, out := d.Interface(h.InIf), d.Interface(h.OutIf); in != nil && out != nil && in.ACLIn != "" && out.ACLOut != "" {
							bothHalves++
							if d.ACLs[in.ACLIn] == nil || d.ACLs[out.ACLOut] == nil {
								undefined++
							}
						}
					}
					if got[1] < len(tr.Hops) && !slices.ContainsFunc(cs, func(c dataplane.Change) bool { return c.Device == tr.Hops[got[1]].Device }) {
						atSuspect++
					}
					prevs[i], _ = child.ReachFrom(tr, p.Src, p.Dst, p.Proto, p.DstPort)
					if got[0] > 0 && got[0] < len(tr.Hops) && step < steps-1 {
						resumedPrefix++
					}
				}
				snap, cur = child, next
			}
		}
	}
	t.Logf("%d traces carried by replay (%d across a hop with ACLs bound on both halves, %d of them one the device does not define), %d stopped at a moved suspect, %d resumed with a kept prefix and held to the reference again",
		replayed, bothHalves, undefined, atSuspect, resumedPrefix)
	if replayed == 0 || bothHalves == 0 || undefined == 0 || atSuspect == 0 || resumedPrefix == 0 {
		t.Fatal("no chain carried a trace by replay (across both halves of a hop, one bound to an undefined ACL), stopped one at a suspect or resumed one with a kept prefix: the case is gone")
	}
}
