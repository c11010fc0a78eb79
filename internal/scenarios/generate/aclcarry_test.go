package generate_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/verify"
)

// aclCarryChain derives steps snapshots in a row from the scenario, each
// step one or two ACL-only edits (aclEdit) aimed at the paths of the step's
// flows: the scenario's policies and 20 random host pairs on their services.
// The parent is asked half the flows first ("warm": their traces are
// ReachFrom's prev on the child); the rest are asked of the child with no
// trace, so a flow nobody asked the parent is traced from the source there
// and offered back. Every trace the child serves must deep-equal TraceFrom
// from the source on the child, and afterwards every flow asked of the
// parent must still deep-equal TraceFrom from the source on the parent. It
// returns the warm traces the child carried across a changed device (by
// replaying its ACLs) and those it resumed.
func aclCarryChain(t *testing.T, scen *scenarios.Scenario, rng *rand.Rand, steps int) (replayed, resumed int) {
	cur, snap := scen.Network, dataplane.Compute(scen.Network)
	var hosts []string
	for _, h := range cur.Hosts() {
		if _, ok := cur.HostAddr(h); ok {
			hosts = append(hosts, h)
		}
	}
	var trail []string
	for len(trail) < steps {
		flows := append([]verify.Policy(nil), scen.Policies...)
		for k := 0; k < 20; k++ {
			p := scen.Policies[rng.Intn(len(scen.Policies))]
			p.ID, p.Src, p.Dst = "random", hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			flows = append(flows, p)
		}
		prevs := make([]*dataplane.Trace, len(flows))
		var dropped []int // the flows an ACL drops on the parent
		for i, p := range flows {
			if rng.Intn(2) == 0 {
				prevs[i], _ = snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
			}
			if fromSource(snap, cur, p).Disposition == dataplane.DropACL {
				dropped = append(dropped, i)
			}
		}
		// Aim each edit at a random pair's path (most likely cold on the
		// parent), at any flow's, or at an ACL drop's last hop.
		next, cs, ops := cur, dataplane.ChangeSet(nil), ""
		for k, edits := 0, 1+rng.Intn(2); k < edits; k++ {
			j := len(scen.Policies) + rng.Intn(len(flows)-len(scen.Policies))
			switch rng.Intn(3) {
			case 0:
				j = rng.Intn(len(flows))
			case 1:
				if len(dropped) > 0 {
					j = dropped[rng.Intn(len(dropped))]
				}
			}
			tr := fromSource(snap, next, flows[j])
			i := rng.Intn(len(tr.Hops))
			if tr.Disposition == dataplane.DropACL && rng.Intn(2) == 0 {
				i = len(tr.Hops) - 1
			}
			step, ok := aclEdit(rng, next, tr, i, rng.Intn(2) == 0)
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
		for i, p := range flows {
			got, err := child.ReachFrom(prevs[i], p.Src, p.Dst, p.Proto, p.DstPort)
			if err != nil {
				t.Fatalf("step %d: %s: %v\nsteps: %q", len(trail), p, err, trail)
			}
			if want := fromSource(child, next, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s: the child's trace diverged from the source's\nchild:  %s\nsource: %s\nparent: %s\nsteps: %q",
					len(trail), p, got, want, prevs[i], trail)
			}
			switch {
			case prevs[i] == nil:
			case !child.Carries(prevs[i]):
				resumed++
			case crosses(prevs[i], cs):
				replayed++
			}
		}
		for _, p := range flows {
			got, _ := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
			if want := fromSource(snap, cur, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s: the parent's trace changed under its child\nparent: %s\nsource: %s\nsteps: %q",
					len(trail), p, got, want, trail)
			}
		}
		snap, cur = child, next
	}
	return replayed, resumed
}

// TestACLCarryMatchesSource is the oracle of the replaying carry rule
// (dataplane.Snapshot.Carries): on the tiers of TestReachFromMatchesSource,
// along seeded chains of ACL-only derivations on ingress- and egress-bound
// ACLs whose edits keep the flow's verdict (another flow's entry, a deny
// shadowed by an earlier match, a second deny behind a deny) or flip it (a
// drop that moves to another ACL of the same device among them), a trace the
// child serves — carried by replay, resumed or traced from the source — must
// equal TraceFrom from the source, and the parent must still answer every
// flow with its own (aclCarryChain): what a child writes back is held to the
// strict rule (CarriesBack). The chains must carry traces by replay and
// resume others, or the case is gone.
func TestACLCarryMatchesSource(t *testing.T) {
	seeds, steps := 3, 12
	if raceEnabled {
		seeds = 1
	}
	var replayed, resumed int
	for _, tier := range resumeTiers {
		scen := tier.build()
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tier.name, seed), func(t *testing.T) {
				r, s := aclCarryChain(t, scen, rand.New(rand.NewSource(int64(seed))), steps)
				replayed += r
				resumed += s
			})
		}
	}
	t.Logf("%d traces carried by replay, %d resumed", replayed, resumed)
	if replayed == 0 || resumed == 0 {
		t.Fatal("no chain carried a trace by replay, or none resumed one: the case is gone")
	}
}
