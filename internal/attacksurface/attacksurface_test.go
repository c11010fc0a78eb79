package attacksurface

import (
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

func TestInterfaceFaultsEnumeration(t *testing.T) {
	s := scenarios.Enterprise()
	cases := InterfaceFaults(s.Network, nil)
	if len(cases) < 10 {
		t.Fatalf("too few fault cases: %d", len(cases))
	}
	seen := map[string]bool{}
	for _, fc := range cases {
		if seen[fc.Fault.Name] {
			t.Errorf("duplicate fault %s", fc.Fault.Name)
		}
		seen[fc.Fault.Name] = true
		if fc.Src == "" || fc.Dst == "" || fc.Fault.RootCause == "" {
			t.Errorf("incomplete case %+v", fc)
		}
		if s.Network.Devices[fc.Fault.RootCause].Kind == 2 /* Host */ {
			t.Errorf("fault on a host: %+v", fc)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full mutation search is slow")
	}
	s := scenarios.Enterprise()
	ev := &Evaluator{Base: s.Network, Policies: s.Policies, Sensitive: s.Sensitive}
	cases := InterfaceFaults(s.Network, nil)

	all := ev.Evaluate(All, cases)
	nb := ev.Evaluate(Neighbor, cases)
	hd := ev.Evaluate(Heimdall, cases)
	t.Logf("All:      %s", all)
	t.Logf("Neighbor: %s", nb)
	t.Logf("Heimdall: %s", hd)

	// Paper shape (Figure 8): All is fully feasible with the largest
	// surface; Neighbor is cheap but often infeasible; Heimdall keeps
	// feasibility close to All with the smallest surface.
	if all.Feasibility() != 1.0 {
		t.Errorf("All feasibility = %v, want 1.0", all.Feasibility())
	}
	if nb.Feasibility() >= all.Feasibility() {
		t.Errorf("Neighbor feasibility %v should be below All", nb.Feasibility())
	}
	if hd.Feasibility() < 0.9 {
		t.Errorf("Heimdall feasibility = %v, want ≈1.0", hd.Feasibility())
	}
	if !(all.MeanSurface() > nb.MeanSurface()) {
		t.Errorf("surface: All %.1f should exceed Neighbor %.1f", all.MeanSurface(), nb.MeanSurface())
	}
	if !(nb.MeanSurface() > hd.MeanSurface()) {
		t.Errorf("surface: Neighbor %.1f should exceed Heimdall %.1f", nb.MeanSurface(), hd.MeanSurface())
	}
	// The headline claim: Heimdall reduces attack surface substantially
	// (the paper reports up to 39 percentage points vs the baselines).
	if all.MeanSurface()-hd.MeanSurface() < 20 {
		t.Errorf("reduction All->Heimdall = %.1f points, want > 20",
			all.MeanSurface()-hd.MeanSurface())
	}
}

func TestMutationBudgetBounds(t *testing.T) {
	s := scenarios.Enterprise()
	ev := &Evaluator{Base: s.Network, Policies: s.Policies, Sensitive: s.Sensitive, MutationBudget: 3}
	cases := InterfaceFaults(s.Network, nil)[:2]
	res := ev.Evaluate(All, cases)
	if len(res.Samples) != 2 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for _, sm := range res.Samples {
		if sm.Surface < 0 || sm.Surface > 100 {
			t.Errorf("surface out of range: %v", sm.Surface)
		}
		if sm.ExposedRatio != 1.0 {
			t.Errorf("All should expose everything, got %v", sm.ExposedRatio)
		}
	}
}

func TestHeimdallExposesLessThanAll(t *testing.T) {
	s := scenarios.Enterprise()
	ev := &Evaluator{Base: s.Network, Policies: s.Policies, Sensitive: s.Sensitive, MutationBudget: 1}
	cases := InterfaceFaults(s.Network, nil)[:3]
	all := ev.Evaluate(All, cases)
	hd := ev.Evaluate(Heimdall, cases)
	for i := range all.Samples {
		if hd.Samples[i].ExposedRatio >= all.Samples[i].ExposedRatio {
			t.Errorf("case %d: Heimdall exposed %v >= All %v", i,
				hd.Samples[i].ExposedRatio, all.Samples[i].ExposedRatio)
		}
		if hd.Samples[i].VisibleNodes > all.Samples[i].VisibleNodes {
			t.Errorf("case %d: Heimdall sees more nodes than All", i)
		}
	}
}

func TestResultAggregation(t *testing.T) {
	r := &Result{Technique: "x"}
	if r.Feasibility() != 0 || r.MeanSurface() != 0 {
		t.Fatal("empty result should aggregate to zero")
	}
	r.Samples = []Sample{{Feasible: true, Surface: 40}, {Feasible: false, Surface: 20}}
	if r.Feasibility() != 0.5 {
		t.Fatalf("feasibility = %v", r.Feasibility())
	}
	if r.MeanSurface() != 30 {
		t.Fatalf("mean surface = %v", r.MeanSurface())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// TestAffectedBySwitchConservative pins why verify.Scope treats switches
// conservatively: the enterprise fabric carries flows through sw1/sw2 as
// pure L2 transit, so their traces never list the switch as a hop,
// verify.AffectedBy would drop the policy from a trial's recheck scope —
// yet an L2-only mutation on the switch (trunk shutdown) breaks the flow.
// The sweep must therefore keep every policy in scope for switch trials.
func TestAffectedBySwitchConservative(t *testing.T) {
	scen := scenarios.Enterprise()
	n := scen.Network
	snap := dataplane.Compute(n)
	scope := func(dev string) []verify.Policy {
		return verify.Scope(n, snap, scen.Policies, map[string]bool{dev: true})
	}

	type witness struct {
		policy verify.Policy
		sw     string
	}
	var w *witness
	for _, sw := range []string{"sw1", "sw2"} {
		mutated := n.CloneCOW(sw)
		d := mutated.Devices[sw]
		trunk := ""
		for _, ifName := range d.InterfaceNames() {
			if itf := d.Interfaces[ifName]; itf.Mode == netmodel.Trunk && !itf.HasAddr() {
				trunk = ifName
				break
			}
		}
		if trunk == "" {
			continue
		}
		d.Interfaces[trunk].Shutdown = true
		trial := snap.Derive(mutated, dataplane.ChangeSet{{Device: sw, Kind: dataplane.ChangeL2}})
		for _, p := range scen.Policies {
			tr, err := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
			if err != nil || !tr.Delivered() || tr.Traverses(sw) {
				continue // only interested in policies outside AffectedBy's scope
			}
			if verify.CheckPolicy(trial, p) != nil {
				w = &witness{policy: p, sw: sw}
				break
			}
		}
		if w != nil {
			break
		}
	}
	if w == nil {
		t.Fatal("no policy is both outside AffectedBy scope and breakable by an L2 switch mutation; the conservative path has no witness")
	}

	// AffectedBy alone would have dropped the witness policy...
	scoped := verify.AffectedBy(snap, []verify.Policy{w.policy}, map[string]bool{w.sw: true})
	if len(scoped) != 0 {
		t.Fatalf("precondition broken: %s is in AffectedBy scope for %s", w.policy.ID, w.sw)
	}
	// ...but the sweep's per-trial scope must retain it.
	kept := false
	for _, p := range scope(w.sw) {
		if p.ID == w.policy.ID {
			kept = true
			break
		}
	}
	if !kept {
		t.Errorf("Scope(%s) dropped policy %s, which an L2 mutation on %s violates", w.sw, w.policy.ID, w.sw)
	}
	// A router's scope stays trace-based: it must be a strict subset.
	if got, all := len(scope("r2")), len(scen.Policies); got >= all {
		t.Errorf("router scope not narrowed: %d of %d policies", got, all)
	}
}

// TestInterfaceFaultsOracle pins the incremental coverage walk against the
// historical all-pairs reference: build every delivered host-pair trace,
// then for each candidate interface pick the first trace that crosses it.
// The unbounded InterfaceFaults must reproduce that output exactly —
// including which pair each fault is attributed to — since the early-exit
// rewrite only changes when the walk stops, not what it records.
func TestInterfaceFaultsOracle(t *testing.T) {
	for _, s := range []*scenarios.Scenario{scenarios.Enterprise(), scenarios.University()} {
		n := s.Network
		snap := dataplane.Compute(n)
		got := InterfaceFaults(n, snap)

		type pairTrace struct {
			src, dst string
			tr       *dataplane.Trace
		}
		var traces []pairTrace
		for _, src := range n.Hosts() {
			for _, dst := range n.Hosts() {
				if src == dst {
					continue
				}
				tr, err := snap.Reach(src, dst, netmodel.ICMP, 0)
				if err == nil && tr.Delivered() {
					traces = append(traces, pairTrace{src, dst, tr})
				}
			}
		}
		var want []FaultCase
		for _, dev := range n.RoutersAndSwitches() {
			d := n.Devices[dev]
			for _, ifName := range d.InterfaceNames() {
				itf := d.Interfaces[ifName]
				if !itf.Up() || !itf.HasAddr() {
					continue
				}
				var affected *pairTrace
				for i := range traces {
					for _, hop := range traces[i].tr.Hops {
						if hop.Device == dev && (hop.InIf == ifName || hop.OutIf == ifName) {
							affected = &traces[i]
							break
						}
					}
					if affected != nil {
						break
					}
				}
				if affected == nil {
					continue
				}
				want = append(want, FaultCase{Fault: ticket.InterfaceDown(dev, ifName), Src: affected.src, Dst: affected.dst})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d cases, reference has %d", s.Name, len(got), len(want))
		}
		for i := range want {
			if got[i].Fault.Name != want[i].Fault.Name || got[i].Src != want[i].Src || got[i].Dst != want[i].Dst {
				t.Errorf("%s case %d: got (%s %s->%s) want (%s %s->%s)", s.Name, i,
					got[i].Fault.Name, got[i].Src, got[i].Dst,
					want[i].Fault.Name, want[i].Src, want[i].Dst)
			}
		}
	}
}

// TestInterfaceFaultsBudget checks the stride-sampled walk's invariants:
// every emitted case's host pair really crosses the faulted interface, no
// fault repeats, and a budget large enough to cover everything converges
// to the unbounded enumeration.
func TestInterfaceFaultsBudget(t *testing.T) {
	s := scenarios.University()
	n := s.Network
	snap := dataplane.Compute(n)
	cases := InterfaceFaultsBudget(n, snap, 8)
	if len(cases) == 0 {
		t.Fatal("budgeted walk found no cases")
	}
	seen := map[string]bool{}
	for _, fc := range cases {
		if seen[fc.Fault.Name] {
			t.Errorf("duplicate fault %s", fc.Fault.Name)
		}
		seen[fc.Fault.Name] = true
		tr, err := snap.Reach(fc.Src, fc.Dst, netmodel.ICMP, 0)
		if err != nil || !tr.Delivered() {
			t.Fatalf("%s: affected pair %s->%s does not deliver", fc.Fault.Name, fc.Src, fc.Dst)
		}
		crosses := false
		for _, hop := range tr.Hops {
			for _, ifName := range []string{hop.InIf, hop.OutIf} {
				if ifName != "" && ticket.InterfaceDown(hop.Device, ifName).Name == fc.Fault.Name {
					crosses = true
				}
			}
		}
		if !crosses {
			t.Errorf("%s: pair %s->%s never crosses the faulted interface", fc.Fault.Name, fc.Src, fc.Dst)
		}
	}
	hosts := len(n.Hosts())
	full := InterfaceFaultsBudget(n, snap, hosts*(hosts-1))
	unbounded := InterfaceFaults(n, snap)
	if len(full) != len(unbounded) {
		t.Fatalf("budget >= pair count diverges: %d vs %d", len(full), len(unbounded))
	}
	for i := range unbounded {
		if full[i].Fault.Name != unbounded[i].Fault.Name || full[i].Src != unbounded[i].Src || full[i].Dst != unbounded[i].Dst {
			t.Errorf("case %d: (%s %s->%s) vs (%s %s->%s)", i,
				full[i].Fault.Name, full[i].Src, full[i].Dst,
				unbounded[i].Fault.Name, unbounded[i].Src, unbounded[i].Dst)
		}
	}
}
