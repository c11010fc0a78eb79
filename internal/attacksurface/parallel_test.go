package attacksurface

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// TestParallelEquivalence is the sweep's correctness anchor: at any
// worker count, Result.Samples must be identical — same order, same
// feasibility, same surface bits — to the serial sweep.
func TestParallelEquivalence(t *testing.T) {
	type tc struct {
		name   string
		scen   *scenarios.Scenario
		cases  int // 0 = all
		budget int
	}
	for _, c := range []tc{
		{"enterprise", scenarios.Enterprise(), 0, 6},
		{"university", scenarios.University(), 24, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			cases := InterfaceFaults(c.scen.Network, nil)
			if c.cases > 0 && len(cases) > c.cases {
				cases = cases[:c.cases]
			}
			for _, tech := range []Technique{All, Neighbor, Heimdall} {
				ev := &Evaluator{Base: c.scen.Network, Policies: c.scen.Policies,
					Sensitive: c.scen.Sensitive, MutationBudget: c.budget}
				serial := ev.Evaluate(tech, cases)
				for _, workers := range []int{4, 8} {
					ev.Workers = workers
					par := ev.Evaluate(tech, cases)
					if !reflect.DeepEqual(serial.Samples, par.Samples) {
						t.Errorf("%s/%s: Workers=%d samples differ from serial\nserial:   %+v\nparallel: %+v",
							c.name, tech.Name, workers, serial.Samples, par.Samples)
					}
				}
			}
		})
	}
}

// exhaustiveVP is the pre-optimization search, kept as a test oracle: it
// mirrors the original potentialViolations loop — every allowed mutation
// within the budget is applied and the FULL policy set rechecked. The
// incremental search must return exactly this count.
func exhaustiveVP(ev *Evaluator, faulted *netmodel.Network, tech Technique,
	slice map[string]bool, pre map[string]bool) int {

	spec := ev.specFor(tech, faulted, slice).Compile()
	hijacks := hostSubnets(ev.Base)
	var muts []mutation
	for _, dev := range sortedKeys(slice) {
		d := faulted.Devices[dev]
		if d == nil {
			continue
		}
		muts = append(muts, deviceMutations(d, hijacks)...)
	}
	violated := make(map[string]bool)
	evaluated := 0
	for _, m := range muts {
		if ev.MutationBudget > 0 && evaluated >= ev.MutationBudget {
			break
		}
		if len(violated) == len(ev.Policies) {
			break
		}
		if !tech.FullPrivileges && !spec.Allows(m.Action(), m.Resource()) {
			continue
		}
		evaluated++
		trial := faulted.Clone()
		if err := config.ApplyChanges(trial, []config.Change{m.Change}); err != nil {
			panic(err)
		}
		for _, v := range verify.Check(dataplane.Compute(trial), ev.Policies).Violations {
			if !pre[v.Policy.ID] {
				violated[v.Policy.ID] = true
			}
		}
	}
	return len(violated)
}

// TestIncrementalMatchesExhaustive pins the tentpole's exactness claim:
// scoping each trial to the policies whose baseline traffic crosses the
// mutated device (plus the isolation/undelivered carve-outs and the
// conservative all-policies path for switches) yields the same VP count
// as rechecking everything.
func TestIncrementalMatchesExhaustive(t *testing.T) {
	scen := scenarios.Enterprise()
	cases := InterfaceFaults(scen.Network, nil)
	if len(cases) > 10 {
		cases = cases[:10]
	}
	for _, tech := range []Technique{All, Heimdall} {
		ev := &Evaluator{Base: scen.Network, Policies: scen.Policies,
			Sensitive: scen.Sensitive, MutationBudget: 8}
		for _, fc := range cases {
			faulted := ev.Base.Clone()
			if err := fc.Fault.Inject(faulted); err != nil {
				continue
			}
			snap := dataplane.Compute(faulted)
			slice := twin.ComputeSlice(faulted, snap, tech.Strategy, fc.Src, fc.Dst, nil)
			spec := ev.specFor(tech, faulted, slice)
			pre := violatedSet(snap, ev.Policies)

			want := exhaustiveVP(ev, faulted, tech, slice, pre)
			got := ev.potentialViolations(faulted, snap, spec.Compile(), tech.FullPrivileges, slice, pre)
			if got != want {
				t.Errorf("%s/%s: incremental VP = %d, exhaustive = %d",
					tech.Name, fc.Fault.Name, got, want)
			}
		}
	}
}

// TestWorkersDefaultSerial pins that the zero value of Workers keeps the
// evaluator fully serial (the documented Workers: 1 contract).
func TestWorkersDefaultSerial(t *testing.T) {
	scen := scenarios.Enterprise()
	cases := InterfaceFaults(scen.Network, nil)[:3]
	zero := &Evaluator{Base: scen.Network, Policies: scen.Policies,
		Sensitive: scen.Sensitive, MutationBudget: 2}
	one := &Evaluator{Base: scen.Network, Policies: scen.Policies,
		Sensitive: scen.Sensitive, MutationBudget: 2, Workers: 1}
	a := zero.Evaluate(Heimdall, cases)
	b := one.Evaluate(Heimdall, cases)
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Errorf("Workers 0 and 1 disagree:\n%+v\n%+v", a.Samples, b.Samples)
	}
}

// hostSubnets duplicates the hijack-target enumeration for the oracle.
func hostSubnets(n *netmodel.Network) []netip.Prefix {
	var out []netip.Prefix
	seen := map[netip.Prefix]bool{}
	for _, host := range n.Hosts() {
		if a, ok := n.HostAddr(host); ok {
			p := netip.PrefixFrom(a, 24).Masked()
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
