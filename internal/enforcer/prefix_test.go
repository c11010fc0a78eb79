package enforcer

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/verify"
)

// prefixScenarios are the six scenario families the prefix oracle walks.
var prefixScenarios = sync.OnceValue(func() []*scenarios.Scenario {
	return []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.ISP(generate.ISPParams{}), generate.WAN(generate.WANParams{}),
	}
})

// prefixOracle decides, on one scenario's production, whether a change set
// pushed in Schedule's order passes through a state its endpoints do not:
// the production snapshot and every policy's verdict on it are computed
// once, and each state a push reaches is derived from them.
type prefixOracle struct {
	scen *scenarios.Scenario
	snap *dataplane.Snapshot
	vec  verify.Verdicts
}

func newPrefixOracle(s *scenarios.Scenario) *prefixOracle {
	o := &prefixOracle{scen: s, snap: dataplane.Compute(s.Network), vec: make(verify.Verdicts, len(s.Policies))}
	verify.CheckCarried(o.snap, s.Policies, nil, o.vec, nil)
	return o
}

// violated is the IDs of the policies production violates once changes are
// pushed onto it.
func (o *prefixOracle) violated(t *testing.T, changes []config.Change) map[string]bool {
	t.Helper()
	n := o.scen.Network
	out := map[string]bool{}
	if len(changes) == 0 {
		for i, p := range o.scen.Policies {
			if o.vec[i].Violation != nil {
				out[p.ID] = true
			}
		}
		return out
	}
	pushed := n.CloneCOW(touchedDevices(changes)...)
	if err := config.ApplyChanges(pushed, changes); err != nil {
		t.Fatalf("%s: %v does not apply: %v", o.scen.Name, changes, err)
	}
	res := verify.CheckCarried(o.snap.Derive(pushed, dataplane.ChangeSetFor(n, changes)), o.scen.Policies, o.vec, nil, nil)
	for _, v := range res.Violations {
		out[v.Policy.ID] = true
	}
	return out
}

// unsafePrefix returns the first strict prefix of Schedule(changes) that
// violates a policy both production and the whole set satisfy, rendered
// with the policies it opens, or "" when every prefix is safe. It reports
// whether the schedule had a strict prefix at all.
func (o *prefixOracle) unsafePrefix(t *testing.T, changes []config.Change) (string, bool) {
	t.Helper()
	ordered := Schedule(changes)
	if len(ordered) < 2 {
		return "", false
	}
	pre, post := o.violated(t, nil), o.violated(t, ordered)
	for k := 1; k < len(ordered); k++ {
		var opened []string
		for id := range o.violated(t, ordered[:k]) {
			if !pre[id] && !post[id] {
				opened = append(opened, id)
			}
		}
		if len(opened) > 0 {
			slices.Sort(opened)
			var pushed []string
			for _, c := range ordered[:k] {
				pushed = append(pushed, c.String())
			}
			return fmt.Sprintf("%s: after [%s] of %d changes, %s violated", o.scen.Name,
				strings.Join(pushed, "; "), len(ordered), strings.Join(opened, ",")), true
		}
	}
	return "", true
}

// entryRewrites are the single-entry rewrites the oracle applies to every
// ACL entry: flip the action, widen the source, widen the destination, drop
// the port, match any protocol, move the port.
var entryRewrites = []func(netmodel.ACLEntry) netmodel.ACLEntry{
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.Action = 1 - e.Action; return e },
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.Src = netip.Prefix{}; return e },
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.Dst = netip.Prefix{}; return e },
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.DstPort = 0; return e },
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.Proto = netmodel.AnyProto; return e },
	func(e netmodel.ACLEntry) netmodel.ACLEntry { e.DstPort = e.DstPort%60000 + 1; return e },
}

// unsafeEditCeiling is how many of part (b)'s scheduleEdits sets (seed 26,
// 20 per device) a push in Schedule's order takes through a violation
// neither endpoint has: 14 of 4,260. Each pushes distinct entries of one
// guard ACL, or an entry after an interface shutdown or a route, in an
// order whose prefix opens a guarded flow the whole set keeps closed — the
// phases cannot see that; a search over push orders would. Lower it when
// one lands; never raise it to pass.
const unsafeEditCeiling = 14

// TestSchedulePrefixesSafe is the scheduler's consistency oracle (paper
// §4.3: accepted changes are pushed "in a consistency-preserving order"):
// every strict prefix of Schedule(changes), pushed onto production, must
// satisfy every policy that both production and the whole change set
// satisfy. Part (a) rewrites each ACL entry of six scenario families once,
// six ways, and allows no exception; part (b) pushes random scheduleEdits
// sets and pins the count that still open a hole at unsafeEditCeiling.
func TestSchedulePrefixesSafe(t *testing.T) {
	var oracles []*prefixOracle
	for _, s := range prefixScenarios() {
		oracles = append(oracles, newPrefixOracle(s))
	}

	t.Run("entry-rewrites", func(t *testing.T) {
		edits, prefixed, unsafe := 0, 0, 0
		for _, o := range oracles {
			n := o.scen.Network
			for _, dev := range n.DeviceNames() {
				d := n.Devices[dev]
				for _, acl := range d.ACLNames() {
					for _, e := range d.ACLs[acl].Entries {
						for _, rewrite := range entryRewrites {
							ne := rewrite(e)
							if ne == e {
								continue
							}
							b := d.Clone()
							b.ACLs[acl].InsertEntry(ne)
							edits++
							msg, ok := o.unsafePrefix(t, config.DiffDevice(d, b))
							if ok {
								prefixed++
							}
							if msg != "" {
								unsafe++
								t.Errorf("%s %s %d -> %s: %s", dev, acl, e.Seq, config.FormatACLEntry(&ne), msg)
							}
						}
					}
				}
			}
		}
		if edits == 0 {
			t.Fatal("no entry was rewritten: the property exercises nothing")
		}
		t.Logf("%d single-entry rewrites, %d scheduled with a strict prefix, %d unsafe", edits, prefixed, unsafe)
	})

	t.Run("edit-sets", func(t *testing.T) {
		r := rand.New(rand.NewSource(26))
		sets, prefixed, unsafe := 0, 0, 0
		for _, o := range oracles {
			n := o.scen.Network
			for _, dev := range n.DeviceNames() {
				for trial := 0; trial < 20; trial++ {
					b := n.Devices[dev].Clone()
					scheduleEdits(r, b, 1+r.Intn(6))
					sets++
					msg, ok := o.unsafePrefix(t, config.DiffDevice(n.Devices[dev], b))
					if ok {
						prefixed++
					}
					if msg != "" {
						unsafe++
						t.Logf("unsafe order: %s", msg)
					}
				}
			}
		}
		t.Logf("%d edit sets, %d scheduled with a strict prefix, %d unsafe (ceiling %d)", sets, prefixed, unsafe, unsafeEditCeiling)
		if unsafe > unsafeEditCeiling {
			t.Fatalf("%d edit sets pushed through a violation neither endpoint has, above the ceiling of %d", unsafe, unsafeEditCeiling)
		}
	})
}
