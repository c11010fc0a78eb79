package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enforcer"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// oracleSystem is one deployment of the snapshot oracle. held shares one
// production snapshot per version (what every deployment runs); the
// reference drops it before every step (fresh), so each of its snapshots
// is computed from scratch where it is needed and no verdict is replayed.
type oracleSystem struct {
	sys  *System
	reg  *telemetry.Registry
	held bool
	// steps counts the reference's fresh steps, stepMisses the production
	// snapshots computed inside them.
	steps, stepMisses int
}

func newOracleSystem(t *testing.T, scen *scenarios.Scenario, held bool) *oracleSystem {
	t.Helper()
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
		PlatformSeed: "snapshot-oracle", Meter: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One fixed instant: trail and journal exports of the two deployments
	// are then comparable byte for byte.
	epoch := func() time.Time { return time.Unix(1_700_000_000, 0).UTC() }
	sys.Enforcer.Trail().SetClock(epoch)
	sys.Enforcer.Journal().SetClock(epoch)
	sys.Tickets.SetClock(epoch)
	return &oracleSystem{sys: sys, reg: reg, held: held}
}

func (o *oracleSystem) misses() float64 {
	return o.reg.CounterValue("heimdall_enforcer_prod_snapshot_misses_total")
}

// mutate is MutateProduction as each side of the oracle calls it: the held
// deployment declares the devices fn writes, so its snapshot is derived
// across the write; the reference declares nothing and drops it.
func (o *oracleSystem) mutate(fn func(*netmodel.Network) error, devices ...string) error {
	if !o.held {
		devices = nil
	}
	return o.sys.MutateProduction(fn, devices...)
}

// inject puts the issue's fault into production, declared as the service
// declares it: a fault writes its root-cause device and nothing else.
func (o *oracleSystem) inject(t *testing.T, is scenarios.Issue) {
	t.Helper()
	if err := o.mutate(is.Fault.Inject, is.Fault.RootCause); err != nil {
		t.Fatal(err)
	}
}

// snapshot is the production snapshot the enforcer serves right now.
func (o *oracleSystem) snapshot() *dataplane.Snapshot {
	o.sys.prodMu.RLock()
	defer o.sys.prodMu.RUnlock()
	return o.sys.Enforcer.ProductionSnapshot(o.sys.production)
}

// fresh runs one step that looks at production (open, review, commit, an
// emergency command). The reference deployment first calls
// InvalidateReviews, so the step pays a from-scratch Compute and replays
// no verdict: the from-scratch path, reached through the public
// invalidation contract.
func (o *oracleSystem) fresh(step func()) {
	if o.held {
		step()
		return
	}
	o.sys.Enforcer.InvalidateReviews()
	before := o.misses()
	step()
	o.steps++
	o.stepMisses += int(o.misses() - before)
}

// assertSnapshotsEqual fails unless got describes the same forwarding
// state as want: every RIB, every BGP session, reachability between every
// pair of hosts and of every policy's own flow.
func assertSnapshotsEqual(t *testing.T, step string, n *netmodel.Network, policies []verify.Policy, got, want *dataplane.Snapshot) {
	t.Helper()
	for _, dev := range n.DeviceNames() {
		if !reflect.DeepEqual(got.RIB(dev), want.RIB(dev)) {
			t.Fatalf("%s: RIB of %s diverged from a fresh Compute:\nheld:\n%s\nfresh:\n%s",
				step, dev, got.FormatRIB(dev), want.FormatRIB(dev))
		}
		if !reflect.DeepEqual(got.BGPPeers(dev), want.BGPPeers(dev)) {
			t.Fatalf("%s: BGP sessions of %s diverged from a fresh Compute", step, dev)
		}
	}
	reach := func(src, dst string, proto netmodel.Protocol, port uint16) {
		g, gerr := got.Reach(src, dst, proto, port)
		w, werr := want.Reach(src, dst, proto, port)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s -> %s %s/%d diverged: held (%v, %v) fresh (%v, %v)",
				step, src, dst, proto, port, g, gerr, w, werr)
		}
	}
	hosts := n.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				reach(src, dst, netmodel.ICMP, 0)
			}
		}
	}
	for _, p := range policies {
		reach(p.Src, p.Dst, p.Proto, p.DstPort)
	}
}

// checkProduction asserts that the snapshot the enforcer hands out for
// production equals a from-scratch Compute of production as it is now.
func (o *oracleSystem) checkProduction(t *testing.T, step string) {
	t.Helper()
	s := o.sys
	s.prodMu.RLock()
	defer s.prodMu.RUnlock()
	fresh := dataplane.Compute(s.production)
	assertSnapshotsEqual(t, step, s.production, s.policies, s.Enforcer.ProductionSnapshot(s.production), fresh)
	if err := verdictsDiverge(s.policies, s.Enforcer.HeldVerdicts(s.production), fresh); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// verdictsDiverge returns an error unless every verdict held is the one a
// from-scratch check of production gives: the same trace, and the same
// violation rendered (or none). Empty slots claim nothing.
func verdictsDiverge(policies []verify.Policy, held verify.Verdicts, fresh *dataplane.Snapshot) error {
	if len(held) != len(policies) {
		return fmt.Errorf("%d verdict slots held for %d policies", len(held), len(policies))
	}
	for i, p := range policies {
		v := held[i].Load()
		if v == nil {
			continue
		}
		tr, _ := fresh.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		got, want := "holds", "holds"
		if v.Violation != nil {
			got = v.Violation.String()
		}
		if w := verify.CheckPolicy(fresh, p); w != nil {
			want = w.String()
		}
		if got != want || !reflect.DeepEqual(v.Trace, tr) {
			return fmt.Errorf("held verdict of %s diverged from a fresh check:\nheld  %s on %v\nfresh %s on %v", p, got, v.Trace, want, tr)
		}
	}
	return nil
}

// changes is the engagement's pending change set: the held deployment takes
// what the twin recorded, the reference the whole-network diff Changes used
// to be. Every decision, trail and journal compared below therefore also
// compares the two.
func (o *oracleSystem) changes(eng *Engagement) []config.Change {
	if o.held {
		return eng.Twin.Changes()
	}
	return config.DiffNetwork(eng.Twin.Baseline(), eng.Twin.Network())
}

// startWork opens the ticket as one fresh step.
func (o *oracleSystem) startWork(t *testing.T, ticketID string) *Engagement {
	t.Helper()
	var eng *Engagement
	var err error
	o.fresh(func() { eng, err = o.sys.StartWork(ticketID, "casey") })
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// checkTwin asserts the same of an engagement's (seeded, then
// incrementally derived) twin snapshot.
func checkTwin(t *testing.T, step string, eng *Engagement) {
	t.Helper()
	assertSnapshotsEqual(t, step, eng.Twin.Network(), eng.sys.policies,
		eng.Twin.Snapshot(), dataplane.Compute(eng.Twin.Network()))
}

// scratchDecision is the reference review: the change set applied to a
// deep copy of production, the dataplane computed from scratch, every
// policy checked.
func scratchDecision(t *testing.T, s *System, changes []config.Change) string {
	t.Helper()
	shadow := s.production.Clone()
	if err := config.ApplyChanges(shadow, changes); err != nil {
		t.Fatal(err)
	}
	res := verify.Check(dataplane.Compute(shadow), s.policies)
	return decisionJSON(t, &enforcer.Decision{
		Accepted: res.OK(), Violations: res.Violations, Checked: res.Checked,
	})
}

func decisionJSON(t *testing.T, d *enforcer.Decision) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oracleScenarios builds a fresh, independent copy of each network under
// test per call.
var oracleScenarios = map[string]func() *scenarios.Scenario{
	"university": scenarios.University,
	"fattree":    func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4}) },
}

// TestProductionSnapshotOracle drives a seeded sequence of ticket
// lifecycles through two deployments of the same network — one holding the
// production snapshot per version and deriving from it, one invalidated
// before every step so it computes every production snapshot where it is
// used — and asserts after every step that the snapshot the enforcer
// serves equals a from-scratch Compute of production, that every decision
// equals both the other deployment's and a from-scratch reference review,
// and at the end that audit trail and commit journal are byte-identical
// between the two. The steps cover every way production changes: fault
// injection, commit, a commit rolled back by a fault plan, quarantine and
// recovery, an emergency write, and a bare MutateProduction. The reference's
// change sets come from config.DiffNetwork and the held deployment's from
// Twin.Changes (oracleSystem.changes); an ordinary ticket is reviewed once
// after its first write — several of those sets are rejected — then written
// to again, reviewed twice and committed.
func TestProductionSnapshotOracle(t *testing.T) {
	for name, build := range oracleScenarios {
		t.Run(name, func(t *testing.T) {
			scen := build()
			pair := []*oracleSystem{
				newOracleSystem(t, build(), true),
				newOracleSystem(t, build(), false),
			}
			rng := rand.New(rand.NewSource(12))

			// open injects the issue, files its ticket, opens the twin and
			// runs the first n lines of the script.
			open := func(o *oracleSystem, is scenarios.Issue, step string, n int) *Engagement {
				// Something is held from here on, so the declared injection
				// has a snapshot to derive from.
				o.checkProduction(t, step+"/before")
				before := o.misses()
				o.inject(t, is)
				o.checkProduction(t, step+"/inject")
				// Injecting a fault that is already in changes nothing: the
				// empty diff keeps the very snapshot.
				derived := o.snapshot()
				o.inject(t, is)
				if o.held && o.snapshot() != derived {
					t.Fatalf("%s: a write that changed nothing replaced the held snapshot", step)
				}
				eng := o.startWork(t, fileIssue(o.sys, is).ID)
				if o.held && o.misses() != before {
					t.Fatalf("%s: declared injections and the open after them computed %v production snapshots, want 0", step, o.misses()-before)
				}
				o.checkProduction(t, step+"/open")
				checkTwin(t, step+"/open", eng)
				if _, err := eng.RunScript(is.Script[:n]); err != nil {
					t.Fatal(err)
				}
				checkTwin(t, step+"/script", eng)
				return eng
			}
			// both runs one step on the held deployment and on the
			// reference and requires the same rendered outcome.
			both := func(step string, run func(o *oracleSystem) string) {
				t.Helper()
				got, want := run(pair[0]), run(pair[1])
				if got != want {
					t.Fatalf("%s: held deployment diverged from the reference:\nheld %s\nref  %s", step, got, want)
				}
			}

			// Ordinary tickets, every issue twice in a seeded order.
			order := append(rng.Perm(len(scen.Issues)), rng.Perm(len(scen.Issues))...)
			rejected := false
			for i, idx := range order {
				is := scen.Issues[idx]
				step := fmt.Sprintf("ticket %d (%s)", i, is.Name)
				// The script up to and including its first write.
				first := len(is.Script) - len(is.Fault.Fix) - 1
				both(step, func(o *oracleSystem) string {
					eng := open(o, is, step, first+1)
					before := o.misses()
					var d *enforcer.Decision
					var err error
					// review checks the pending set against a from-scratch
					// review of the same changes.
					review := func(sub string) string {
						t.Helper()
						o.fresh(func() { d, _, err = eng.ReviewChanges(o.changes(eng)) })
						if err != nil {
							t.Fatal(err)
						}
						got := decisionJSON(t, d)
						if want := scratchDecision(t, o.sys, o.changes(eng)); got != want {
							t.Fatalf("%s/%s: review diverged from the from-scratch reference:\ngot  %s\nwant %s", step, sub, got, want)
						}
						o.checkProduction(t, step+"/"+sub)
						return got
					}
					out := review("first write")
					rejected = rejected || !d.Accepted
					// A second write after a review: the rest of the script.
					if _, err := eng.RunScript(is.Script[first+1:]); err != nil {
						t.Fatal(err)
					}
					checkTwin(t, step+"/script", eng)
					out += review("review") + review("review again")
					want := scratchDecision(t, o.sys, o.changes(eng))
					o.fresh(func() { d, err = eng.CommitChanges(o.changes(eng)) })
					if err != nil || !d.Accepted || d.Checked != len(scen.Policies) {
						t.Fatalf("%s: commit: %v %+v", step, err, d)
					}
					if got := decisionJSON(t, d); got != want {
						t.Fatalf("%s: commit diverged from the from-scratch reference:\ngot  %s\nwant %s", step, got, want)
					}
					o.checkProduction(t, step+"/commit")
					// The open paid this version's one Compute; reviews and
					// commit derived, and the snapshot verified after the
					// push is the one now held.
					if o.held && o.misses() != before {
						t.Fatalf("%s: reviews+commit computed %v production snapshots, want 0", step, o.misses()-before)
					}
					return out + decisionJSON(t, d)
				})
			}
			// University's isp fix is two lines; the first alone withdraws
			// r4's default and repairs nothing.
			if name == "university" && !rejected {
				t.Fatal("no ticket's first write alone was rejected: the rejected-set case is gone")
			}

			// A commit the push target fails halfway: rolled back.
			is := scen.Issues[rng.Intn(len(scen.Issues))]
			both("rollback", func(o *oracleSystem) string {
				eng := open(o, is, "rollback", len(is.Script))
				o.sys.Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
					{Op: "apply", FailNth: len(o.changes(eng)), Class: faultinject.Permanent},
				}}))
				var d *enforcer.Decision
				var err error
				o.fresh(func() { d, err = eng.CommitChanges(o.changes(eng)) })
				if err == nil || !strings.Contains(err.Error(), "rolled back") {
					t.Fatalf("rollback: commit = %v, want a rollback", err)
				}
				o.checkProduction(t, "rollback/commit")
				return decisionJSON(t, d) + err.Error()
			})

			// The same again with restores failing too: quarantined, then
			// recovered once the devices are back.
			both("quarantine", func(o *oracleSystem) string {
				eng := o.startWork(t, fileIssue(o.sys, is).ID)
				if _, err := eng.RunScript(is.Script); err != nil {
					t.Fatal(err)
				}
				o.sys.Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
					{Op: "apply", FailNth: len(o.changes(eng)), Class: faultinject.Permanent},
					{Op: "restore", Outage: true, Class: faultinject.Permanent},
				}}))
				var d *enforcer.Decision
				var err error
				o.fresh(func() { d, err = eng.CommitChanges(o.changes(eng)) })
				if q, _ := o.sys.Enforcer.Quarantined(); err == nil || !q {
					t.Fatalf("quarantine: commit = %v, quarantined = %v", err, q)
				}
				o.checkProduction(t, "quarantine/commit")
				o.sys.Enforcer.SetInjector(nil)
				var rep *enforcer.RecoveryReport
				if merr := o.sys.MutateProduction(func(n *netmodel.Network) (rerr error) {
					rep, rerr = o.sys.Enforcer.Recover(n)
					return rerr
				}); merr != nil {
					t.Fatal(merr)
				}
				o.checkProduction(t, "quarantine/recover")
				return decisionJSON(t, d) + err.Error() + fmt.Sprintf("%+v", *rep)
			})

			// An emergency write straight to production, refused or not.
			is = scen.Issues[rng.Intn(len(scen.Issues))]
			both("emergency", func(o *oracleSystem) string {
				o.inject(t, is)
				eng := o.startWork(t, fileIssue(o.sys, is).ID)
				eng.EnableEmergency("netadmin")
				var out []string
				for _, cmd := range is.Fault.Fix {
					sess, err := eng.EmergencyConsole(cmd.Device)
					if err != nil {
						t.Fatal(err)
					}
					var reply string
					o.fresh(func() { reply, err = sess.Exec(cmd.Line) })
					out = append(out, reply, fmt.Sprint(err))
					o.checkProduction(t, "emergency/"+cmd.Line)
				}
				return strings.Join(out, "\n")
			})

			// A bare out-of-band mutation, and its reversal.
			both("mutate", func(o *oracleSystem) string {
				for i := 0; i < 2; i++ {
					if err := o.sys.MutateProduction(func(n *netmodel.Network) error {
						_, itf := firstRoutedInterface(n)
						itf.Shutdown = !itf.Shutdown
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					o.checkProduction(t, fmt.Sprintf("mutate %d", i))
				}
				return ""
			})

			// Declared writes the claim cannot be honoured for, each made and
			// reversed: a writer that fails (it may have half-applied; this one
			// wrote all of it) and a declaration naming a device production
			// does not hold. The held deployment must answer both with a
			// from-scratch Compute of what production then is.
			both("declared", func(o *oracleSystem) string {
				dev, itf := firstRoutedInterface(o.sys.production)
				flap := func(step string, fail error, devices ...string) {
					t.Helper()
					o.checkProduction(t, step+"/before")
					before := o.misses()
					if err := o.mutate(func(*netmodel.Network) error {
						itf.Shutdown = !itf.Shutdown
						return fail
					}, devices...); err != fail {
						t.Fatalf("%s: MutateProduction returned %v, want %v", step, err, fail)
					}
					o.checkProduction(t, step)
					if o.held && o.misses() != before+1 {
						t.Fatalf("%s: %v production snapshots computed after the write, want 1: the held one was not dropped", step, o.misses()-before)
					}
				}
				for i := 0; i < 2; i++ {
					flap(fmt.Sprintf("declared/failed write %d", i), fmt.Errorf("link flapped mid-write"), dev)
					flap(fmt.Sprintf("declared/unknown device %d", i), nil, dev, "no-such-device")
				}
				return ""
			})

			// A chain of versions with no invalidation between them, starting
			// from a production that already violates a policy: a review
			// rejected for what production breaks by itself (the violation's
			// trace is one the shadow took over from production, not one it
			// traced), the fix committed, then review, commit, review, commit
			// — each commit derives onto production mutated in place and
			// hands its snapshot, flow cache included, to the next version.
			// Every decision is compared, counterexample traces and all, with
			// verify.Check over a from-scratch Compute.
			breaks := func(is scenarios.Issue) bool {
				n := scen.Network.Clone()
				if err := is.Fault.Inject(n); err != nil {
					t.Fatal(err)
				}
				return !verify.Check(dataplane.Compute(n), scen.Policies).OK()
			}
			for _, idx := range rng.Perm(len(scen.Issues)) {
				if is = scen.Issues[idx]; breaks(is) {
					break
				}
			}
			infra := scen.Network.RoutersAndSwitches()
			var sets [][]config.Change
			for k := 0; k < 4; k++ {
				sets = append(sets, []config.Change{{
					Device: infra[rng.Intn(len(infra))], Op: config.OpAddACLEntry, ACLName: "CARRIED",
					Entry: &netmodel.ACLEntry{Seq: 10 * (k + 1), Action: netmodel.Permit, Proto: netmodel.TCP, DstPort: uint16(9000 + k)},
				}})
			}
			wide := &privilege.Spec{Ticket: "T-CARRIED", Technician: "casey", Rules: []privilege.Rule{
				{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:*"},
			}}
			both("carried", func(o *oracleSystem) string {
				var out []string
				// decided checks one decision against the reference review of
				// the same changes on production as it was before the step.
				decided := func(step, want string, d *enforcer.Decision, err error) {
					t.Helper()
					got := decisionJSON(t, d)
					if got != want {
						t.Fatalf("%s: decision diverged from the from-scratch reference:\ngot  %s\nwant %s", step, got, want)
					}
					o.checkProduction(t, step)
					out = append(out, got, fmt.Sprint(err))
				}
				review := func(step string, changes []config.Change) *enforcer.Decision {
					t.Helper()
					var d *enforcer.Decision
					o.fresh(func() { d = o.sys.Enforcer.Review(o.sys.production, changes, wide) })
					decided(step, scratchDecision(t, o.sys, changes), d, nil)
					return d
				}
				commit := func(step string, changes []config.Change) {
					t.Helper()
					want := scratchDecision(t, o.sys, changes)
					var d *enforcer.Decision
					var err error
					o.fresh(func() { d, err = o.sys.Enforcer.Commit(o.sys.production, changes, wide) })
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					decided(step, want, d, err)
				}

				// The first of these reviews decides the violation and leaves
				// it in production's slot; the later ones take it from there.
				o.inject(t, is)
				for k, changes := range sets {
					if d := review(fmt.Sprintf("carried/violating review %d", k), changes); d.Accepted || len(d.Violations) == 0 {
						t.Fatalf("carried: issue %s breaks no policy in production: %+v", is.Name, d)
					}
				}
				eng := o.startWork(t, fileIssue(o.sys, is).ID)
				if _, err := eng.RunScript(is.Script); err != nil {
					t.Fatal(err)
				}
				fix := o.changes(eng)
				want := scratchDecision(t, o.sys, fix)
				var d *enforcer.Decision
				var err error
				o.fresh(func() { d, err = eng.CommitChanges(fix) })
				if err != nil {
					t.Fatal(err)
				}
				decided("carried/fix", want, d, err)
				for k, changes := range sets {
					review(fmt.Sprintf("carried/review %d", k), changes)
					commit(fmt.Sprintf("carried/commit %d", k), changes)
				}
				return strings.Join(out, "\n")
			})
			if carried := pair[0].reg.CounterValue("heimdall_dataplane_flowcache_carried_total"); carried == 0 {
				t.Fatal("the held deployment never carried a trace from one snapshot to the next")
			}
			if carried := pair[0].reg.CounterValue("heimdall_verify_policies_carried_total"); carried == 0 {
				t.Fatal("the held deployment never carried a verdict from production to a review or a commit")
			}

			held, ref := pair[0].sys.Enforcer, pair[1].sys.Enforcer
			for _, e := range []*enforcer.Enforcer{held, ref} {
				if err := e.Trail().Verify(); err != nil {
					t.Fatal(err)
				}
				if err := e.Journal().Verify(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := mustExport(t, held.Trail().Export), mustExport(t, ref.Trail().Export); got != want {
				t.Fatalf("audit trails differ:\nheld %s\nref  %s", got, want)
			}
			if got, want := mustExport(t, held.Journal().Export), mustExport(t, ref.Journal().Export); got != want {
				t.Fatalf("commit journals differ:\nheld %s\nref  %s", got, want)
			}
			if hits := pair[0].reg.CounterValue("heimdall_enforcer_prod_snapshot_hits_total"); hits == 0 {
				t.Fatal("the held deployment never hit its production snapshot")
			}
			// Every step of the reference paid exactly its own Compute.
			if ref := pair[1]; ref.stepMisses != ref.steps {
				t.Fatalf("the reference deployment computed %d production snapshots in %d steps", ref.stepMisses, ref.steps)
			}
		})
	}
}

// TestProductionSnapshotDeclaredInject injects every issue of every scenario
// family with the declaration the service makes, one on top of the other:
// each leaves a snapshot that is a hit — derived from the last, never
// computed — and equals a from-scratch Compute of production as it then is.
func TestProductionSnapshotDeclaredInject(t *testing.T) {
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2}),
		generate.WAN(generate.WANParams{Sites: 4}),
	} {
		o := newOracleSystem(t, scen, true)
		o.checkProduction(t, scen.Name)
		before := o.misses()
		for _, is := range scen.Issues {
			o.inject(t, is)
			o.checkProduction(t, scen.Name+"/"+is.Name)
		}
		if o.misses() != before {
			t.Fatalf("%s: declared injections computed %v production snapshots, want 0", scen.Name, o.misses()-before)
		}
		if got := o.reg.CounterValue("heimdall_enforcer_prod_snapshot_derived_total"); got != float64(len(scen.Issues)) {
			t.Fatalf("%s: %v snapshots derived over %d injections", scen.Name, got, len(scen.Issues))
		}
	}
}

// firstRoutedInterface picks the first addressed interface of the first
// router, in name order, and names its device.
func firstRoutedInterface(n *netmodel.Network) (string, *netmodel.Interface) {
	for _, dev := range n.RoutersAndSwitches() {
		d := n.Devices[dev]
		for _, name := range d.InterfaceNames() {
			if itf := d.Interfaces[name]; itf.HasAddr() {
				return dev, itf
			}
		}
	}
	return "", nil
}

func mustExport(t *testing.T, export func() ([]byte, error)) string {
	t.Helper()
	b, err := export()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestProductionSnapshotHammer races session opens and reviews, repeated
// and never-repeating ones (readers of the held production snapshot and
// fillers of its verdict vector, several at once as under a verify pool
// with more than one worker) against a stream of declared injects and
// commits (the writers that derive both onto the next version). Run under -race; a
// reader under the read lock and the state at rest must equal a fresh
// Compute, and both chains must verify.
func TestProductionSnapshotHammer(t *testing.T) {
	scen := scenarios.University()
	o := newOracleSystem(t, scen, true)
	sys := o.sys
	var acl scenarios.Issue
	for _, is := range scen.Issues {
		if is.Name == "acl" {
			acl = is
		}
	}

	// The reviewers' engagement: one ACL entry stays pending in its twin
	// (it applies to production with or without the fault) while the
	// committer churns the acl ticket underneath it.
	pending, err := sys.StartWork(fileIssue(sys, acl).ID, "riley")
	if err != nil {
		t.Fatal(err)
	}
	con, err := pending.Console(acl.Fault.RootCause)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := con.Exec("access-list SENSITIVE-15 7 deny tcp any any eq 8443"); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		reader(func() error {
			d, err := pending.Review()
			if err == nil && d.Checked != len(scen.Policies) {
				err = fmt.Errorf("review checked %d policies, want %d", d.Checked, len(scen.Policies))
			}
			return err
		})
		reader(func() error {
			eng, err := sys.StartWork(fileIssue(sys, acl).ID, "opener")
			if err == nil {
				_, err = eng.SymptomResolved()
			}
			return err
		})
	}
	// Reviews nobody has asked for before, so none is answered from the
	// verdict cache: each derives from the held snapshot, takes over what
	// the vector beside it knows and fills what it does not while the other
	// does the same, and must give the verdict of a vector-less check of the
	// same shadow computed from scratch.
	wide := &privilege.Spec{Ticket: "T-HAMMER", Technician: "riley", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:*"},
	}}
	infra := scen.Network.RoutersAndSwitches()
	var seq atomic.Int64
	for i := 0; i < 2; i++ {
		reader(func() error {
			k := int(seq.Add(1))
			changes := []config.Change{{
				Device: infra[k%len(infra)], Op: config.OpAddACLEntry, ACLName: "HAMMER",
				Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP, DstPort: uint16(9000 + k)},
			}}
			sys.prodMu.RLock()
			defer sys.prodMu.RUnlock()
			got, err := json.Marshal(sys.Enforcer.Review(sys.production, changes, wide))
			if err != nil {
				return err
			}
			shadow := sys.production.Clone()
			if err := config.ApplyChanges(shadow, changes); err != nil {
				return err
			}
			res := verify.Check(dataplane.Compute(shadow), sys.policies)
			want, err := json.Marshal(&enforcer.Decision{Accepted: res.OK(), Violations: res.Violations, Checked: res.Checked})
			if err == nil && string(got) != string(want) {
				err = fmt.Errorf("review %d diverged from the from-scratch verdict:\ngot  %s\nwant %s", k, got, want)
			}
			return err
		})
	}
	// Whoever holds the read lock is served production as it is: the flow
	// the injections break and the commits repair answers as a from-scratch
	// Compute answers, and so does every verdict held, whichever writer ran
	// last and whichever reviews have filled the vector since.
	reader(func() error {
		sys.prodMu.RLock()
		defer sys.prodMu.RUnlock()
		fresh := dataplane.Compute(sys.production)
		got, _ := sys.Enforcer.ProductionSnapshot(sys.production).Reach(acl.SrcHost, acl.DstHost, acl.Proto, acl.DstPort)
		want, _ := fresh.Reach(acl.SrcHost, acl.DstHost, acl.Proto, acl.DstPort)
		if got.String() != want.String() {
			return fmt.Errorf("held snapshot is behind production: %v, a fresh Compute says %v", got, want)
		}
		return verdictsDiverge(sys.policies, sys.Enforcer.HeldVerdicts(sys.production), fresh)
	})
	for i := 0; i < rounds; i++ {
		if err := sys.MutateProduction(acl.Fault.Inject, acl.Fault.RootCause); err != nil {
			t.Fatal(err)
		}
		eng, err := sys.StartWork(fileIssue(sys, acl).ID, "casey")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunScript(acl.Script); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	o.checkProduction(t, "at rest")
	if err := sys.Enforcer.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Enforcer.Journal().Verify(); err != nil {
		t.Fatal(err)
	}
}
