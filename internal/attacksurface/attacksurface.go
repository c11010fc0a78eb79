// Package attacksurface implements the paper's §5 attack-surface /
// feasibility trade-off experiment (Figures 8 and 9).
//
// For every interface of the evaluation network, an interface-down issue is
// injected and each access technique (All, Neighbor, Heimdall) is scored on
// two metrics:
//
//   - feasibility: can the technician reach — and is allowed to fix — the
//     root-cause device?
//
//   - attack surface: the paper's weighted combination of exposed command
//     surface and potential policy violations,
//
//     Attack_Surface(%) = (ΣC_n/ΣA_n · 0.5 + VP/P · 0.5) · 100
//
// where A_n is the command surface available on node n, C_n the commands
// the technique lets the technician run there, P the policy count, and VP
// the number of policies some allowed command sequence could newly violate
// (found by searching canonical malicious mutations on accessible nodes).
package attacksurface

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// Technique is one access model under evaluation.
type Technique struct {
	Name     string
	Strategy twin.SliceStrategy
	// FullPrivileges grants every command on every visible node (the All
	// and Neighbor strawmen); otherwise a task-driven Privilegemsp is
	// generated per ticket (Heimdall).
	FullPrivileges bool
}

// The three techniques of Figures 8 and 9.
var (
	All      = Technique{Name: "All", Strategy: twin.SliceAll, FullPrivileges: true}
	Neighbor = Technique{Name: "Neighbor", Strategy: twin.SliceNeighbors, FullPrivileges: true}
	Heimdall = Technique{Name: "Heimdall", Strategy: twin.SliceTaskDriven, FullPrivileges: false}
)

// FaultCase is one injected issue with the host pair it affects.
type FaultCase struct {
	Fault ticket.Fault
	Src   string
	Dst   string
}

// Sample is one (fault, technique) measurement.
type Sample struct {
	Fault          string
	Feasible       bool
	Surface        float64 // percent
	ExposedRatio   float64 // ΣC/ΣA
	ViolationRatio float64 // VP/P
	VisibleNodes   int
}

// Result aggregates a technique's samples.
type Result struct {
	Technique string
	Samples   []Sample
}

// Feasibility returns the fraction of feasible samples.
func (r *Result) Feasibility() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range r.Samples {
		if s.Feasible {
			n++
		}
	}
	return float64(n) / float64(len(r.Samples))
}

// MeanSurface returns the mean attack surface percentage.
func (r *Result) MeanSurface() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Samples {
		sum += s.Surface
	}
	return sum / float64(len(r.Samples))
}

// String renders the figure row.
func (r *Result) String() string {
	return fmt.Sprintf("%-9s feasibility=%5.1f%%  attack_surface=%5.1f%%  (n=%d)",
		r.Technique, r.Feasibility()*100, r.MeanSurface(), len(r.Samples))
}

// Evaluator runs the experiment against one network and policy set.
type Evaluator struct {
	Base      *netmodel.Network
	Policies  []verify.Policy
	Sensitive map[string]bool
	// MutationBudget caps how many malicious mutations are explored per
	// sample (0 = unlimited). The figures use the full search; unit tests
	// shrink it.
	MutationBudget int
	// Workers bounds the sweep's parallelism: fault cases fan out across
	// up to Workers goroutines, and within a case the mutation trials fan
	// out under the same bound. 0 or 1 runs fully serial. Results are
	// identical to the serial sweep regardless of Workers — samples merge
	// in fault-case order and the violation search is order-independent.
	Workers int

	// baseOnce/baseSnap memoize the base network's snapshot so fault
	// enumeration and every per-fault derivation share one full compute.
	baseOnce sync.Once
	baseSnap *dataplane.Snapshot
}

// BaseSnapshot returns the snapshot of ev.Base, computed once and shared
// by every fault case (and by InterfaceFaults when the caller passes it).
func (ev *Evaluator) BaseSnapshot() *dataplane.Snapshot {
	ev.baseOnce.Do(func() {
		ev.baseSnap = dataplane.Compute(ev.Base)
	})
	return ev.baseSnap
}

// InterfaceFaults enumerates the experiment's issues: for every up,
// addressed interface on an infrastructure device, an interface-down fault
// paired with the first host pair whose baseline traffic crosses that
// device. Interfaces whose loss strands no host pair produce no ticket and
// are skipped, mirroring the paper's setup where every issue is a real
// ticket. snap must be a snapshot of n; pass nil to compute one (callers
// that already hold the base snapshot — every caller in the tree — reuse
// it instead of paying a duplicate full compute).
func InterfaceFaults(n *netmodel.Network, snap *dataplane.Snapshot) []FaultCase {
	return InterfaceFaultsBudget(n, snap, 0)
}

// InterfaceFaultsBudget is InterfaceFaults with the baseline trace
// enumeration bounded to roughly maxPairs host pairs (0 = all pairs). The
// unbounded walk is quadratic in hosts — a k=16 fat-tree's 1024 hosts mean
// a million Reach calls — so the big generated tiers stride-sample the
// src×dst sequence instead; strides spread across sources, so every rack
// still contributes baseline traffic. With maxPairs = 0 the result is
// identical to the historical all-pairs enumeration: interface coverage is
// recorded incrementally in pair order (the first covering pair wins,
// exactly as the old first-matching-trace scan chose), and the walk stops
// early once every candidate interface is covered.
func InterfaceFaultsBudget(n *netmodel.Network, snap *dataplane.Snapshot, maxPairs int) []FaultCase {
	if snap == nil {
		snap = dataplane.Compute(n)
	}
	hosts := n.Hosts()
	devs := n.RoutersAndSwitches()

	// The candidate set: interfaces eligible for a fault ticket. Coverage
	// is only tracked for these, and the pair walk ends as soon as all of
	// them have an affected pair.
	candidates := make(map[netmodel.Endpoint]bool)
	for _, dev := range devs {
		d := n.Devices[dev]
		for _, ifName := range d.InterfaceNames() {
			if itf := d.Interfaces[ifName]; itf.Up() && itf.HasAddr() {
				candidates[netmodel.Endpoint{Device: dev, Interface: ifName}] = true
			}
		}
	}

	stride := 1
	if total := len(hosts) * (len(hosts) - 1); maxPairs > 0 && total > maxPairs {
		stride = (total + maxPairs - 1) / maxPairs
	}

	type hostPair struct{ src, dst string }
	covered := make(map[netmodel.Endpoint]hostPair)
	idx := -1
pairs:
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			idx++
			if idx%stride != 0 {
				continue
			}
			tr, err := snap.Reach(src, dst, netmodel.ICMP, 0)
			if err != nil || !tr.Delivered() {
				continue
			}
			for _, hop := range tr.Hops {
				for _, ifName := range [2]string{hop.InIf, hop.OutIf} {
					ep := netmodel.Endpoint{Device: hop.Device, Interface: ifName}
					if !candidates[ep] {
						continue
					}
					if _, ok := covered[ep]; ok {
						continue
					}
					covered[ep] = hostPair{src, dst}
				}
			}
			if len(covered) == len(candidates) {
				break pairs
			}
		}
	}

	var out []FaultCase
	for _, dev := range devs {
		d := n.Devices[dev]
		for _, ifName := range d.InterfaceNames() {
			p, ok := covered[netmodel.Endpoint{Device: dev, Interface: ifName}]
			if !ok {
				continue
			}
			out = append(out, FaultCase{
				Fault: ticket.InterfaceDown(dev, ifName),
				Src:   p.src,
				Dst:   p.dst,
			})
		}
	}
	return out
}

// limiter is a counting semaphore bounding concurrent mutation trials.
type limiter chan struct{}

func (l limiter) acquire() { l <- struct{}{} }
func (l limiter) release() { <-l }

// Evaluate scores one technique across all fault cases. With Workers > 1
// the cases run on a bounded worker pool (and mutation trials fan out
// under the same bound); samples are merged in fault-case order, so the
// result is identical to the serial sweep.
//
// Fault setup relies on the ticket.Fault contract that Inject mutates only
// the RootCause device (every built-in fault does): each case's network is
// a copy-on-write clone of ev.Base sharing all other devices, so a custom
// Fault writing beyond its RootCause would corrupt ev.Base.
func (ev *Evaluator) Evaluate(tech Technique, cases []FaultCase) *Result {
	res := &Result{Technique: tech.Name}
	totalAvail := 0
	availPer := make(map[string]int)
	for _, dev := range ev.Base.DeviceNames() {
		c := len(console.Catalog(ev.Base.Devices[dev]))
		availPer[dev] = c
		totalAvail += c
	}

	workers := ev.Workers
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for _, fc := range cases {
			if sm, ok := ev.evaluateCase(tech, fc, availPer, totalAvail, nil); ok {
				res.Samples = append(res.Samples, sm)
			}
		}
		return res
	}

	// Case fan-out: a pool of Workers goroutines consumes case indices;
	// each writes its sample into a fixed slot so the merge below
	// reproduces the serial order exactly. Trials share one semaphore
	// across all in-flight cases, bounding the expensive clone+recompute
	// work to Workers at a time.
	type slot struct {
		sm Sample
		ok bool
	}
	slots := make([]slot, len(cases))
	gate := make(limiter, workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sm, ok := ev.evaluateCase(tech, cases[i], availPer, totalAvail, gate)
				slots[i] = slot{sm, ok}
			}
		}()
	}
	for i := range cases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, s := range slots {
		if s.ok {
			res.Samples = append(res.Samples, s.sm)
		}
	}
	return res
}

// evaluateCase scores one (fault, technique) pair. It reads ev.Base and
// the precomputed command-surface counts but mutates nothing shared, so
// any number of cases may run concurrently. A nil gate runs the mutation
// trials serially.
func (ev *Evaluator) evaluateCase(tech Technique, fc FaultCase,
	availPer map[string]int, totalAvail int, gate limiter) (Sample, bool) {

	// Every ticket.Fault injector mutates only its RootCause device (the
	// contract Evaluate documents), so the faulted network shares all other
	// devices with ev.Base copy-on-write — and the faulted snapshot derives
	// from the base snapshot as an L3-topology change on that one device
	// instead of a from-scratch compute. ChangeL3Topology re-derives every
	// structure a single-device mutation can reach (adjacency, ownership,
	// LSDB-diffed OSPF, session-checked BGP, the device's own RIB), so it
	// is sound for any fault honoring the contract; the sweep-wide SPF memo
	// dedups link-state passes across faults isolating the same component.
	faulted := ev.Base.CloneCOW(fc.Fault.RootCause)
	if err := fc.Fault.Inject(faulted); err != nil {
		return Sample{}, false
	}
	snap := ev.BaseSnapshot().Derive(faulted,
		dataplane.ChangeSet{{Device: fc.Fault.RootCause, Kind: dataplane.ChangeL3Topology}})
	slice := twin.ComputeSlice(faulted, snap, tech.Strategy, fc.Src, fc.Dst, nil)

	// The spec is evaluated against every cataloged command on every
	// visible node plus each mutation trial — compile it once per case.
	spec := ev.specFor(tech, faulted, slice).Compile()
	visible := func(dev string) bool { return slice[dev] }

	// ΣC: allowed commands on visible nodes.
	allowedTotal := 0
	for dev := range slice {
		d := faulted.Devices[dev]
		if d == nil {
			continue
		}
		if tech.FullPrivileges {
			allowedTotal += availPer[dev]
			continue
		}
		for _, ar := range console.Catalog(d) {
			if spec.Allows(ar.Action, ar.Resource) {
				allowedTotal++
			}
		}
	}

	// Feasibility: root cause visible and fixable.
	root := fc.Fault.RootCause
	feasible := visible(root)
	if feasible && !tech.FullPrivileges {
		fixRes := fmt.Sprintf("device:%s", root)
		feasible = spec.Allows("config.interface.set", fixRes) ||
			anyInterfaceFixAllowed(spec, faulted.Devices[root])
	}

	// VP: policies newly violable through allowed mutations.
	pre := violatedSet(snap, ev.Policies)
	vp := ev.potentialViolations(faulted, snap, spec, tech.FullPrivileges, slice, pre, gate)

	exposed := 0.0
	if totalAvail > 0 {
		exposed = float64(allowedTotal) / float64(totalAvail)
	}
	vr := 0.0
	if len(ev.Policies) > 0 {
		vr = float64(vp) / float64(len(ev.Policies))
	}
	return Sample{
		Fault:          fc.Fault.Name,
		Feasible:       feasible,
		Surface:        (exposed*0.5 + vr*0.5) * 100,
		ExposedRatio:   exposed,
		ViolationRatio: vr,
		VisibleNodes:   len(slice),
	}, true
}

// specFor builds the technique's privilege specification for a ticket.
func (ev *Evaluator) specFor(tech Technique, n *netmodel.Network, slice map[string]bool) *privilege.Spec {
	if tech.FullPrivileges {
		return &privilege.Spec{Ticket: "fig89", Technician: "tech", Rules: []privilege.Rule{
			{Effect: privilege.AllowEffect, Action: "*", Resource: "*"},
		}}
	}
	var scope, sensitive []string
	for dev := range slice {
		scope = append(scope, dev)
	}
	for host := range ev.Sensitive {
		sensitive = append(sensitive, host)
	}
	sort.Strings(scope)
	sort.Strings(sensitive)
	spec, err := privilege.Generate(privilege.TemplateInput{
		Ticket: "fig89", Technician: "tech", Kind: privilege.TaskInterface,
		Scope: scope, Sensitive: sensitive,
	})
	if err != nil {
		// The template only fails on empty inputs, which cannot happen here.
		panic(err)
	}
	// Fine-grained write grants: for an interface ticket, the plausible
	// root causes are exactly the administratively-down interfaces inside
	// the slice — write access covers those specific resources, nothing
	// else. This is the fine-grained authorization the paper's
	// Privilegemsp exists for (§3, Challenge 1).
	for _, dev := range scope {
		d := n.Devices[dev]
		if d == nil || d.Kind == netmodel.Host {
			continue
		}
		for _, ifName := range d.InterfaceNames() {
			if d.Interfaces[ifName].Shutdown {
				spec.Rules = append(spec.Rules, privilege.Rule{
					Effect:   privilege.AllowEffect,
					Action:   "config.interface.set",
					Resource: fmt.Sprintf("device:%s:interface:%s", dev, ifName),
				})
			}
		}
	}
	return spec
}

func anyInterfaceFixAllowed(spec *privilege.CompiledSpec, d *netmodel.Device) bool {
	if d == nil {
		return false
	}
	for _, ifName := range d.InterfaceNames() {
		if spec.Allows("config.interface.set", fmt.Sprintf("device:%s:interface:%s", d.Name, ifName)) {
			return true
		}
	}
	return false
}

func violatedSet(snap *dataplane.Snapshot, policies []verify.Policy) map[string]bool {
	out := make(map[string]bool)
	for _, v := range verify.Check(snap, policies).Violations {
		out[v.Policy.ID] = true
	}
	return out
}

// mutation is one canonical malicious action a technician could attempt.
// kind classifies what the mutation can affect, letting the trial derive
// its dataplane snapshot from the faulted one instead of recomputing it.
type mutation struct {
	device   string
	action   string
	resource string
	kind     dataplane.ChangeKind
	apply    func(n *netmodel.Network)
}

// potentialViolations searches allowed mutations on visible nodes and
// returns how many policies become newly violated by at least one of them.
//
// The search is incremental: a mutation on device D can only break
// policies whose baseline (faulted) traffic traverses D, plus isolation
// and already-broken flows, which verify.AffectedBy keeps in scope — so
// each trial rechecks only that subset instead of the whole policy set.
// Pure-L2 switches are the one exception (their VLAN fabric carries flows
// whose traces never list them as an L3 hop), so mutations on switches
// conservatively keep every policy in scope. VP counts are therefore
// exactly those of the exhaustive recheck. Trials short-circuit once
// every policy still winnable is already marked violable. A non-nil gate
// fans the trials out across goroutines; the violation union is
// order-independent, so the count is identical either way.
func (ev *Evaluator) potentialViolations(faulted *netmodel.Network, snap *dataplane.Snapshot,
	spec *privilege.CompiledSpec, full bool, slice map[string]bool, pre map[string]bool, gate limiter) int {

	// Hijack targets: every host subnet (a /24 route outranks the OSPF
	// routes protecting it).
	var hijacks []netip.Prefix
	seen := map[netip.Prefix]bool{}
	for _, host := range ev.Base.Hosts() {
		if a, ok := ev.Base.HostAddr(host); ok {
			p := netip.PrefixFrom(a, 24).Masked()
			if !seen[p] {
				seen[p] = true
				hijacks = append(hijacks, p)
			}
		}
	}

	var muts []mutation
	var devs []string
	for dev := range slice {
		devs = append(devs, dev)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		d := faulted.Devices[dev]
		if d == nil {
			continue
		}
		ms := deviceMutations(d, hijacks)
		for i := range ms {
			ms[i].device = dev
		}
		muts = append(muts, ms...)
	}

	// The mutations actually explored: the first MutationBudget allowed
	// ones, in deterministic (device, enumeration) order — the same set
	// the serial search evaluates.
	var allowed []mutation
	for _, m := range muts {
		if ev.MutationBudget > 0 && len(allowed) >= ev.MutationBudget {
			break
		}
		if !full && !spec.Allows(m.action, m.resource) {
			continue
		}
		allowed = append(allowed, m)
	}

	// winnable is how many policies a trial could still newly violate:
	// pre-violated ones never count toward VP.
	winnable := 0
	for _, p := range ev.Policies {
		if !pre[p.ID] {
			winnable++
		}
	}
	if len(allowed) == 0 || winnable == 0 {
		return 0
	}

	// Incremental scope per mutated device (the baseline snapshot's flow
	// cache makes the second and later Scope calls nearly free).
	affected := make(map[string][]verify.Policy, len(allowed))
	for _, m := range allowed {
		if _, ok := affected[m.device]; ok {
			continue
		}
		affected[m.device] = verify.Scope(faulted, snap, ev.Policies, map[string]bool{m.device: true})
	}

	violated := make(map[string]bool)
	if gate == nil {
		for _, m := range allowed {
			if len(violated) >= winnable {
				break // every winnable policy is violable already
			}
			for _, id := range ev.trialViolations(faulted, snap, m, affected[m.device], pre, violated) {
				violated[id] = true
			}
		}
		return len(violated)
	}

	var mu sync.Mutex
	done := false
	var wg sync.WaitGroup
	for _, m := range allowed {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			gate.acquire()
			defer gate.release()
			mu.Lock()
			if done {
				mu.Unlock()
				return
			}
			// Snapshot the IDs already found so the trial skips them —
			// pure work-saving: re-finding an ID never changes the union.
			seen := make(map[string]bool, len(violated))
			for id := range violated {
				seen[id] = true
			}
			mu.Unlock()
			ids := ev.trialViolations(faulted, snap, m, affected[m.device], pre, seen)
			if len(ids) == 0 {
				return
			}
			mu.Lock()
			for _, id := range ids {
				violated[id] = true
			}
			if len(violated) >= winnable {
				done = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return len(violated)
}

// trialViolations applies one mutation to a copy-on-write clone of the
// faulted network and returns the IDs of in-scope policies it newly
// violates. Policies in pre (already violated before the mutation) or skip
// (already proven violable by an earlier trial) are not rechecked; when
// none remain the clone and snapshot derivation are skipped entirely.
//
// This is the sweep's hot path, and where the incremental machinery pays
// off: CloneCOW deep-copies only the mutated device, and Derive reuses
// every part of the faulted snapshot the mutation class cannot invalidate
// (an ACL trial recomputes nothing at all; a static-route trial rebuilds
// one RIB; an L2 trial whose LSDB is unchanged shares all routing state).
// The derived snapshot is byte-identical to a from-scratch Compute, so VP
// counts are exactly those of the old clone-everything loop; the SPF memo
// additionally collapses trials that isolate identical L3 graphs.
func (ev *Evaluator) trialViolations(faulted *netmodel.Network, snap *dataplane.Snapshot, m mutation,
	scope []verify.Policy, pre, skip map[string]bool) []string {

	todo := make([]verify.Policy, 0, len(scope))
	for _, p := range scope {
		if !pre[p.ID] && !skip[p.ID] {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	trial := faulted.CloneCOW(m.device)
	m.apply(trial)
	tsnap := snap.Derive(trial, dataplane.ChangeSet{{Device: m.device, Kind: m.kind}})
	var out []string
	for _, p := range todo {
		if verify.CheckPolicy(tsnap, p) != nil {
			out = append(out, p.ID)
		}
	}
	return out
}

// deviceMutations enumerates the canonical malicious actions on one device.
func deviceMutations(d *netmodel.Device, hijacks []netip.Prefix) []mutation {
	dev := d.Name
	var out []mutation

	// Shut every interface down. Downing a pure-L2 port (access/trunk or
	// unaddressed) is an L2-class change; downing an addressed routed port
	// or SVI is an L3-topology change. Either way the mutation is confined
	// to this device, so a full-recompute fallback is never needed.
	for _, ifName := range d.InterfaceNames() {
		name := ifName
		kind := dataplane.ChangeL3Topology
		if netmodel.InterfaceL2Only(d.Interfaces[ifName]) {
			kind = dataplane.ChangeL2
		}
		out = append(out, mutation{
			action:   "config.interface.set",
			resource: fmt.Sprintf("device:%s:interface:%s", dev, name),
			kind:     kind,
			apply: func(n *netmodel.Network) {
				if itf := n.Devices[dev].Interface(name); itf != nil {
					itf.Shutdown = true
				}
			},
		})
	}

	// Poison every ACL: blanket deny (breaks reachability) and blanket
	// permit (breaks isolation), plus removing the first entry.
	for _, aclName := range d.ACLNames() {
		name := aclName
		for _, act := range []netmodel.ACLAction{netmodel.Deny, netmodel.Permit} {
			action := act
			out = append(out, mutation{
				action:   "config.acl.add",
				resource: fmt.Sprintf("device:%s:acl:%s", dev, name),
				kind:     dataplane.ChangeACL,
				apply: func(n *netmodel.Network) {
					n.Devices[dev].ACL(name, true).InsertEntry(netmodel.ACLEntry{
						Seq: 1, Action: action, Proto: netmodel.AnyProto,
					})
				},
			})
		}
		out = append(out, mutation{
			action:   "config.acl.remove",
			resource: fmt.Sprintf("device:%s:acl:%s", dev, name),
			kind:     dataplane.ChangeACL,
			apply: func(n *netmodel.Network) {
				a := n.Devices[dev].ACL(name, false)
				if a != nil && len(a.Entries) > 0 {
					a.RemoveEntry(a.Entries[0].Seq)
				}
			},
		})
	}

	// Route manipulation: blackhole routes (next hop resolving to no
	// neighbor) for each host subnet — a /24 static outranks the OSPF
	// route protecting it — plus a blackhole default.
	if blackhole := unownedNeighborAddr(d); blackhole.IsValid() && d.Kind != netmodel.Host {
		targets := append([]netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")}, hijacks...)
		for _, p := range targets {
			prefix := p
			out = append(out, mutation{
				action:   "config.route.add",
				resource: fmt.Sprintf("device:%s:route:%s", dev, prefix),
				kind:     dataplane.ChangeStatic,
				apply: func(n *netmodel.Network) {
					n.Devices[dev].StaticRoutes = append(n.Devices[dev].StaticRoutes,
						netmodel.StaticRoute{Prefix: prefix, NextHop: blackhole})
				},
			})
		}
	}

	// Silence OSPF entirely.
	if d.OSPF != nil {
		out = append(out, mutation{
			action:   "config.ospf.set",
			resource: fmt.Sprintf("device:%s:ospf", dev),
			kind:     dataplane.ChangeOSPF,
			apply: func(n *netmodel.Network) {
				dd := n.Devices[dev]
				for _, ifName := range dd.InterfaceNames() {
					dd.OSPF.Passive[ifName] = true
				}
			},
		})
	}

	// Break L2: delete VLANs, move access ports. Both touch only the
	// switching fabric (VLAN definitions never carry addresses, access
	// ports are never L3 endpoints), so they derive as L2-class changes —
	// typically sharing every RIB with the faulted snapshot by identity.
	for _, id := range d.VLANIDs() {
		vid := id
		out = append(out, mutation{
			action:   "config.vlan.remove",
			resource: fmt.Sprintf("device:%s:vlan:%d", dev, vid),
			kind:     dataplane.ChangeL2,
			apply: func(n *netmodel.Network) {
				delete(n.Devices[dev].VLANs, vid)
			},
		})
	}
	for _, ifName := range d.InterfaceNames() {
		itf := d.Interfaces[ifName]
		if itf.Mode != netmodel.Access {
			continue
		}
		name := ifName
		out = append(out, mutation{
			action:   "config.interface.set",
			resource: fmt.Sprintf("device:%s:interface:%s", dev, name),
			kind:     dataplane.ChangeL2,
			apply: func(n *netmodel.Network) {
				n.Devices[dev].Interface(name).AccessVLAN = 999
			},
		})
	}

	// Blackhole a host by rewriting its gateway.
	if d.Kind == netmodel.Host {
		out = append(out, mutation{
			action:   "config.gateway.set",
			resource: fmt.Sprintf("device:%s:gateway", dev),
			kind:     dataplane.ChangeStatic,
			apply: func(n *netmodel.Network) {
				n.Devices[dev].DefaultGateway = netip.MustParseAddr("192.0.2.254")
			},
		})
	}
	return out
}

// unownedNeighborAddr finds an address on one of the device's connected
// subnets that no device owns — the perfect blackhole next hop.
func unownedNeighborAddr(d *netmodel.Device) netip.Addr {
	for _, ifName := range d.InterfaceNames() {
		itf := d.Interfaces[ifName]
		if !itf.Up() || !itf.HasAddr() || itf.Addr.Bits() > 30 {
			continue
		}
		base := itf.Addr.Masked().Addr().As4()
		// .3 of a /30 or .250 of anything wider is never assigned by the
		// scenario generators.
		if itf.Addr.Bits() == 30 {
			return netip.AddrFrom4([4]byte{base[0], base[1], base[2], base[3] + 3})
		}
		return netip.AddrFrom4([4]byte{base[0], base[1], base[2], 250})
	}
	return netip.Addr{}
}
