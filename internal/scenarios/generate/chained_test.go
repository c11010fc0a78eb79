package generate_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/verify"
)

// chainStep is one random single-device mutation: the device to clone, the
// change class to declare, and the edit itself.
type chainStep struct {
	op     string
	device string
	kind   dataplane.ChangeKind
	apply  func(d *netmodel.Device)
}

// infraIf names one interface of a router or switch.
type infraIf struct{ dev, name string }

// pickIf draws one interface of the network's routers and switches that
// satisfies ok, walking devices and interfaces in name order so a seed
// always draws the same one.
func pickIf(rng *rand.Rand, n *netmodel.Network, ok func(d *netmodel.Device, itf *netmodel.Interface) bool) (infraIf, bool) {
	var cands []infraIf
	for _, dev := range n.RoutersAndSwitches() {
		d := n.Devices[dev]
		for _, name := range d.InterfaceNames() {
			if ok(d, d.Interfaces[name]) {
				cands = append(cands, infraIf{dev, name})
			}
		}
	}
	if len(cands) == 0 {
		return infraIf{}, false
	}
	return cands[rng.Intn(len(cands))], true
}

// pickDev draws one router or switch that satisfies ok.
func pickDev(rng *rand.Rand, n *netmodel.Network, ok func(d *netmodel.Device) bool) (string, bool) {
	var cands []string
	for _, dev := range n.RoutersAndSwitches() {
		if ok(n.Devices[dev]) {
			cands = append(cands, dev)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[rng.Intn(len(cands))], true
}

// ospfIf reports whether the interface is addressed and inside one of its
// device's OSPF network statements.
func ospfIf(d *netmodel.Device, itf *netmodel.Interface) bool {
	if d.OSPF == nil || !itf.HasAddr() {
		return false
	}
	_, ok := d.OSPF.EnabledArea(itf.Addr.Addr())
	return ok
}

// stepClasses is how many mutation classes randomStep knows.
const stepClasses = 8

// randomStep draws the next mutation of n in the given class, or false when
// the class has no candidate left (every OSPF process already removed, a
// topology without switches).
func randomStep(rng *rand.Rand, n *netmodel.Network, class int) (chainStep, bool) {
	switch class {
	case 0: // interface shutdown toggle
		at, ok := pickIf(rng, n, func(_ *netmodel.Device, itf *netmodel.Interface) bool { return true })
		if !ok {
			return chainStep{}, false
		}
		kind := dataplane.ChangeL3Topology
		if netmodel.InterfaceL2Only(n.Devices[at.dev].Interface(at.name)) {
			kind = dataplane.ChangeL2
		}
		return chainStep{"shutdown-toggle " + at.name, at.dev, kind, func(d *netmodel.Device) {
			d.Interfaces[at.name].Shutdown = !d.Interfaces[at.name].Shutdown
		}}, true
	case 1: // OSPF cost
		at, ok := pickIf(rng, n, ospfIf)
		if !ok {
			return chainStep{}, false
		}
		cost := 1 + rng.Intn(12)
		return chainStep{fmt.Sprintf("ospf-cost %s=%d", at.name, cost), at.dev, dataplane.ChangeOSPF,
			func(d *netmodel.Device) { d.Interfaces[at.name].OSPFCost = cost }}, true
	case 2: // passive toggle
		at, ok := pickIf(rng, n, ospfIf)
		if !ok {
			return chainStep{}, false
		}
		return chainStep{"passive-toggle " + at.name, at.dev, dataplane.ChangeOSPF, func(d *netmodel.Device) {
			d.OSPF.Passive[at.name] = !d.OSPF.Passive[at.name]
		}}, true
	case 3: // drop an OSPF network statement
		dev, ok := pickDev(rng, n, func(d *netmodel.Device) bool { return d.OSPF != nil && len(d.OSPF.Networks) > 0 })
		if !ok {
			return chainStep{}, false
		}
		i := rng.Intn(len(n.Devices[dev].OSPF.Networks))
		return chainStep{fmt.Sprintf("drop-network #%d", i), dev, dataplane.ChangeOSPF, func(d *netmodel.Device) {
			d.OSPF.Networks = append(d.OSPF.Networks[:i:i], d.OSPF.Networks[i+1:]...)
		}}, true
	case 4: // drop an area range
		dev, ok := pickDev(rng, n, func(d *netmodel.Device) bool { return d.OSPF != nil && len(d.OSPF.Ranges) > 0 })
		if !ok {
			return chainStep{}, false
		}
		i := rng.Intn(len(n.Devices[dev].OSPF.Ranges))
		return chainStep{fmt.Sprintf("drop-range #%d", i), dev, dataplane.ChangeOSPF, func(d *netmodel.Device) {
			d.OSPF.Ranges = append(d.OSPF.Ranges[:i:i], d.OSPF.Ranges[i+1:]...)
		}}, true
	case 5: // remove the OSPF process: the structural fallback
		dev, ok := pickDev(rng, n, func(d *netmodel.Device) bool { return d.OSPF != nil })
		if !ok {
			return chainStep{}, false
		}
		return chainStep{"remove-ospf", dev, dataplane.ChangeOSPF,
			func(d *netmodel.Device) { d.OSPF = nil }}, true
	case 6: // add a static route out of an addressed interface
		at, ok := pickIf(rng, n, func(_ *netmodel.Device, itf *netmodel.Interface) bool { return itf.HasAddr() })
		if !ok {
			return chainStep{}, false
		}
		route := netmodel.StaticRoute{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(rng.Intn(256)), 0}), 24),
			NextHop: n.Devices[at.dev].Interfaces[at.name].Addr.Masked().Addr().Next(),
		}
		return chainStep{"static " + route.Prefix.String(), at.dev, dataplane.ChangeStatic, func(d *netmodel.Device) {
			d.StaticRoutes = append(d.StaticRoutes, route)
		}}, true
	default: // access-VLAN move
		at, ok := pickIf(rng, n, func(_ *netmodel.Device, itf *netmodel.Interface) bool {
			return itf.Mode == netmodel.Access
		})
		if !ok {
			return chainStep{}, false
		}
		// Onto one of the switch's own VLANs (a real rewire) or off them all.
		vlans := []int{999}
		for id := range n.Devices[at.dev].VLANs {
			vlans = append(vlans, id)
		}
		sort.Ints(vlans)
		vlan := vlans[rng.Intn(len(vlans))]
		return chainStep{fmt.Sprintf("access-vlan %s=%d", at.name, vlan), at.dev, dataplane.ChangeL2,
			func(d *netmodel.Device) { d.Interfaces[at.name].AccessVLAN = vlan }}, true
	}
}

// chainTier is one topology the chained oracle and its fuzz target run on,
// built and computed once: every chain derives from the same base snapshot,
// so the clean traces each chain's first step computes are written back
// into one shared parent, as reviews do into the held production snapshot,
// and every chain starts from the base's one complete verdict vector.
type chainTier struct {
	name     string
	build    func() *scenarios.Scenario
	once     sync.Once
	scen     *scenarios.Scenario
	baseSnap *dataplane.Snapshot
	// policies is the scenario's set plus policies that do not hold: every
	// fifth reachability policy again as an isolation policy (violated with
	// a trace wherever the flow is delivered) and one about a host nobody
	// has (violated with an error and no trace). baseVerdicts is the base
	// snapshot's vector over them, complete, as a held vector is.
	policies     []verify.Policy
	baseVerdicts verify.Verdicts
}

func (c *chainTier) base() (*scenarios.Scenario, *dataplane.Snapshot) {
	c.once.Do(func() {
		c.scen = c.build()
		c.baseSnap = dataplane.Compute(c.scen.Network)
		c.policies = append([]verify.Policy(nil), c.scen.Policies...)
		for i, p := range c.scen.Policies {
			if p.Kind == verify.Reachability && i%5 == 0 {
				p.ID, p.Kind = p.ID+"-broken", verify.Isolation
				c.policies = append(c.policies, p)
			}
		}
		c.policies = append(c.policies, verify.Policy{ID: "P-nohost", Src: "no-such-host", Dst: c.scen.Network.Hosts()[0]})
		c.baseVerdicts = make(verify.Verdicts, len(c.policies))
		verify.CheckCarried(c.baseSnap, c.policies, nil, c.baseVerdicts, nil)
	})
	return c.scen, c.baseSnap
}

// checkVerdicts fails unless every slot of the vector, when there is one,
// is the verdict a check of full, the from-scratch snapshot of the same
// network, gives: the same trace and the same violation rendered, or none.
func checkVerdicts(t *testing.T, what string, policies []verify.Policy, vec verify.Verdicts, full *dataplane.Snapshot, trail []string) {
	t.Helper()
	if vec == nil {
		return
	}
	for i, p := range policies {
		v := vec[i]
		if v == nil {
			t.Fatalf("step %d: %s: no verdict for %s\nsteps: %q", len(trail), what, p, trail)
		}
		tr, _ := full.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		got, want := "holds", "holds"
		if v.Violation != nil {
			got = v.Violation.String()
		}
		if w := verify.CheckPolicy(full, p); w != nil {
			want = w.String()
		}
		if got != want || !reflect.DeepEqual(v.Trace, tr) {
			t.Fatalf("step %d: %s: verdict of %s diverged\nheld: %s on %v\nfull: %s on %v\nsteps: %q",
				len(trail), what, p, got, v.Trace, want, tr, trail)
		}
	}
}

// chainStats is what a chain carried: verdicts taken by index, how many of
// those were violations, and how many crossed a changed device (carried by
// replaying its ACLs).
type chainStats struct{ carried, carriedViolations, replayed int }

var chainTiers = []*chainTier{
	{name: "university", build: scenarios.University},
	{name: "fattree-k4", build: func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4}) }},
	{name: "isp", build: func() *scenarios.Scenario { return generate.ISP(generate.ISPParams{}) }},
	{name: "wan", build: func() *scenarios.Scenario { return generate.WAN(generate.WANParams{}) }},
	{name: "enterprise", build: scenarios.Enterprise},
}

// runChain drives one chain: every script byte is one Derive. Its low three
// bits pick the first mutation's class and the next two how many more
// mutations (classes drawn from rng, devices free to repeat) join the same
// change set, so a step changes one to four devices at once. Every snapshot
// is derived from the PREVIOUS derived snapshot — whatever a derivation
// shares, patches, keeps by identity or carries in its flow cache is the
// next one's parent — and compared with a from-scratch Compute: every
// device's RIB, the flow of every scenario policy (which also warms the
// snapshot the next step derives from) and 20 sampled host pairs, each flow
// also with the string-keyed reference trace on the derived snapshot.
//
// Bit 7 adds an ACL edit aimed at the path of a random scenario policy on
// the parent (aclEdit, verdict-keeping or verdict-flipping), so verdicts
// and traces also carry across a changed device by replaying its ACLs.
//
// Bit 6 makes a step light: it reads the RIBs of a random subset of devices
// only, and drops the verdict vector, as a version nobody has reviewed yet
// holds none. A route cell is built at its first read, so unread cells cross light steps
// unbuilt — shared, or new and never read — and are built generations
// later, when a full step (the chain always ends with one) reads them all.
//
// The verdict vector goes down the chain with the snapshots. Bit 5 of the
// script byte picks how: as a commit or an injection hands it over
// (CheckCarried on the derived snapshot with the parent's vector, none after
// a light step, keeping the new one — the result must equal verify.Check on
// the from-scratch snapshot, violations rendered and in order, and every
// slot must be filled) or as the first review completes the vector of a
// version held without one (verify.CheckCarried on the derived snapshot
// with no parent vector). Either way every slot of the new vector must be
// the from-scratch verdict, and a hand-over must have resumed every parent
// trace the derivation does not carry to the trace a walk from the source
// gives (fromSource). A failure names the step sequence.
func runChain(t *testing.T, tier *chainTier, rng *rand.Rand, script []byte) (stats chainStats) {
	scen, snap := tier.base()
	policies, verdicts := tier.policies, tier.baseVerdicts
	cur := scen.Network
	hosts := cur.Hosts()
	var trail []string
	// compareAll holds every device's RIB and every checked flow of snap to
	// full, both snapshots of next.
	compareAll := func(snap, full *dataplane.Snapshot, next *netmodel.Network) {
		for _, dev := range next.DeviceNames() {
			if !reflect.DeepEqual(snap.RIB(dev), full.RIB(dev)) {
				t.Fatalf("step %d: %s RIB diverged\nderived:\n%s\nfull:\n%s\nsteps: %q",
					len(trail), dev, snap.FormatRIB(dev), full.FormatRIB(dev), trail)
			}
		}
		ref := newRefTracer(snap, next)
		check := func(src, dst string, proto netmodel.Protocol, port uint16) {
			g, gerr := snap.Reach(src, dst, proto, port)
			w, werr := full.Reach(src, dst, proto, port)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d: %s->%s trace diverged\nderived: %v %s\nfull:    %v %s\nsteps: %q",
					len(trail), src, dst, gerr, g, werr, w, trail)
			}
			compareReach(t, snap, ref, src, dst, proto, port, fmt.Sprintf("step %d of %q", len(trail), trail))
		}
		for _, p := range scen.Policies {
			check(p.Src, p.Dst, p.Proto, p.DstPort)
		}
		for i := 0; i < 20; i++ {
			check(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))], netmodel.ICMP, 0)
		}
	}
	var unchecked func() // the full comparison a trailing light step owes
	for _, b := range script {
		next, class := cur, int(b%stepClasses)
		var cs dataplane.ChangeSet
		var ops []string
		add := func(step chainStep) {
			ops = append(ops, step.device+": "+step.op)
			next = next.CloneCOW(step.device)
			step.apply(next.Devices[step.device])
			cs = append(cs, dataplane.Change{Device: step.device, Kind: step.kind})
		}
		for k := 0; k <= int(b>>3&3); k++ {
			step, ok := randomStep(rng, next, class)
			class = rng.Intn(stepClasses)
			if ok {
				add(step)
			}
		}
		if b>>7 == 1 {
			p := scen.Policies[rng.Intn(len(scen.Policies))]
			if tr, err := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort); err == nil {
				if step, ok := aclEdit(rng, next, tr, rng.Intn(len(tr.Hops)), rng.Intn(2) == 0); ok {
					add(step)
				}
			}
		}
		if len(cs) == 0 {
			continue
		}
		light := b>>6&1 == 1
		trail = append(trail, strings.Join(ops, " + "))
		if light {
			trail[len(trail)-1] += " (light)"
		}
		snap = snap.Derive(next, cs)
		cur = next

		full := dataplane.Compute(next)
		switch {
		case light:
			verdicts = nil
		case b>>5&1 == 1:
			verdicts = make(verify.Verdicts, len(policies))
			verify.CheckCarried(snap, policies, nil, verdicts, nil)
		default:
			var resumed []int // the slots whose trace the check resumes
			for i := range verdicts {
				v := verdicts[i]
				switch {
				case v == nil:
				case snap.Carries(v.Trace):
					stats.carried++
					if v.Violation != nil {
						stats.carriedViolations++
					}
					if crosses(v.Trace, cs) {
						stats.replayed++
					}
				case snap.Carries(nil):
					resumed = append(resumed, i)
				}
			}
			handed := make(verify.Verdicts, len(policies))
			got, want := verify.CheckCarried(snap, policies, verdicts, handed, nil), verify.Check(full, policies)
			if got.Checked != want.Checked || fmt.Sprint(got.Violations) != fmt.Sprint(want.Violations) {
				t.Fatalf("step %d: check with carried verdicts diverged\ncarried: %d checked, %v\nfull:    %d checked, %v\nsteps: %q",
					len(trail), got.Checked, got.Violations, want.Checked, want.Violations, trail)
			}
			for i := range handed {
				if handed[i] == nil {
					t.Fatalf("step %d: the check left slot %d of the handed-over vector empty\nsteps: %q", len(trail), i, trail)
				}
			}
			for _, i := range resumed {
				if tr, want := handed[i].Trace, fromSource(snap, next, policies[i]); !reflect.DeepEqual(tr, want) {
					t.Fatalf("step %d: %s: resumed trace diverged from the source's\nresumed: %s\nsource:  %s\nsteps: %q",
						len(trail), policies[i], tr, want, trail)
				}
			}
			verdicts = handed
		}
		checkVerdicts(t, "derived vector", policies, verdicts, full, trail)

		if !light {
			compareAll(snap, full, next)
			unchecked = nil
			continue
		}
		for _, dev := range next.DeviceNames() {
			if rng.Intn(4) == 0 && !reflect.DeepEqual(snap.RIB(dev), full.RIB(dev)) {
				t.Fatalf("step %d: %s RIB diverged\nderived:\n%s\nfull:\n%s\nsteps: %q",
					len(trail), dev, snap.FormatRIB(dev), full.FormatRIB(dev), trail)
			}
		}
		snap, full, next := snap, full, next
		unchecked = func() { compareAll(snap, full, next) }
	}
	if unchecked != nil {
		unchecked()
	}
	return stats
}

// TestGeneratedDeriveChained is the chained differential oracle: seeded
// random 40-step mutation sequences (see runChain) on the hand-built
// university and enterprise and the generated fat-tree, ISP and WAN
// topologies. A failure names the seed and the step sequence.
func TestGeneratedDeriveChained(t *testing.T) {
	seeds, steps := 6, 40
	if raceEnabled {
		seeds = 2
	}
	var total chainStats
	for _, tier := range chainTiers {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tier.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(seed)))
				script := make([]byte, steps)
				rng.Read(script)
				stats := runChain(t, tier, rng, script)
				total.carried += stats.carried
				total.carriedViolations += stats.carriedViolations
				total.replayed += stats.replayed
			})
		}
	}
	t.Logf("%d verdicts carried, %d of them violations, %d across a changed device by replay",
		total.carried, total.carriedViolations, total.replayed)
	if total.carried == 0 || total.carriedViolations == 0 || total.replayed == 0 {
		t.Fatal("no chain carried a violation from one snapshot to the next, or none by replay: the case is gone")
	}
}

// FuzzDeriveChained hands runChain to the fuzzer: the tier, the seed of the
// draws inside each step, and the step script itself (class, change-set
// size, light or full and how the verdict vector is handed on, per step)
// are all inputs.
func FuzzDeriveChained(f *testing.F) {
	for tier := range chainTiers {
		f.Add(uint8(tier), int64(tier+1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8 | 6, 16 | 7, 24 | 1, 0, 32 | 1, 32 | 6, 2})
		f.Add(uint8(tier), int64(tier+7), []byte{64 | 2, 64 | 3, 64 | 8 | 6, 1, 64 | 4, 64 | 32 | 7, 64 | 5, 0, 64 | 16 | 3})
		f.Add(uint8(tier), int64(tier+13), []byte{128 | 1, 128 | 32 | 6, 128 | 64, 128 | 8 | 2, 128, 128 | 64 | 32 | 7, 128 | 16 | 4, 0})
	}
	f.Fuzz(func(t *testing.T, tier uint8, seed int64, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		runChain(t, chainTiers[int(tier)%len(chainTiers)], rand.New(rand.NewSource(seed)), script)
	})
}
