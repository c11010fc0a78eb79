package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/service"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// Depth 4: the leaf calls of every layer below the engagement, timed from
// outside on inputs captured from a tenant of the workload's own scenario
// with its ACL issue injected, ticketed, opened and fixed in the twin —
// the production network, the pending change set and the Privilegemsp a
// review or commit of that ticket would see.

// leafBudget bounds the time spent on one leaf; leafMin is the least
// number of samples taken whatever they cost.
const (
	leafBudget   = 120 * time.Millisecond
	leafMin      = 20
	leafSpanKeep = 20 // samples per leaf exported as spans
)

// prober times leaf calls and keeps their quiet times and first spans.
type prober struct {
	us    map[string]float64 // quiet time per leaf, in microseconds
	spans []span
}

// sample times call at least leafMin times and until leafBudget is spent
// (preparation included), running before (untimed) ahead of each, and
// files the quiet time under name. batch is how many operations one call
// performs.
//
// The collector runs before the first sample and not again until the last
// is taken: a cycle that happened to span a leaf's samples would slow all
// of them by half, and on a heap this small one would span most.
func (p *prober) sample(name string, batch int, before, call func()) {
	runtime.GC()
	var d []time.Duration
	for began := time.Now(); len(d) < leafMin || time.Since(began) < leafBudget; {
		if before != nil {
			before()
		}
		start := time.Now()
		call()
		dur := time.Since(start)
		d = append(d, dur/time.Duration(batch))
		if len(d) <= leafSpanKeep {
			p.spans = append(p.spans, span{op: len(d) - 1, depth: 4, name: name, start: start, dur: dur})
		}
	}
	p.us[name] = 1000 * quiet(d)
}

// mallocs counts heap allocations of one call on a quiet process.
func mallocs(call func()) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	call()
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs - before)
}

// changeSetFor classes a config change set for Snapshot.Derive the way
// the enforcer's incremental path would; ops it does not know fall back
// to the class that recomputes everything.
func changeSetFor(changes []config.Change) dataplane.ChangeSet {
	cs := make(dataplane.ChangeSet, 0, len(changes))
	for _, c := range changes {
		kind := dataplane.ChangeTopology
		switch c.Op {
		case config.OpAddACLEntry, config.OpRemoveACLEntry, config.OpRemoveACL:
			kind = dataplane.ChangeACL
		case config.OpAddStaticRoute, config.OpRemoveStaticRoute, config.OpSetGateway:
			kind = dataplane.ChangeStatic
		case config.OpSetOSPF, config.OpRemoveOSPF:
			kind = dataplane.ChangeOSPF
		}
		cs = append(cs, dataplane.Change{Device: c.Device, Kind: kind})
	}
	return cs
}

// rereadIssue names, per change class of the console's incremental
// derive, the university issue whose ticket toggles a line of that class.
var rereadIssue = map[string]string{"acl": "acl", "ospf": "ospf", "static": "isp"}

// leafResult is what the depth-4 probes yield: per-layer metrics keyed by
// the names in spec.go, the summed quiet times of the leaves that make up the
// workload's heavy op below the engagement, and the first spans.
type leafResult struct {
	metrics map[string]float64
	heavyUS float64
	spans   []span
}

// leafBroken is the panic a probe raises when a call that worked while the
// inputs were captured fails when repeated; leaves turns it into an error.
type leafBroken struct{ error }

func broken(what string, err error) {
	panic(leafBroken{fmt.Errorf("leaves: %s: %w", what, err)})
}

// leaves runs every depth-4 probe.
func (r *runner) leaves() (res *leafResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			lb, ok := v.(leafBroken)
			if !ok {
				panic(v)
			}
			err = lb.error
		}
	}()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // see prober.sample
	svc := newService()
	defer svc.Close()
	const tenant = "leaf"
	if _, err := svc.CreateTenant(tenant, r.w.scenario); err != nil {
		return nil, err
	}
	tn, err := svc.Tenant(tenant)
	if err != nil {
		return nil, err
	}
	sys, prod := tn.System(), tn.System().Production()
	is := findIssue(tn.ScenarioData(), "acl")
	root := is.Fault.RootCause
	aclName := strings.Fields(is.Fault.Fix[0].Line)[2] // "no access-list NAME SEQ"
	pingLine := is.Script[0].Line
	tk, err := svc.InjectIssue(tenant, is.Name, "leaf")
	if err != nil {
		return nil, err
	}
	eng, err := sys.StartWork(tk.ID, "leaf-tech")
	if err != nil {
		return nil, err
	}
	for _, f := range is.Fault.Fix {
		con, err := eng.Console(f.Device)
		if err == nil {
			_, err = con.Exec(f.Line)
		}
		if err != nil {
			return nil, fmt.Errorf("leaves: fixing the twin: %w", err)
		}
	}
	changes, spec := eng.Twin.Changes(), eng.Spec
	policies := sys.Policies()
	touched := map[string]bool{}
	var touchedList []string
	for _, c := range changes {
		if !touched[c.Device] {
			touched[c.Device] = true
			touchedList = append(touchedList, c.Device)
		}
	}
	newTicket := func() string {
		return sys.Tickets.Create(ticket.Ticket{
			Summary: is.Fault.Description, Kind: is.Fault.Kind, SrcHost: is.SrcHost, DstHost: is.DstHost,
			Proto: is.Proto, DstPort: is.DstPort, Suspects: []string{root}, CreatedBy: "leaf",
		}).ID
	}
	shadowOf := func() *netmodel.Network {
		shadow := prod.CloneCOW(touchedList...)
		if err := config.ApplyChanges(shadow, changes); err != nil {
			broken("applying the captured change set", err)
		}
		return shadow
	}

	p := &prober{us: make(map[string]float64)}

	// privilege
	compiled := spec.Compile()
	probeEnv := console.NewEnv(eng.Twin.Network())
	var pairs []console.Command
	for _, c := range is.Script {
		cmd, err := console.New(c.Device, probeEnv).Parse(c.Line)
		if err != nil {
			return nil, fmt.Errorf("leaves: %q: %w", c.Line, err)
		}
		pairs = append(pairs, cmd)
	}
	const inner = 200
	p.sample("privilege.allows", inner*len(pairs), nil, func() {
		for i := 0; i < inner; i++ {
			for _, c := range pairs {
				compiled.Allows(c.Action, c.Resource)
			}
		}
	})
	p.sample("privilege.compile", 1, nil, func() { spec.Compile() })
	var scope, suspects []string
	for dev := range eng.Slice {
		scope = append(scope, dev)
		if d := prod.Devices[dev]; d != nil && d.Kind != netmodel.Host {
			suspects = append(suspects, dev)
		}
	}
	p.sample("privilege.generate", 1, nil, func() {
		_, _ = privilege.Generate(privilege.TemplateInput{Ticket: tk.ID, Technician: "leaf-tech",
			Kind: is.Fault.Kind, Scope: scope, Suspects: suspects})
	})

	// audit and journal, on chains of their own as long as a busy tenant's
	key := []byte("heimdall-bench-leaf-key")
	trail := audit.NewTrail(key)
	for i := 0; i < 10000; i++ {
		trail.Append(tk.ID, "leaf-tech", audit.KindCommand, "[r1] show ip route", true)
	}
	p.sample("audit.append", 1, nil, func() {
		trail.Append(tk.ID, "leaf-tech", audit.KindDecision, "allow show.ip.route on device:r1", true)
	})
	jr := journal.New(key)
	p.sample("journal.append", 1, nil, func() {
		jr.Intent("c", tk.ID, "leaf-tech", changes, nil)
		jr.Applied("c", 0, "applied")
		jr.Committed("c", "1 changes")
	})

	// telemetry, labelled lookup and update exactly as Service.Exec does it
	reg := telemetry.NewRegistry()
	p.sample("telemetry.counter_inc", inner, nil, func() {
		for i := 0; i < inner; i++ {
			reg.Counter("heimdall_service_commands_total", telemetry.L("tenant", tenant)).Inc()
		}
	})
	p.sample("telemetry.histogram_observe", inner, nil, func() {
		for i := 0; i < inner; i++ {
			reg.Histogram("heimdall_service_mediation_seconds", telemetry.LatencyBuckets,
				telemetry.L("tenant", tenant)).ObserveDuration(37 * time.Microsecond)
		}
	})

	// twin and console, on a twin of their own
	newTwin := func() (*twin.Twin, error) {
		return twin.New(twin.Config{Ticket: tk.ID, Technician: "leaf-tech", Production: prod,
			Spec: spec, Slice: eng.Slice, Trail: audit.NewTrail(key)})
	}
	tw, err := newTwin()
	if err != nil {
		return nil, err
	}
	p.sample("twin.new", 1, nil, func() { _, _ = newTwin() })
	prodSnap := dataplane.Compute(prod)
	p.sample("twin.compute_slice", 1, nil, func() {
		twin.ComputeSlice(prod, prodSnap, twin.SliceTaskDriven, is.SrcHost, is.DstHost, []string{root})
	})
	env := console.NewEnv(tw.Network())
	env.EnableIncremental()
	rootCon, srcCon := console.New(root, env), console.New(is.SrcHost, env)
	mustParse := func(c *console.Console, line string) console.Command {
		cmd, err := c.Parse(line)
		if err != nil {
			broken(line, err)
		}
		return cmd
	}
	exec := func(c *console.Console, cmd console.Command) {
		if _, err := c.Execute(cmd); err != nil {
			broken(cmd.Raw, err)
		}
	}
	const smallLine, largeLine = "show ip ospf neighbor", "show running-config"
	p.sample("console.parse", 1, nil, func() { _, _ = rootCon.Parse(largeLine) })
	small, large, ping := mustParse(rootCon, smallLine), mustParse(rootCon, largeLine), mustParse(srcCon, pingLine)
	exec(srcCon, ping) // a cached snapshot, so that writes queue a derive
	p.sample("console.execute_small", 1, nil, func() { exec(rootCon, small) })
	p.sample("console.execute_large", 1, nil, func() { exec(rootCon, large) })
	// A write and the first diagnostic after it, per change class. On the
	// university network these are the very lines console-edit's decks
	// cycle, each on its own ticket's twin; elsewhere, lines of the same
	// classes on the ACL ticket's root-cause device.
	type toggler struct {
		con, src *console.Console
		lines    [2]console.Command // applied in turn; the second undoes the first
		ping     console.Command
		flips    int
	}
	togglers := map[string]*toggler{}
	if r.w.scenario == "university" {
		// As console-edit's tenants are set up: every issue's fault in
		// production, one ticket and one twin per issue, in this order.
		const tenant = "leaf-console"
		if _, err := svc.CreateTenant(tenant, r.w.scenario); err != nil {
			return nil, err
		}
		tn, err := svc.Tenant(tenant)
		if err != nil {
			return nil, err
		}
		for _, class := range []string{"acl", "ospf", "static"} {
			d := universityDeck(r.scen, rereadIssue[class])
			tk, err := svc.InjectIssue(tenant, rereadIssue[class], "leaf")
			if err != nil {
				return nil, err
			}
			eng, err := tn.System().StartWork(tk.ID, "leaf-tech")
			if err != nil {
				return nil, err
			}
			env := console.NewEnv(eng.Twin.Network())
			env.EnableIncremental()
			t := &toggler{con: console.New(d.fix.device, env), src: console.New(d.ping.device, env)}
			t.lines = [2]console.Command{mustParse(t.con, d.fix.line), mustParse(t.con, d.inverse.line)}
			t.ping = mustParse(t.src, d.ping.line)
			togglers[class] = t
		}
	} else {
		for class, lines := range map[string][2]string{
			"acl":    {"access-list " + aclName + " 7 permit tcp any any eq 9", "no access-list " + aclName + " 7"},
			"ospf":   {"router ospf passive-interface Gi0/0", "router ospf no passive-interface Gi0/0"},
			"static": {"ip route 203.0.113.0 255.255.255.0 10.255.255.1", "no ip route 203.0.113.0 255.255.255.0 10.255.255.1"},
		} {
			togglers[class] = &toggler{con: rootCon, src: srcCon, ping: ping,
				lines: [2]console.Command{mustParse(rootCon, lines[0]), mustParse(rootCon, lines[1])}}
		}
	}
	// apply plays the toggler's lines in turn until line i has just been
	// applied, pinging after any other so that no derive is left queued.
	apply := func(t *toggler, i int) func() {
		return func() {
			for {
				next := t.flips % 2
				exec(t.con, t.lines[next])
				t.flips++
				if next == i {
					return
				}
				exec(t.src, t.ping)
			}
		}
	}
	acl := togglers["acl"]
	p.sample("console.execute_write", 1, func() { exec(acl.src, acl.ping) }, func() { apply(acl, acl.flips%2)() })
	// The diagnostic after either line is a position of its own in the
	// decks; a class's reread is the mean of the two.
	for class, t := range togglers {
		name := "console.execute_reread_" + class
		for i, dir := range []string{"/do", "/undo"} {
			p.sample(name+dir, 1, apply(t, i), func() { exec(t.src, t.ping) })
		}
		p.us[name] = (p.us[name+"/do"] + p.us[name+"/undo"]) / 2
	}
	twinCon, err := tw.OpenConsole(root)
	if err != nil {
		return nil, err
	}
	p.sample("twin.exec", 1, nil, func() { _, _ = twinCon.Exec(smallLine) })

	// core
	var fresh string
	p.sample("core.start_work", 1, func() { fresh = newTicket() }, func() {
		if _, err := sys.StartWork(fresh, "leaf-tech"); err != nil {
			broken("StartWork", err)
		}
	})

	// dataplane, verify, config, netmodel
	p.sample("dataplane.compute", 1, nil, func() { dataplane.Compute(prod) })
	shadow := shadowOf()
	cs := changeSetFor(changes)
	p.sample("dataplane.derive", 1, nil, func() { prodSnap.Derive(shadow, cs) })
	var snap *dataplane.Snapshot
	freshSnap := func() { snap = dataplane.Compute(shadow) }
	pol := policies[0]
	p.sample("dataplane.reach", 1, freshSnap, func() { _, _ = snap.Reach(pol.Src, pol.Dst, pol.Proto, pol.DstPort) })
	p.sample("verify.check", 1, freshSnap, func() { verify.Check(snap, policies) })
	affected := verify.AffectedBy(prodSnap, policies, touched)
	p.sample("verify.check_affected", 1, freshSnap, func() { verify.Check(snap, affected) })
	p.sample("config.diff_network", 1, nil, func() { config.DiffNetwork(eng.Twin.Baseline(), eng.Twin.Network()) })
	var cow *netmodel.Network
	p.sample("config.apply_changes", 1, func() { cow = prod.CloneCOW(touchedList...) }, func() {
		_ = config.ApplyChanges(cow, changes) // shadowOf already proved it applies
	})
	p.sample("netmodel.clone", 1, nil, func() { prod.Clone() })
	p.sample("netmodel.clone_cow", 1, nil, func() { prod.CloneCOW(touchedList...) })

	// enforcer: the tenant's own, on the captured review inputs. A commit
	// repairs production, so the fault goes back in before each.
	enf := sys.Enforcer
	p.sample("enforcer.review_miss", 1, enf.InvalidateReviews, func() { enf.ReviewCached(prod, changes, spec) })
	p.sample("enforcer.review_hit", 1, nil, func() { enf.ReviewCached(prod, changes, spec) })
	// As in a ticket, a review of the same set has just filled the verdict
	// cache when the commit runs.
	inject := func() {
		if err := sys.MutateProduction(is.Fault.Inject); err != nil {
			broken("re-injecting the fault", err)
		}
		enf.ReviewCached(prod, changes, spec)
	}
	p.sample("enforcer.commit", 1, inject, func() {
		if _, err := enf.Commit(prod, changes, spec); err != nil {
			broken("commit", err)
		}
	})

	pool := service.NewPool(1, 64, nil)
	p.sample("service.pool.do", 1, nil, func() { _ = pool.Do(tenant, func() {}) })
	pool.Close()

	u := p.us
	ms := func(us float64) float64 { return us / 1000 }
	m := map[string]float64{
		"privilege.allows_ns":              u["privilege.allows"] * 1000,
		"privilege.compile_us":             u["privilege.compile"],
		"privilege.generate_us":            u["privilege.generate"],
		"audit.append_us":                  u["audit.append"],
		"journal.append_us":                u["journal.append"],
		"telemetry.counter_inc_ns":         u["telemetry.counter_inc"] * 1000,
		"telemetry.histogram_observe_ns":   u["telemetry.histogram_observe"] * 1000,
		"twin.new_ms":                      ms(u["twin.new"]),
		"twin.compute_slice_us":            u["twin.compute_slice"],
		"twin.exec_self_us":                u["twin.exec"] - u["console.parse"] - u["console.execute_small"] - u["privilege.allows"] - 2*u["audit.append"],
		"console.parse_us":                 u["console.parse"],
		"console.execute_small_us":         u["console.execute_small"],
		"console.execute_large_us":         u["console.execute_large"],
		"console.execute_write_us":         u["console.execute_write"],
		"console.execute_reread_acl_us":    u["console.execute_reread_acl"],
		"console.execute_reread_ospf_us":   u["console.execute_reread_ospf"],
		"console.execute_reread_static_us": u["console.execute_reread_static"],
		"core.start_work_ms":               ms(u["core.start_work"]),
		"core.start_work_self_ms":          ms(u["core.start_work"] - u["dataplane.compute"] - u["twin.compute_slice"] - u["privilege.generate"] - u["twin.new"]),
		"dataplane.compute_ms":             ms(u["dataplane.compute"]),
		"dataplane.compute_allocs":         mallocs(func() { dataplane.Compute(prod) }),
		"dataplane.derive_ms":              ms(u["dataplane.derive"]),
		"dataplane.reach_us":               u["dataplane.reach"],
		"verify.check_ms":                  ms(u["verify.check"]),
		"verify.policies_checked":          float64(len(policies)),
		"verify.affected_ratio":            float64(len(affected)) / float64(len(policies)),
		"verify.check_affected_ms":         ms(u["verify.check_affected"]),
		"config.diff_network_us":           u["config.diff_network"],
		"config.apply_changes_us":          u["config.apply_changes"],
		"netmodel.clone_ms":                ms(u["netmodel.clone"]),
		"netmodel.clone_cow_us":            u["netmodel.clone_cow"],
		"enforcer.review_miss_ms":          ms(u["enforcer.review_miss"]),
		"enforcer.review_hit_us":           u["enforcer.review_hit"],
		"enforcer.review_self_ms": ms(u["enforcer.review_miss"] - u["privilege.compile"] - u["netmodel.clone_cow"] -
			u["config.apply_changes"] - u["dataplane.compute"] - u["verify.check"] - u["audit.append"]),
		"enforcer.commit_ms": ms(u["enforcer.commit"]),
		"enforcer.commit_self_ms": ms(u["enforcer.commit"] - u["enforcer.review_hit"] - u["netmodel.clone"] -
			u["journal.append"] - u["dataplane.compute"] - u["verify.check"]),
		"service.pool.do_overhead_us": u["service.pool.do"],
	}
	res = &leafResult{metrics: m, spans: p.spans}
	// The leaves that make up the workload's heavy op below the
	// engagement, for the budget closure check in trace.go.
	execLeaves := u["console.parse"] + u["privilege.allows"] + 2*u["audit.append"] + m["twin.exec_self_us"]
	switch r.w.heavy {
	case "large":
		res.heavyUS = execLeaves + u["console.execute_large"]
	case "reread":
		// Weighted as the workload's sessions are.
		sum := 0.0
		for _, issue := range r.w.preopen {
			for class, is := range rereadIssue {
				if is == issue {
					sum += u["console.execute_reread_"+class]
				}
			}
		}
		res.heavyUS = execLeaves + sum/float64(len(r.w.preopen))
	case "review":
		res.heavyUS = u["config.diff_network"] + u["enforcer.review_miss"]
	case "commit":
		res.heavyUS = u["config.diff_network"] + u["enforcer.commit"]
	}
	return res, nil
}
