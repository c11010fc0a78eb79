package experiments

// The chaos suite: seeded fault schedules thrown at the enforcer's commit
// pipeline, each checked against the all-or-nothing invariant the paper's
// trust argument needs — a managed-service push either fully lands, fully
// unwinds, or quarantines with an exact journaled account of the partial
// state. Nothing in between, under any schedule.

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/spec"
	"heimdall/internal/telemetry"
)

// ChaosNetwork builds the chaos fixture: h1—r1—r2—{h2, sensitive h3},
// with a GUARD ACL on r2 denying traffic into h3's subnet. Two routers
// mean every chaos change set crosses devices, so partial application is
// a real risk the pipeline must never expose.
func ChaosNetwork() *netmodel.Network {
	n := netmodel.NewNetwork("chaos")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	n.AddDevice("h1", netmodel.Host)
	n.AddDevice("h2", netmodel.Host)
	n.AddDevice("h3", netmodel.Host)

	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.12.0.1/30")
	r2.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.12.0.2/30")

	attach := func(host, dev, itf, sub string) {
		n.MustConnect(host, "eth0", dev, itf)
		n.Devices[dev].Interface(itf).Addr = netip.MustParsePrefix(sub + ".1/24")
		h := n.Devices[host]
		h.Interface("eth0").Addr = netip.MustParsePrefix(sub + ".10/24")
		h.DefaultGateway = netip.MustParseAddr(sub + ".1")
	}
	attach("h1", "r1", "Gi0/0", "10.1.0")
	attach("h2", "r2", "Gi0/1", "10.2.0")
	attach("h3", "r2", "Gi0/2", "10.3.0")

	via := func(d *netmodel.Device, prefix, nh string) {
		d.StaticRoutes = append(d.StaticRoutes, netmodel.StaticRoute{
			Prefix: netip.MustParsePrefix(prefix), NextHop: netip.MustParseAddr(nh)})
	}
	via(r1, "10.2.0.0/24", "10.12.0.2")
	via(r1, "10.3.0.0/24", "10.12.0.2")
	via(r2, "10.1.0.0/24", "10.12.0.1")

	guard := r2.ACL("GUARD", true)
	guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny,
		Proto: netmodel.AnyProto, Dst: netip.MustParsePrefix("10.3.0.0/24")})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit})
	r2.Interface("Gi0/0").ACLIn = "GUARD"
	r2.Interface("Gi0/1").ACLIn = "GUARD"
	return n
}

// chaosChanges is the fixed change set every schedule pushes: four neutral
// changes spread over both routers, so the window for partial application
// spans devices.
func chaosChanges() []config.Change {
	return []config.Change{
		{Device: "r1", Op: config.OpAddACLEntry, ACLName: "CHAOS",
			Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP,
				Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 443}},
		{Device: "r1", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 901, Name: "chaos-a"}},
		{Device: "r2", Op: config.OpAddACLEntry, ACLName: "GUARD",
			Entry: &netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP,
				Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 443}},
		{Device: "r2", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 902, Name: "chaos-b"}},
	}
}

func chaosSpec() *privilege.Spec {
	return &privilege.Spec{Ticket: "CHAOS", Technician: "chaos",
		Rules: []privilege.Rule{{Effect: privilege.AllowEffect, Action: "*", Resource: "*"}}}
}

// ChaosResult is the audited outcome of one fault schedule.
type ChaosResult struct {
	Seed    int64
	Outcome string // "committed", "rolled-back" or "quarantined"
	// Faults is how many calls the injector failed; Retries how many
	// backoff sleeps the pipeline took.
	Faults  int
	Retries int
	// Recovered is true when a quarantined run was healed by Recover
	// (every quarantined run must be).
	Recovered bool
}

// chaosFingerprint canonicalises a network for bit-for-bit comparison.
func chaosFingerprint(n *netmodel.Network) string {
	var b strings.Builder
	for _, name := range n.DeviceNames() {
		b.WriteString(config.Print(n.Devices[name]))
		b.WriteString("\n")
	}
	return b.String()
}

// replayJournal reconstructs the production state a verified journal
// describes: pre-state plus every applied change, minus every journaled
// restore. Production matching this replay bit-for-bit is what makes the
// journal a trustworthy account of a partial push.
func replayJournal(pre *netmodel.Network, records []journal.Record) (*netmodel.Network, error) {
	state := pre.Clone()
	var intent *journal.Record
	restore := func(names []string) error {
		for _, name := range names {
			d, err := config.Parse(name, intent.PreState[name])
			if err != nil {
				return fmt.Errorf("parsing journaled pre-state of %s: %w", name, err)
			}
			state.Devices[name] = d
		}
		return nil
	}
	for i := range records {
		r := &records[i]
		switch r.Kind {
		case journal.KindIntent:
			intent = r
		case journal.KindApplied:
			if intent == nil || r.ChangeIndex < 0 || r.ChangeIndex >= len(intent.Changes) {
				return nil, fmt.Errorf("applied record %d without matching intent", r.Index)
			}
			c := intent.Changes[r.ChangeIndex]
			if err := config.ApplyChange(state.Devices[c.Device], c); err != nil {
				return nil, fmt.Errorf("replaying change %d: %w", r.ChangeIndex, err)
			}
		case journal.KindRolledBack, journal.KindQuarantined, journal.KindRecovered:
			if intent == nil {
				return nil, fmt.Errorf("%s record %d without intent", r.Kind, r.Index)
			}
			names := r.Restored
			if r.Kind == journal.KindRecovered {
				// Recovery restores every journaled device before replaying.
				names = nil
				for name := range intent.PreState {
					names = append(names, name)
				}
			}
			if err := restore(names); err != nil {
				return nil, err
			}
		}
	}
	return state, nil
}

// chaosRig is the fixture both chaos runners drive: the chaos network and
// its pre-state, an enforcer in its own enclave over the policies mined
// from that network, and the registry the enforcer meters into.
type chaosRig struct {
	n, pre *netmodel.Network
	e      *enforcer.Enforcer
	reg    *telemetry.Registry
}

// newChaosRig builds a fresh fixture; platformSeed derives the enclave.
func newChaosRig(platformSeed string) *chaosRig {
	n := ChaosNetwork()
	r := &chaosRig{n: n, pre: n.Clone(), reg: telemetry.NewRegistry()}
	encl := enclave.NewPlatformFromSeed(platformSeed).Load("heimdall-enforcer-v1")
	policies := spec.Mine(dataplane.Compute(n), n, spec.Options{Sensitive: map[string]bool{"h3": true}})
	r.e = enforcer.New(encl, policies)
	r.e.SetMeter(r.reg)
	return r
}

// terminalKinds is the journal record each settled outcome ends in.
var terminalKinds = map[string]journal.Kind{
	"committed":   journal.KindCommitted,
	"rolled-back": journal.KindRolledBack,
	"quarantined": journal.KindQuarantined,
}

// settle audits what every schedule must leave behind, whichever runner
// drove it: a journal and audit trail that verify, the terminal record the
// outcome claims last in the journal, and production all-or-nothing —
// bit-identical to the pre-state plus the journaled changes when committed,
// to the pre-state when rolled back. It returns the verified records and
// the committed state's fingerprint.
func (r *chaosRig) settle(outcome string) ([]journal.Record, string, error) {
	if err := r.e.Journal().Verify(); err != nil {
		return nil, "", fmt.Errorf("journal: %v", err)
	}
	if err := r.e.Trail().Verify(); err != nil {
		return nil, "", fmt.Errorf("audit trail: %v", err)
	}
	records := r.e.Journal().Records()
	if len(records) == 0 {
		return nil, "", errors.New("no journal records")
	}
	if last := records[len(records)-1]; last.Kind != terminalKinds[outcome] {
		return nil, "", fmt.Errorf("terminal record %s, outcome %s", last.Kind, outcome)
	}
	committed := r.pre.Clone()
	if err := config.ApplyChanges(committed, records[0].Changes); err != nil {
		return nil, "", fmt.Errorf("applying scheduled set to pre-state: %v", err)
	}
	committedFP, got := chaosFingerprint(committed), chaosFingerprint(r.n)
	switch outcome {
	case "committed":
		if got != committedFP {
			return nil, "", errors.New("committed run does not match pre-state + changes")
		}
	case "rolled-back":
		if got != chaosFingerprint(r.pre) {
			return nil, "", errors.New("rolled-back run does not match pre-state")
		}
	}
	return records, committedFP, nil
}

// RunChaosSchedule executes one seeded fault schedule against a fresh
// enforcer and fixture, then audits every invariant the pipeline promises:
// exactly one terminal outcome, production bit-identical to what that
// outcome implies (via independent journal replay), verifiable journal and
// audit trail, reconciled fault/retry/latency counters, and — for
// quarantined runs — that Recover restores full consistency. Any violation
// is returned as an error naming the seed.
func RunChaosSchedule(seed int64) (*ChaosResult, error) {
	rig := newChaosRig("chaos-suite")
	n, e, reg := rig.n, rig.e, rig.reg

	retries := 0
	e.Retry = enforcer.RetryPolicy{
		JitterSeed: seed,
		Sleep:      func(time.Duration) { retries++ },
	}
	inj := faultinject.New(faultinject.RandomPlan(seed, []string{"r1", "r2"}, []string{"apply", "restore"}))
	inj.SetMeter(reg)
	inj.SetSleep(func(time.Duration) {}) // injected latency is virtual in the suite
	e.SetInjector(inj)

	res := &ChaosResult{Seed: seed}
	fail := func(format string, args ...any) (*ChaosResult, error) {
		return nil, fmt.Errorf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}

	_, err := e.Commit(n, chaosChanges(), chaosSpec())
	quarantined, _ := e.Quarantined()
	switch {
	case err == nil:
		res.Outcome = "committed"
	case quarantined:
		res.Outcome = "quarantined"
	default:
		res.Outcome = "rolled-back"
	}
	res.Faults = inj.Injected()
	res.Retries = retries

	// settle pins committed and rolled-back production; a quarantined run is
	// held to the journal's exact account — production must match the
	// journal's independent replay, whatever the outcome.
	records, committedFP, err := rig.settle(res.Outcome)
	if err != nil {
		return fail("%v", err)
	}
	replayed, err := replayJournal(rig.pre, records)
	if err != nil {
		return fail("journal replay: %v", err)
	}
	if chaosFingerprint(replayed) != chaosFingerprint(n) {
		return fail("production diverges from journal replay (outcome %s)", res.Outcome)
	}

	// Counter reconciliation: the meters must agree with the injector and
	// the pipeline's own bookkeeping.
	metered := 0.0
	for _, op := range []string{"apply", "restore"} {
		for _, class := range []string{"transient", "permanent"} {
			metered += reg.CounterValue("heimdall_faults_injected_total",
				telemetry.L("op", op), telemetry.L("class", class))
		}
	}
	if metered != float64(res.Faults) {
		return fail("faults_injected_total = %v, injector says %d", metered, res.Faults)
	}
	meteredRetries := reg.CounterValue("heimdall_enforcer_push_retries_total", telemetry.L("phase", "apply")) +
		reg.CounterValue("heimdall_enforcer_push_retries_total", telemetry.L("phase", "rollback"))
	if meteredRetries != float64(res.Retries) {
		return fail("push_retries_total = %v, pipeline slept %d times", meteredRetries, res.Retries)
	}
	applied := 0
	for _, r := range records {
		if r.Kind == journal.KindApplied {
			applied++
		}
	}
	wantPushes := uint64(applied)
	if res.Outcome != "committed" {
		wantPushes++ // the op whose retries ran out is still observed
	}
	if got := reg.HistogramCount("heimdall_enforcer_push_seconds"); got != wantPushes {
		return fail("push_seconds observations = %d, want %d", got, wantPushes)
	}

	// A quarantined run is not an outcome an operator can live with: the
	// journal must still hold the commit open, and Recover must converge
	// production onto the uninterrupted result.
	if res.Outcome == "quarantined" {
		if intent, _ := e.Journal().Open(); intent == nil {
			return fail("quarantined commit not open for recovery")
		}
		rep, err := e.Recover(n)
		if err != nil {
			return fail("recover: %v", err)
		}
		if rep.Action != "committed" {
			return fail("recovery action %s, want committed", rep.Action)
		}
		if chaosFingerprint(n) != committedFP {
			return fail("recovered production does not match committed state")
		}
		if q, _ := e.Quarantined(); q {
			return fail("quarantine not cleared by recovery")
		}
		if reg.CounterValue("heimdall_enforcer_recoveries_total") != 1 {
			return fail("recoveries_total != 1 after recovery")
		}
		res.Recovered = true
	} else if intent, _ := e.Journal().Open(); intent != nil {
		return fail("settled run left the journal open")
	}
	return res, nil
}

// ChaosSummary aggregates a chaos sweep.
type ChaosSummary struct {
	Results     []ChaosResult
	Committed   int
	RolledBack  int
	Quarantined int
	Faults      int
	Retries     int
}

// Chaos runs the seeds [first, first+count) sequentially and fails on the
// first invariant violation. The same seed range always reproduces the
// same schedules and outcomes.
func Chaos(first int64, count int) (*ChaosSummary, error) {
	s := &ChaosSummary{}
	for seed := first; seed < first+int64(count); seed++ {
		r, err := RunChaosSchedule(seed)
		if err != nil {
			return nil, err
		}
		s.Add(*r)
	}
	return s, nil
}

// Add folds one schedule result into the summary.
func (s *ChaosSummary) Add(r ChaosResult) {
	s.Results = append(s.Results, r)
	switch r.Outcome {
	case "committed":
		s.Committed++
	case "rolled-back":
		s.RolledBack++
	case "quarantined":
		s.Quarantined++
	}
	s.Faults += r.Faults
	s.Retries += r.Retries
}

// FormatChaos renders a chaos sweep for the CLI.
func FormatChaos(s *ChaosSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos suite: %d fault schedules against the commit pipeline\n", len(s.Results))
	fmt.Fprintf(&b, "%8s  %-12s %7s %8s %10s\n", "seed", "outcome", "faults", "retries", "recovered")
	for _, r := range s.Results {
		rec := "-"
		if r.Recovered {
			rec = "yes"
		}
		fmt.Fprintf(&b, "%8d  %-12s %7d %8d %10s\n", r.Seed, r.Outcome, r.Faults, r.Retries, rec)
	}
	fmt.Fprintf(&b, "\n%d committed, %d rolled back, %d quarantined (all recovered); %d faults injected, %d retries\n",
		s.Committed, s.RolledBack, s.Quarantined, s.Faults, s.Retries)
	b.WriteString("Invariant held on every schedule: production is never silently partial.\n")
	return b.String()
}
