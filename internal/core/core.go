// Package core wires Heimdall's components into the paper's three-step
// workflow (Figure 4):
//
//  1. an admin (or the task template) produces a Privilegemsp for a ticket;
//  2. the technician resolves the ticket inside an isolated twin network,
//     every command mediated by the reference monitor;
//  3. the policy enforcer verifies the resulting changes and imports them
//     into the production network, recording a tamper-evident audit trail
//     from inside a (simulated) TEE.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/spec"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// Options configures a Heimdall deployment.
type Options struct {
	// Network is the customer's production network (required).
	Network *netmodel.Network
	// Policies are the network policies the enforcer guards. When nil,
	// they are mined from the baseline with config2spec-style mining.
	Policies []verify.Policy
	// Sensitive names hosts whose isolation is policy (used for mining
	// and for explicit denies in generated privilege specs).
	Sensitive map[string]bool
	// PlatformSeed makes the simulated TEE deterministic for tests; empty
	// uses a random platform secret.
	PlatformSeed string
	// SliceStrategy selects the twin's presentation slice; the default is
	// the paper's task-driven strategy.
	SliceStrategy twin.SliceStrategy
	// SliceStrategySet marks SliceStrategy as explicitly chosen (the zero
	// value is the All strategy, which is a valid choice).
	SliceStrategySet bool
	// Meter receives telemetry from the whole mediation path (reference
	// monitor, enforcer, verifier, audit trail). Nil means the no-op meter:
	// zero-config deployments pay nothing.
	Meter telemetry.Meter
}

// System is one customer deployment: production network, policies,
// ticketing, and the enclave-hosted policy enforcer.
type System struct {
	production *netmodel.Network
	policies   []verify.Policy
	sensitive  map[string]bool
	strategy   twin.SliceStrategy
	meter      telemetry.Meter

	Tickets  *ticket.System
	Enforcer *enforcer.Enforcer
	platform *enclave.Platform

	// prodMu guards reads (twin construction, snapshots) against writes
	// (commits, emergency changes) on the production network. Every writer
	// tells the enforcer before it unlocks — a commit hands over the snapshot
	// it verified, a declared MutateProduction has it derived, everyone else
	// drops it — which is what keeps the production snapshot honest.
	prodMu sync.RWMutex
	// prodConsoleEnv backs emergency-mode consoles (lazily built).
	prodConsoleEnv *console.Env
}

// NewSystem builds a deployment around a production network.
func NewSystem(opts Options) (*System, error) {
	if opts.Network == nil {
		return nil, fmt.Errorf("core: nil production network")
	}
	if err := opts.Network.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid network: %w", err)
	}
	var platform *enclave.Platform
	var err error
	if opts.PlatformSeed != "" {
		platform = enclave.NewPlatformFromSeed(opts.PlatformSeed)
	} else if platform, err = enclave.NewPlatform(); err != nil {
		return nil, err
	}
	policies := opts.Policies
	if policies == nil {
		policies = spec.Mine(dataplane.Compute(opts.Network), opts.Network, spec.Options{
			Sensitive: opts.Sensitive,
		})
	}
	strategy := twin.SliceTaskDriven
	if opts.SliceStrategySet {
		strategy = opts.SliceStrategy
	}
	meter := opts.Meter
	if meter == nil {
		meter = telemetry.Nop()
	}
	encl := platform.Load("heimdall-enforcer-v1")
	enf := enforcer.New(encl, policies)
	enf.SetMeter(meter)
	return &System{
		production: opts.Network,
		policies:   policies,
		sensitive:  opts.Sensitive,
		strategy:   strategy,
		meter:      meter,
		Tickets:    ticket.NewSystem(),
		Enforcer:   enf,
		platform:   platform,
	}, nil
}

// Meter returns the deployment's telemetry meter (the no-op meter when
// none was configured).
func (s *System) Meter() telemetry.Meter { return s.meter }

// Production exposes the production network (the admin's view; MSP
// technicians never touch it directly).
func (s *System) Production() *netmodel.Network { return s.production }

// DeviceCount returns how many devices production holds, under the read
// lock: a rollback reassigns entries of the device map under the write lock.
func (s *System) DeviceCount() int {
	s.prodMu.RLock()
	defer s.prodMu.RUnlock()
	return len(s.production.Devices)
}

// Policies returns the guarded policy set.
func (s *System) Policies() []verify.Policy { return s.policies }

// MutateProduction applies fn to the production network under the write
// lock, serializing out-of-band mutations (fault injection, admin edits)
// against concurrent twin construction, reviews and commits, and tells the
// enforcer, behind whose back it happened. Given every device fn writes, the
// held production snapshot is derived across the write: those devices are
// cloned first and the result diffed against them
// (Enforcer.ProductionWritten). The list is a claim — a device written but
// not listed leaves a wrong snapshot held. Without one, and whenever fn
// fails (it may have partially applied), verdicts and snapshot are dropped.
func (s *System) MutateProduction(fn func(*netmodel.Network) error, devices ...string) error {
	s.prodMu.Lock()
	defer s.prodMu.Unlock()
	var pre *netmodel.Network
	if len(devices) > 0 {
		pre = s.production.CloneCOW(devices...)
	}
	if err := fn(s.production); err != nil || pre == nil {
		s.Enforcer.InvalidateReviews()
		return err
	}
	s.Enforcer.ProductionWritten(s.production, pre, devices)
	return nil
}

// Attest returns an attestation report for the enforcer, verifiable
// against the deployment's platform.
func (s *System) Attest(nonce []byte) (enclave.Report, error) {
	report := s.Enforcer.Attest(nonce)
	if err := s.platform.VerifyReport(report, report.Measurement, nonce); err != nil {
		return enclave.Report{}, err
	}
	return report, nil
}

// Engagement is one technician working one ticket inside a twin network.
type Engagement struct {
	sys    *System
	Ticket *ticket.Ticket
	Spec   *privilege.Spec
	Twin   *twin.Twin
	Slice  map[string]bool

	// emergency marks the engagement as authorized for emergency mode.
	emergency bool
	// rules memoizes Spec.RulesDigest (rulesDigest).
	rules atomic.Pointer[digestedRules]
}

// digestedRules pairs a rules digest with the rule count it was taken at.
type digestedRules struct {
	nrules int
	digest string
}

// rulesDigest is Spec.RulesDigest, computed once per rule count: rules are
// only ever appended (privilege.Spec.Approve). The memo is an atomic
// pointer as the twin's compiled spec is: a concurrent approval at worst
// costs one extra digest.
func (e *Engagement) rulesDigest() string {
	n := len(e.Spec.Rules)
	m := e.rules.Load()
	if m == nil || m.nrules != n {
		m = &digestedRules{nrules: n, digest: e.Spec.RulesDigest()}
		e.rules.Store(m)
	}
	return m.digest
}

// StartWork assigns the ticket to the technician and builds the engagement:
// the task-driven slice, the generated Privilegemsp, and the twin network.
func (s *System) StartWork(ticketID, technician string) (*Engagement, error) {
	tk := s.Tickets.Get(ticketID)
	if tk == nil {
		return nil, fmt.Errorf("core: no ticket %s", ticketID)
	}
	if err := s.Tickets.Assign(ticketID, technician); err != nil {
		return nil, err
	}
	tk = s.Tickets.Get(ticketID)

	s.prodMu.RLock()
	defer s.prodMu.RUnlock()
	snap := s.Enforcer.ProductionSnapshot(s.production)
	slice := twin.ComputeSlice(s.production, snap, s.strategy, tk.SrcHost, tk.DstHost, tk.Suspects)

	var scope, suspects, sensitive []string
	for dev := range slice {
		scope = append(scope, dev)
		if s.production.Devices[dev] != nil && s.production.Devices[dev].Kind != netmodel.Host {
			suspects = append(suspects, dev)
		}
	}
	for h := range s.sensitive {
		if !slice[h] {
			sensitive = append(sensitive, h)
		}
	}
	pspec, err := privilege.Generate(privilege.TemplateInput{
		Ticket: tk.ID, Technician: technician, Kind: tk.Kind,
		Scope: scope, Suspects: suspects, Sensitive: sensitive,
	})
	if err != nil {
		return nil, err
	}
	tw, err := twin.New(twin.Config{
		Ticket:     tk.ID,
		Technician: technician,
		Production: s.production,
		Snapshot:   snap,
		Spec:       pspec,
		Slice:      slice,
		Trail:      s.Enforcer.Trail(),
		Meter:      s.meter,
	})
	if err != nil {
		return nil, err
	}
	return &Engagement{sys: s, Ticket: tk, Spec: pspec, Twin: tw, Slice: slice}, nil
}

// Console opens a mediated console on a twin device.
func (e *Engagement) Console(device string) (*twin.Session, error) {
	return e.Twin.OpenConsole(device)
}

// RunScript executes a prepared command list through mediated consoles and
// returns each command's output. It stops at the first error.
func (e *Engagement) RunScript(script []ticket.FixCommand) ([]string, error) {
	outputs := make([]string, 0, len(script))
	sessions := make(map[string]*twin.Session)
	for _, cmd := range script {
		sess, ok := sessions[cmd.Device]
		if !ok {
			var err error
			sess, err = e.Twin.OpenConsole(cmd.Device)
			if err != nil {
				return outputs, err
			}
			sessions[cmd.Device] = sess
		}
		out, err := sess.Exec(cmd.Line)
		if err != nil {
			return outputs, fmt.Errorf("core: %s on %s: %w", cmd.Line, cmd.Device, err)
		}
		outputs = append(outputs, out)
	}
	return outputs, nil
}

// SymptomResolved checks the ticket's flow inside the twin.
func (e *Engagement) SymptomResolved() (bool, error) {
	tk := e.Ticket
	if tk.SrcHost == "" || tk.DstHost == "" {
		return false, fmt.Errorf("core: ticket %s has no symptom flow", tk.ID)
	}
	tr, err := e.Twin.Snapshot().Reach(tk.SrcHost, tk.DstHost, tk.Proto, tk.DstPort)
	if err != nil {
		return false, err
	}
	return tr.Delivered(), nil
}

// RequestEscalation files a privilege escalation for admin review.
func (e *Engagement) RequestEscalation(rule privilege.Rule, justification string) *privilege.Escalation {
	esc := e.Spec.RequestEscalation(rule, justification)
	e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindEscalation,
		fmt.Sprintf("requested %s: %s", rule, justification), true)
	return esc
}

// ApproveEscalation applies an escalation after admin review.
func (e *Engagement) ApproveEscalation(esc *privilege.Escalation) error {
	if err := e.Spec.Approve(esc); err != nil {
		return err
	}
	e.sys.Enforcer.Trail().Append(e.Ticket.ID, e.Ticket.Assignee, audit.KindEscalation,
		"approved "+esc.Rule.String(), true)
	return nil
}

// Drifted reports whether the production network has changed since this
// engagement's twin was instantiated (e.g. another ticket committed, or an
// emergency fix landed). The enforcer always verifies against *current*
// production at commit time, so drift is safe — but a drifted twin may no
// longer reproduce production behaviour, and the technician should know.
func (e *Engagement) Drifted() bool {
	e.sys.prodMu.RLock()
	defer e.sys.prodMu.RUnlock()
	for _, name := range e.sys.production.DeviceNames() {
		base := e.Twin.Baseline().Devices[name]
		if base == nil {
			return true
		}
		// The twin baseline is sanitized; compare through the same lens.
		if len(config.DiffDevice(config.Sanitize(e.sys.production.Devices[name]), base)) != 0 {
			return true
		}
	}
	return false
}

// Review runs the enforcer's verification of the twin's current changes
// against live production — privilege check plus shadow-snapshot policy
// verification — without applying anything. The service layer calls this
// from its bounded verify pool; technicians use it as a pre-flight before
// Commit.
func (e *Engagement) Review() (*enforcer.Decision, error) {
	d, _, err := e.ReviewCached()
	return d, err
}

// ReviewCached is Review plus the enforcer's cache-hit indicator: true
// means the verdict was replayed from the content-addressed review cache
// rather than recomputed (always false when the cache is disabled).
func (e *Engagement) ReviewCached() (*enforcer.Decision, bool, error) {
	return e.ReviewChanges(e.Twin.Changes())
}

// ReviewChanges is ReviewCached for a change set the caller already
// extracted with Twin.Changes.
func (e *Engagement) ReviewChanges(changes []config.Change) (*enforcer.Decision, bool, error) {
	return e.ReviewKeyed(changes, e.ReviewKey(changes))
}

// ReviewKeyed is ReviewChanges for a caller that already took the set's
// ReviewKey (the service layer addresses its coalescing slot with it), so
// the enforcer digests neither the rules nor the change set again.
func (e *Engagement) ReviewKeyed(changes []config.Change, key string) (*enforcer.Decision, bool, error) {
	if len(changes) == 0 {
		return nil, false, fmt.Errorf("core: nothing to review for %s", e.Ticket.ID)
	}
	e.sys.prodMu.RLock()
	defer e.sys.prodMu.RUnlock()
	d, hit := e.sys.Enforcer.ReviewKeyed(e.sys.production, changes, e.Spec, key)
	return d, hit, nil
}

// ReviewKey returns the content address a review of the given pending
// changes would occupy right now (enforcer.ReviewKey). Concurrent
// submissions with equal keys would receive the same verdict, which is
// what the service layer's request coalescing keys on.
func (e *Engagement) ReviewKey(changes []config.Change) string {
	return e.sys.Enforcer.ReviewKey(changes, e.rulesDigest())
}

// Commit extracts the twin's changes, has the enforcer verify and schedule
// them, applies them to production, and moves the ticket to Resolved (or
// Rejected when the enforcer refuses).
func (e *Engagement) Commit() (*enforcer.Decision, error) {
	return e.CommitChanges(e.Twin.Changes())
}

// CommitChanges is Commit for a change set the caller already extracted
// with Twin.Changes.
func (e *Engagement) CommitChanges(changes []config.Change) (*enforcer.Decision, error) {
	if len(changes) == 0 {
		return nil, fmt.Errorf("core: nothing to commit for %s", e.Ticket.ID)
	}
	e.sys.prodMu.Lock()
	decision, err := e.sys.Enforcer.Commit(e.sys.production, changes, e.Spec)
	e.sys.prodMu.Unlock()
	if err != nil {
		_ = e.sys.Tickets.AddNote(e.Ticket.ID, "enforcer rejected commit: "+decision.Reason())
		if terr := e.sys.Tickets.Transition(e.Ticket.ID, ticket.Rejected); terr != nil {
			return decision, fmt.Errorf("%w (and ticket transition failed: %v)", err, terr)
		}
		return decision, err
	}
	_ = e.sys.Tickets.AddNote(e.Ticket.ID,
		fmt.Sprintf("enforcer accepted %d changes (%d policies verified)", len(changes), decision.Checked))
	if err := e.sys.Tickets.Transition(e.Ticket.ID, ticket.Resolved); err != nil {
		return decision, err
	}
	return decision, nil
}
