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

	"heimdall/internal/audit"
	"heimdall/internal/config"
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
	// Network is the customer's production network (required). The
	// deployment's enforcer owns it from then on: only it writes the
	// network, and everyone reads it through Enforcer.View.
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
	// Meter receives telemetry from the whole mediation path (reference
	// monitor, enforcer, verifier, audit trail). Nil means the no-op meter:
	// zero-config deployments pay nothing.
	Meter telemetry.Meter
}

// System is one customer deployment: policies, ticketing, and the
// enclave-hosted policy enforcer, which owns the production network: it is
// its only writer, and every reader reads a view of it (Enforcer.View).
type System struct {
	policies  []verify.Policy
	sensitive map[string]bool
	// twinMetrics are every twin's instruments, looked up once.
	twinMetrics *twin.Instruments

	Tickets  *ticket.System
	Enforcer *enforcer.Enforcer
	platform *enclave.Platform

	// production is kept for Production alone.
	production *netmodel.Network
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
	meter := opts.Meter
	if meter == nil {
		meter = telemetry.Nop()
	}
	encl := platform.Load("heimdall-enforcer-v1")
	enf := enforcer.New(encl, policies, opts.Network)
	enf.SetMeter(meter)
	return &System{
		production:  opts.Network,
		policies:    policies,
		sensitive:   opts.Sensitive,
		twinMetrics: twin.NewInstruments(meter),
		Tickets:     ticket.NewSystem(),
		Enforcer:    enf,
		platform:    platform,
	}, nil
}

// Production is the live production network, for benchmark/, which hands
// it back to the enforcer's ReviewCached and Commit and reads it. Only the
// enforcer writes it. ROADMAP item 1 deletes it.
func (s *System) Production() *netmodel.Network { return s.production }

// DeviceCount returns how many devices production holds.
func (s *System) DeviceCount() int {
	view, _ := s.Enforcer.View(false)
	return len(view.Devices)
}

// Policies returns the guarded policy set.
func (s *System) Policies() []verify.Policy { return s.policies }

// MutateProduction is Enforcer.Inject for benchmark/, which hands in a
// writer: fn writes a deep clone of production, and what it changed there
// (config.DiffNetwork) lands. ROADMAP item 1 deletes it.
func (s *System) MutateProduction(fn func(*netmodel.Network) error) error {
	return s.Enforcer.Inject("mutate-production", func(prod *netmodel.Network) ([]config.Change, error) {
		n := prod.Clone()
		if err := fn(n); err != nil {
			return nil, err
		}
		return config.DiffNetwork(prod, n), nil
	})
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

	// The view is this open's own copy, its devices sanitized: the twin
	// takes it over.
	prod, snap := s.Enforcer.SanitizedView()
	slice := twin.ComputeSlice(prod, snap, twin.SliceTaskDriven, tk.SrcHost, tk.DstHost, tk.Suspects)

	scope := make([]string, 0, len(slice))
	var suspects, sensitive []string
	for dev := range slice {
		scope = append(scope, dev)
		if d := prod.Devices[dev]; d != nil && d.Kind != netmodel.Host {
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
	tw, err := twin.FromView(twin.Config{
		Ticket:      tk.ID,
		Technician:  technician,
		Production:  prod,
		Snapshot:    snap,
		Spec:        pspec,
		Slice:       slice,
		Trail:       s.Enforcer.Trail(),
		Instruments: s.twinMetrics,
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

// ReviewCached runs the enforcer's verification of the twin's current
// changes against live production — privilege check plus shadow-snapshot
// policy verification — without applying anything, and reports whether the
// verdict was replayed from the content-addressed review cache rather than
// recomputed. Technicians use it as a pre-flight before Commit.
func (e *Engagement) ReviewCached() (*enforcer.Decision, bool, error) {
	return e.ReviewChanges(e.Twin.Changes())
}

// ReviewChanges is ReviewCached for a change set the caller already
// extracted with Twin.Changes. Its review key takes the memoized rules
// digest, so only a review after an approval digests the rules again. A
// twin with a Mismatch is refused before the enforcer sees it.
func (e *Engagement) ReviewChanges(changes []config.Change) (*enforcer.Decision, bool, error) {
	if len(changes) == 0 {
		return nil, false, fmt.Errorf("core: nothing to review for %s", e.Ticket.ID)
	}
	if err := e.Twin.Mismatch(); err != nil {
		return nil, false, err
	}
	d, hit := e.sys.Enforcer.Review(changes, e.Spec, e.Twin.RulesDigest())
	return d, hit, nil
}

// Commit extracts the twin's changes, has the enforcer verify and schedule
// them, applies them to production, and moves the ticket to Resolved (or
// Rejected when the enforcer refuses).
func (e *Engagement) Commit() (*enforcer.Decision, error) {
	return e.CommitChanges(e.Twin.Changes())
}

// CommitChanges is Commit for a change set the caller already extracted
// with Twin.Changes, refused as ReviewChanges refuses it.
func (e *Engagement) CommitChanges(changes []config.Change) (*enforcer.Decision, error) {
	if len(changes) == 0 {
		return nil, fmt.Errorf("core: nothing to commit for %s", e.Ticket.ID)
	}
	if err := e.Twin.Mismatch(); err != nil {
		return nil, err
	}
	decision, err := e.sys.Enforcer.Submit(enforcer.CommitRequest{Changes: changes, Spec: e.Spec, RulesDigest: e.Twin.RulesDigest()})
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
