// Package service is Heimdall's multi-tenant MSP layer: one long-running
// heimdalld process hosting many customer networks at once. The paper's
// single-network deployment (one twin, one enforcer, one trail) becomes
// the per-tenant unit; the service adds what an MSP-scale control plane
// needs around it:
//
//   - a tenant/session registry with full session lifecycle (create,
//     attach via token, idle-expire via a pluggable clock, explicit close);
//   - a bounded worker pool with backpressure for the expensive
//     verify/commit path, so N tenants share a fixed verification
//     capacity and overload surfaces as queue-full (HTTP 429) instead of
//     unbounded goroutines piling up behind the enforcer;
//   - per-tenant isolation: every tenant gets an independent scenario
//     copy, ticket system, policy enforcer and audit trail — one
//     compromised or noisy tenant can never observe or mutate another's
//     state (the zero-trust policy-enforcement-point shape, applied to
//     network mediation).
//
// The HTTP JSON API over this layer lives in http.go.
package service

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/core"
	"heimdall/internal/enforcer"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// Sentinel errors, mapped onto HTTP statuses by the API layer.
var (
	ErrNoTenant       = errors.New("service: no such tenant")
	ErrTenantExists   = errors.New("service: tenant already exists")
	ErrNoScenario     = errors.New("service: unknown scenario")
	ErrNoSession      = errors.New("service: no such session")
	ErrBadToken       = errors.New("service: attach token mismatch")
	ErrSessionExpired = errors.New("service: session expired")
	ErrSessionClosed  = errors.New("service: session closed")
	ErrQueueFull      = errors.New("service: verify queue full")
	ErrPoolClosed     = errors.New("service: verify pool closed")
)

// ScenarioFunc builds a fresh scenario. Every call must return an
// independent value: the service hands one to each tenant and tenants
// mutate their networks freely.
type ScenarioFunc func() *scenarios.Scenario

// Config tunes a Service.
type Config struct {
	// Catalog maps scenario names to constructors. Nil installs the
	// built-in scenarios (enterprise, university, provider, fattree, wan).
	Catalog map[string]ScenarioFunc
	// VerifyWorkers bounds concurrent enforcer reviews/commits across all
	// tenants (default GOMAXPROCS).
	VerifyWorkers int
	// VerifyQueue bounds reviews waiting for a worker *per tenant* (the
	// pool schedules round-robin across per-tenant queues); a full tenant
	// queue fails fast with ErrQueueFull (default 64).
	VerifyQueue int
	// IdleTimeout expires sessions with no command activity (default
	// 30m). The sweep runs from SweepIdle (heimdalld drives it on a
	// timer; tests call it directly under a manual clock).
	IdleTimeout time.Duration
	// Clock is the lifecycle time source (default time.Now; tests pass a
	// manually advanced one).
	Clock func() time.Time
	// Meter receives service metrics and is threaded through every
	// tenant's mediation path. Pass a *telemetry.Registry to serve
	// /metrics; nil means the no-op meter.
	Meter telemetry.Meter
	// PlatformSeed, when set, derives each tenant's enclave platform
	// deterministically (seed + tenant ID) for reproducible tests.
	PlatformSeed string
}

// Service hosts many customer networks concurrently.
type Service struct {
	catalog map[string]ScenarioFunc
	reg     *registry
	pool    *Pool
	clock   func() time.Time
	idle    time.Duration
	meter   telemetry.Meter
	seed    string
	// reviewHits is heimdall_service_review_cache_hits_total, looked up
	// once.
	reviewHits telemetry.Counter
}

// BuiltinCatalog returns the built-in evaluation scenarios: the three
// hand-built Table 1 networks plus two generated ones at their smallest
// tier (a k=4 fat-tree datacenter and a 4-site WAN), so multi-tenant runs
// can mix hand-built and generated topologies without custom wiring.
func BuiltinCatalog() map[string]ScenarioFunc {
	return map[string]ScenarioFunc{
		"enterprise": scenarios.Enterprise,
		"university": scenarios.University,
		"provider":   scenarios.Provider,
		"fattree": func() *scenarios.Scenario {
			return generate.FatTree(generate.FatTreeParams{K: 4})
		},
		"wan": func() *scenarios.Scenario {
			return generate.WAN(generate.WANParams{Sites: 4})
		},
	}
}

// New assembles a service from the config's defaults.
func New(cfg Config) *Service {
	if cfg.Catalog == nil {
		cfg.Catalog = BuiltinCatalog()
	}
	if cfg.VerifyWorkers <= 0 {
		cfg.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.VerifyQueue <= 0 {
		cfg.VerifyQueue = 64
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Meter == nil {
		cfg.Meter = telemetry.Nop()
	}
	// Touch the hot-path counters once so /metrics exposes them at zero
	// from the first scrape (the registry only dumps metrics it has seen).
	cfg.Meter.Counter("heimdall_service_backpressure_total")
	cfg.Meter.Counter("heimdall_enforcer_prod_snapshot_hits_total")
	cfg.Meter.Counter("heimdall_enforcer_prod_snapshot_misses_total")
	cfg.Meter.Counter("heimdall_enforcer_prod_snapshot_derived_total")
	for _, from := range []string{"review", "production", "computed"} {
		cfg.Meter.Counter("heimdall_enforcer_commit_handover_total", telemetry.L("from", from))
	}
	return &Service{
		catalog: cfg.Catalog,
		reg:     newRegistry(),
		pool:    NewPool(cfg.VerifyWorkers, cfg.VerifyQueue, cfg.Meter),
		clock:   cfg.Clock,
		idle:    cfg.IdleTimeout,
		meter:   cfg.Meter,
		seed:    cfg.PlatformSeed,

		reviewHits: cfg.Meter.Counter("heimdall_service_review_cache_hits_total"),
	}
}

// Close stops the verify pool. Sessions need no teardown beyond it.
func (s *Service) Close() { s.pool.Close() }

// TenantInfo is the API-facing view of a tenant.
type TenantInfo struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Sessions int    `json:"sessions"`
	Tickets  int    `json:"tickets"`
	Devices  int    `json:"devices"`
}

// CreateTenant onboards a customer network: a fresh scenario instance
// from the catalog (every tenant owns an independent copy) wrapped in a
// full Heimdall deployment.
func (s *Service) CreateTenant(id, scenario string) (TenantInfo, error) {
	if id == "" {
		return TenantInfo{}, fmt.Errorf("service: empty tenant id")
	}
	build, ok := s.catalog[scenario]
	if !ok {
		return TenantInfo{}, fmt.Errorf("%w: %s", ErrNoScenario, scenario)
	}
	// Constructors build from scratch, but Clone anyway: a catalog entry
	// that memoizes (or a caller-supplied closure over one Scenario) must
	// not leak shared structures between tenants.
	scen := build().Clone()
	opts := core.Options{
		Network:   scen.Network,
		Policies:  scen.Policies,
		Sensitive: scen.Sensitive,
		Meter:     s.meter,
	}
	if s.seed != "" {
		opts.PlatformSeed = s.seed + "/" + id
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return TenantInfo{}, err
	}
	sys.Tickets.SetClock(s.clock)
	t := &Tenant{
		ID:       id,
		Scenario: scenario,
		sys:      sys,
		issues:   scen.Issues,
		sessions: make(map[string]*Session),

		mediation: s.meter.Histogram("heimdall_service_mediation_seconds", telemetry.LatencyBuckets,
			telemetry.L("tenant", id)),
		commands: s.meter.Counter("heimdall_service_commands_total", telemetry.L("tenant", id)),
		denied:   s.meter.Counter("heimdall_service_denied_total", telemetry.L("tenant", id)),
		commits:  s.meter.Counter("heimdall_service_commits_total", telemetry.L("tenant", id)),
		tickets:  s.meter.Counter("heimdall_service_tickets_total", telemetry.L("tenant", id)),
		opened:   s.meter.Counter("heimdall_service_sessions_total", telemetry.L("tenant", id)),
		expired:  s.meter.Counter("heimdall_service_sessions_expired_total", telemetry.L("tenant", id)),
		active:   s.meter.Gauge("heimdall_service_sessions_active", telemetry.L("tenant", id)),
	}
	if err := s.reg.add(t); err != nil {
		return TenantInfo{}, err
	}
	s.meter.Gauge("heimdall_service_tenants").Set(float64(s.reg.count()))
	return s.tenantInfo(t), nil
}

func (s *Service) tenantInfo(t *Tenant) TenantInfo {
	t.mu.Lock()
	sessions := len(t.sessions)
	t.mu.Unlock()
	return TenantInfo{
		ID:       t.ID,
		Scenario: t.Scenario,
		Sessions: sessions,
		Tickets:  len(t.sys.Tickets.List()),
		Devices:  t.sys.DeviceCount(),
	}
}

// Tenants lists every tenant sorted by ID.
func (s *Service) Tenants() []TenantInfo {
	ts := s.reg.all()
	out := make([]TenantInfo, len(ts))
	for i, t := range ts {
		out[i] = s.tenantInfo(t)
	}
	return out
}

// Tenant resolves one tenant.
func (s *Service) Tenant(id string) (*Tenant, error) { return s.reg.get(id) }

// CreateTicket files a ticket with the tenant's ticketing system.
func (s *Service) CreateTicket(tenant string, tk ticket.Ticket) (*ticket.Ticket, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return nil, err
	}
	created := t.sys.Tickets.Create(tk)
	t.tickets.Inc()
	return created, nil
}

// Tickets lists the tenant's tickets.
func (s *Service) Tickets(tenant string) ([]ticket.Ticket, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return nil, err
	}
	return t.sys.Tickets.List(), nil
}

// InjectIssue injects one of the tenant scenario's scripted issues into
// the tenant's production network and files the matching ticket — the
// service-level analogue of the evaluation harness (and what the load
// acceptance test and the CI smoke drive).
func (s *Service) InjectIssue(tenant, issue, reporter string) (*ticket.Ticket, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return nil, err
	}
	var is *scenarios.Issue
	for i := range t.issues {
		if t.issues[i].Name == issue {
			is = &t.issues[i]
		}
	}
	if is == nil {
		return nil, fmt.Errorf("service: no issue %q in scenario %s", issue, t.Scenario)
	}
	if err := t.sys.Enforcer.Inject(is.Fault.Name, is.Fault.Changes); err != nil {
		return nil, err
	}
	return s.CreateTicket(tenant, ticket.Ticket{
		Summary: is.Fault.Description, Kind: is.Fault.Kind,
		SrcHost: is.SrcHost, DstHost: is.DstHost,
		Proto: is.Proto, DstPort: is.DstPort,
		Suspects:  []string{is.Fault.RootCause},
		CreatedBy: reporter,
	})
}

// CreateSession assigns the ticket to the technician and builds the twin
// session. The returned Info carries the attach token — the only time
// the service reveals it.
func (s *Service) CreateSession(tenant, technician, ticketID string) (Info, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return Info{}, err
	}
	eng, err := t.sys.StartWork(ticketID, technician)
	if err != nil {
		return Info{}, err
	}
	token, err := newToken()
	if err != nil {
		return Info{}, err
	}
	now := s.clock()
	t.mu.Lock()
	t.seq++
	sess := &Session{
		ID:         fmt.Sprintf("S-%04d", t.seq),
		Technician: technician,
		TicketID:   ticketID,
		token:      token,
		tenant:     t,
		eng:        eng,
		consoles:   make(map[string]*twin.Session),
		state:      SessionActive,
		createdAt:  now,
		lastActive: now,
	}
	t.sessions[sess.ID] = sess
	t.mu.Unlock()

	t.opened.Inc()
	t.active.Add(1)
	info := sess.snapshotInfo()
	info.Token = token
	info.Slice = eng.Twin.VisibleDevices()
	return info, nil
}

func (sess *Session) snapshotInfo() Info {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.infoLocked()
}

// newToken mints a 128-bit random attach token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// lookup resolves (tenant, session) and authenticates the token.
func (s *Service) lookup(tenant, session, token string) (*Session, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	sess, ok := t.sessions[session]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSession, tenant, session)
	}
	if subtle.ConstantTimeCompare([]byte(sess.token), []byte(token)) != 1 {
		s.meter.Counter("heimdall_service_auth_failures_total", telemetry.L("tenant", tenant)).Inc()
		return nil, fmt.Errorf("%w: %s/%s", ErrBadToken, tenant, session)
	}
	return sess, nil
}

// Attach re-validates a (session, token) pair — how a technician's
// client resumes an existing session — and returns its current state.
func (s *Service) Attach(tenant, session, token string) (Info, error) {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return Info{}, err
	}
	sess.mu.Lock()
	info := sess.infoLocked()
	// Ended sessions have released their twin; attach still reports the
	// state, just without a presentation slice.
	if sess.eng != nil {
		info.Slice = sess.eng.Twin.VisibleDevices()
	}
	sess.mu.Unlock()
	return info, nil
}

// Sessions lists the tenant's sessions sorted by ID (tokens withheld).
func (s *Service) Sessions(tenant string) ([]Info, error) {
	t, err := s.reg.get(tenant)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	sessions := make([]*Session, 0, len(t.sessions))
	for _, sess := range t.sessions {
		sessions = append(sessions, sess)
	}
	t.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	out := make([]Info, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.snapshotInfo()
	}
	return out, nil
}

// checkLive enforces lifecycle under sess.mu: closed and expired
// sessions deny everything, and a session idle past the timeout expires
// lazily right here (the sweeper just makes reclamation prompt).
func (s *Service) checkLive(sess *Session, now time.Time) error {
	switch sess.state {
	case SessionClosed:
		return fmt.Errorf("%w: %s/%s", ErrSessionClosed, sess.tenant.ID, sess.ID)
	case SessionExpired:
		return fmt.Errorf("%w: %s/%s", ErrSessionExpired, sess.tenant.ID, sess.ID)
	}
	if now.Sub(sess.lastActive) > s.idle {
		s.expireLocked(sess, now)
		return fmt.Errorf("%w: %s/%s", ErrSessionExpired, sess.tenant.ID, sess.ID)
	}
	return nil
}

// expireLocked transitions an active session to expired (caller holds
// sess.mu) and lands the KindSession audit record.
func (s *Service) expireLocked(sess *Session, now time.Time) {
	sess.state = SessionExpired
	sess.endedAt = now
	t := sess.tenant
	t.sys.Enforcer.Trail().Append(sess.TicketID, sess.Technician, audit.KindSession,
		fmt.Sprintf("session %s expired (idle %s)", sess.ID, now.Sub(sess.lastActive).Round(time.Second)), false)
	t.expired.Inc()
	t.active.Add(-1)
	releaseLocked(sess)
}

// releaseLocked drops the session's engagement (a full twin copy of the
// tenant network) and console cache once the session can no longer run
// commands, so ended sessions cost a map entry, not a network copy.
func releaseLocked(sess *Session) {
	sess.eng = nil
	sess.consoles = nil
}

// Exec runs one mediated command in the session's twin. Denied commands
// return twin.ErrDenied (HTTP 403); expired/closed sessions are refused
// and audited.
func (s *Service) Exec(tenant, session, token, device, line string) (string, error) {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return "", err
	}
	now := s.clock()
	sess.mu.Lock()
	if err := s.checkLive(sess, now); err != nil {
		trail := sess.tenant.sys.Enforcer.Trail()
		trail.Append(sess.TicketID, sess.Technician, audit.KindSession,
			fmt.Sprintf("deny exec on %s: session %s %s", device, sess.ID, sess.state), false)
		sess.mu.Unlock()
		return "", err
	}
	sess.lastActive = now
	sess.commands++
	con, ok := sess.consoles[device]
	if !ok {
		con, err = sess.eng.Console(device)
		if err != nil {
			sess.mu.Unlock()
			return "", err
		}
		sess.consoles[device] = con
	}
	sess.mu.Unlock()

	start := time.Now()
	out, err := con.Exec(line)
	t := sess.tenant
	t.mediation.ObserveDuration(time.Since(start))
	t.commands.Inc()
	if err != nil {
		var denied *twin.ErrDenied
		if errors.As(err, &denied) {
			t.denied.Inc()
		}
		return "", err
	}
	return out, nil
}

// PrivilegeInfo is the API view of a session's Privilegemsp.
type PrivilegeInfo struct {
	Ticket     string   `json:"ticket"`
	Technician string   `json:"technician"`
	Rules      []string `json:"rules"`
	Slice      []string `json:"slice"`
}

// Privileges reports the session's privilege specification and
// presentation slice — what the technician may do and see.
func (s *Service) Privileges(tenant, session, token string) (PrivilegeInfo, error) {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return PrivilegeInfo{}, err
	}
	eng, err := s.touch(sess)
	if err != nil {
		return PrivilegeInfo{}, err
	}
	spec := eng.Spec
	info := PrivilegeInfo{
		Ticket:     spec.Ticket,
		Technician: spec.Technician,
		Slice:      eng.Twin.VisibleDevices(),
	}
	for _, r := range spec.Rules {
		info.Rules = append(info.Rules, r.String())
	}
	return info, nil
}

// ReviewResult is the API view of an enforcer decision.
type ReviewResult struct {
	Accepted   bool     `json:"accepted"`
	Reason     string   `json:"reason"`
	Checked    int      `json:"checked"`
	Changes    int      `json:"changes"`
	Violations []string `json:"violations,omitempty"`
	Committed  bool     `json:"committed"`
	Ticket     string   `json:"ticket,omitempty"`
	Status     string   `json:"status,omitempty"`
}

// Review runs the enforcer's verification of the session's current twin
// changes through the bounded pool, without touching production.
// Overload returns ErrQueueFull.
//
// A repeat of an already-verified change set (sessions replaying the same
// scripted ticket, concurrently or not) is answered from the enforcer's
// verdict cache: the result is byte-identical to a fresh review, and every
// answered request lands its own entry on the audit trail, under its own
// ticket and technician.
func (s *Service) Review(tenant, session, token string) (ReviewResult, error) {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return ReviewResult{}, err
	}
	eng, err := s.touch(sess)
	if err != nil {
		return ReviewResult{}, err
	}
	var res ReviewResult
	var inner error
	err = s.pool.Do(tenant, func() {
		changes := eng.Twin.Changes()
		d, hit, rerr := eng.ReviewChanges(changes)
		if d != nil {
			res = decisionResult(d, len(changes))
		}
		if hit {
			s.reviewHits.Inc()
		}
		inner = rerr
	})
	if err != nil {
		return ReviewResult{}, err
	}
	return res, inner
}

// Commit pushes the session's twin changes through the enforcer into the
// tenant's production network, via the bounded pool.
func (s *Service) Commit(tenant, session, token string) (ReviewResult, error) {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return ReviewResult{}, err
	}
	eng, err := s.touch(sess)
	if err != nil {
		return ReviewResult{}, err
	}
	var res ReviewResult
	var inner error
	err = s.pool.Do(tenant, func() {
		changes := eng.Twin.Changes()
		d, cerr := eng.CommitChanges(changes)
		if d != nil {
			res = decisionResult(d, len(changes))
		}
		inner = cerr
	})
	if err != nil {
		return ReviewResult{}, err
	}
	if inner == nil {
		res.Committed = true
		sess.tenant.commits.Inc()
	}
	res.Ticket = sess.TicketID
	if tk := sess.tenant.sys.Tickets.Get(sess.TicketID); tk != nil {
		res.Status = tk.Status.String()
	}
	return res, inner
}

// decisionResult renders a decision on a change set of the given size.
func decisionResult(d *enforcer.Decision, changes int) ReviewResult {
	res := ReviewResult{Accepted: d.Accepted, Reason: d.Reason(), Checked: d.Checked, Changes: changes}
	for _, v := range d.Violations {
		res.Violations = append(res.Violations, v.String())
	}
	return res
}

// touch stamps activity on the session (non-Exec API calls keep a
// session alive too) and hands back its engagement. The returned pointer
// stays valid even if the session expires while the caller still holds
// it — expiry only drops the session's own reference.
func (s *Service) touch(sess *Session) (*core.Engagement, error) {
	now := s.clock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := s.checkLive(sess, now); err != nil {
		return nil, err
	}
	sess.lastActive = now
	return sess.eng, nil
}

// CloseSession ends a session explicitly. Closing twice fails with
// ErrSessionClosed.
func (s *Service) CloseSession(tenant, session, token string) error {
	sess, err := s.lookup(tenant, session, token)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch sess.state {
	case SessionClosed:
		return fmt.Errorf("%w: %s/%s", ErrSessionClosed, tenant, session)
	case SessionExpired:
		// Closing an expired session is a no-op state-wise but allowed:
		// the gauge was already decremented (and the twin released) at
		// expiry.
		sess.state = SessionClosed
		return nil
	}
	sess.state = SessionClosed
	sess.endedAt = s.clock()
	t := sess.tenant
	t.sys.Enforcer.Trail().Append(sess.TicketID, sess.Technician, audit.KindSession,
		fmt.Sprintf("session %s closed (%d commands)", sess.ID, sess.commands), true)
	t.active.Add(-1)
	releaseLocked(sess)
	return nil
}

// SweepIdle expires every active session idle past the timeout and
// returns how many it reclaimed. Sessions that ended (closed or expired)
// more than one idle period ago are dropped from the tenant's session
// map entirely: their state stays queryable for that grace window, then
// the registry forgets them so a long-running daemon's session maps
// don't grow without bound as sessions churn. heimdalld runs this on a
// timer; tests drive it with a manual clock.
func (s *Service) SweepIdle() int {
	now := s.clock()
	n := 0
	for _, t := range s.reg.all() {
		t.mu.Lock()
		sessions := make([]*Session, 0, len(t.sessions))
		for _, sess := range t.sessions {
			sessions = append(sessions, sess)
		}
		t.mu.Unlock()
		var reap []string
		for _, sess := range sessions {
			sess.mu.Lock()
			if sess.state == SessionActive && now.Sub(sess.lastActive) > s.idle {
				s.expireLocked(sess, now)
				n++
			} else if sess.state != SessionActive && now.Sub(sess.endedAt) > s.idle {
				reap = append(reap, sess.ID)
			}
			sess.mu.Unlock()
		}
		if len(reap) > 0 {
			t.mu.Lock()
			for _, id := range reap {
				delete(t.sessions, id)
			}
			t.mu.Unlock()
		}
	}
	return n
}
