package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"heimdall/internal/core"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/twin"
)

// SessionState is the lifecycle state of a technician session.
type SessionState int

const (
	// SessionActive means the session accepts mediated commands.
	SessionActive SessionState = iota
	// SessionExpired means the idle sweeper reclaimed the session; every
	// further command is denied and audited.
	SessionExpired
	// SessionClosed means the technician (or an admin) closed it.
	SessionClosed
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case SessionActive:
		return "active"
	case SessionExpired:
		return "expired"
	case SessionClosed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// Tenant is one customer network hosted by the service: a full Heimdall
// deployment (ticketing, enforcer, audit trail) around a private scenario
// copy, the scenario's issues, and the technician sessions currently
// working its tickets.
type Tenant struct {
	ID       string
	Scenario string
	sys      *core.System
	issues   []scenarios.Issue

	// The tenant's per-line metrics, its commit, ticket and session
	// counters and its active-session gauge, looked up when it is created.
	mediation                 telemetry.Histogram
	commands, denied, commits telemetry.Counter
	tickets, opened, expired  telemetry.Counter
	active                    telemetry.Gauge

	mu       sync.Mutex
	seq      int
	sessions map[string]*Session
}

// System exposes the tenant's Heimdall deployment (tests and the load
// generator reach through it for the ticket system and audit trail).
func (t *Tenant) System() *core.System { return t.sys }

// ScenarioData exposes the tenant's scenario: its name and issues. Its
// network is the enforcer's (Enforcer.View).
func (t *Tenant) ScenarioData() *scenarios.Scenario {
	return &scenarios.Scenario{Name: t.Scenario, Issues: t.issues}
}

// Session is one technician twin session under a tenant, reachable over
// the API by (tenant, session id, attach token).
type Session struct {
	ID         string
	Technician string
	TicketID   string
	token      string

	tenant *Tenant

	// mu serializes API-level access to the session (console cache,
	// lifecycle state, idle stamp). The twin below has its own lock.
	mu sync.Mutex
	// eng is nil once the session has expired or closed: the engagement
	// and its twin are released at end-of-life so a long-running daemon's
	// memory tracks live sessions, not historic ones.
	eng        *core.Engagement
	consoles   map[string]*twin.Session
	state      SessionState
	createdAt  time.Time
	lastActive time.Time
	// endedAt is when the session left the active state; the sweeper
	// reaps ended sessions after a grace period.
	endedAt  time.Time
	commands int
}

// Info is the API-facing view of a session.
type Info struct {
	Tenant     string    `json:"tenant"`
	Session    string    `json:"session"`
	Technician string    `json:"technician"`
	Ticket     string    `json:"ticket"`
	State      string    `json:"state"`
	Created    time.Time `json:"created"`
	LastActive time.Time `json:"lastActive"`
	Commands   int       `json:"commands"`
	Slice      []string  `json:"slice,omitempty"`
	// Token is only populated on session creation.
	Token string `json:"token,omitempty"`
}

func (s *Session) infoLocked() Info {
	return Info{
		Tenant:     s.tenant.ID,
		Session:    s.ID,
		Technician: s.Technician,
		Ticket:     s.TicketID,
		State:      s.state.String(),
		Created:    s.createdAt,
		LastActive: s.lastActive,
		Commands:   s.commands,
	}
}

// registry is the tenant map. A lookup is one read lock in front of a
// request that costs far more (every mediated command resolves its tenant
// first), so one RWMutex serves every tenant.
type registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

func newRegistry() *registry {
	return &registry{tenants: make(map[string]*Tenant)}
}

// add registers a tenant; it fails if the ID is taken.
func (r *registry) add(t *Tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[t.ID]; ok {
		return fmt.Errorf("%w: %s", ErrTenantExists, t.ID)
	}
	r.tenants[t.ID] = t
	return nil
}

// get resolves a tenant, or ErrNoTenant.
func (r *registry) get(id string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, id)
	}
	return t, nil
}

// all returns every tenant sorted by ID.
func (r *registry) all() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// count returns the number of tenants.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}
