package service

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"heimdall/internal/core"
	"heimdall/internal/scenarios"
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

// Tenant is one customer network hosted by the service: a private
// scenario copy, a full Heimdall deployment (ticketing, enforcer, audit
// trail) and the technician sessions currently working its tickets.
type Tenant struct {
	ID       string
	Scenario string
	sys      *core.System
	scen     *scenarios.Scenario

	mu       sync.Mutex
	seq      int
	sessions map[string]*Session
}

// System exposes the tenant's Heimdall deployment (tests and the load
// generator reach through it for the ticket system and audit trail).
func (t *Tenant) System() *core.System { return t.sys }

// ScenarioData exposes the tenant's private scenario copy.
func (t *Tenant) ScenarioData() *scenarios.Scenario { return t.scen }

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
	mu         sync.Mutex
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

// Engagement exposes the underlying core engagement (tests reach through
// it for the twin and privilege spec). It is nil
// once the session has expired or closed: the engagement — a full twin
// copy of the tenant network — is released at end-of-life so a
// long-running daemon's memory tracks live sessions, not historic ones.
func (s *Session) Engagement() *core.Engagement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
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

// registry is the sharded tenant map. Tenant lookup is the hottest
// metadata path of the service (every mediated command resolves its
// tenant first), so tenants spread over independently locked shards:
// one tenant's create/delete churn never contends with another shard's
// lookups.
type registry struct {
	shards []regShard
}

type regShard struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

func newRegistry(shards int) *registry {
	if shards < 1 {
		shards = 1
	}
	r := &registry{shards: make([]regShard, shards)}
	for i := range r.shards {
		r.shards[i].tenants = make(map[string]*Tenant)
	}
	return r
}

// shardIndex maps a tenant ID onto its shard (FNV-1a, like the flow
// cache's key hashing: cheap and well distributed for short IDs).
func (r *registry) shardIndex(tenant string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(r.shards)))
}

func (r *registry) shard(tenant string) *regShard {
	return &r.shards[r.shardIndex(tenant)]
}

// add registers a tenant; it fails if the ID is taken.
func (r *registry) add(t *Tenant) error {
	s := r.shard(t.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[t.ID]; ok {
		return fmt.Errorf("%w: %s", ErrTenantExists, t.ID)
	}
	s.tenants[t.ID] = t
	return nil
}

// get resolves a tenant, or ErrNoTenant.
func (r *registry) get(id string) (*Tenant, error) {
	s := r.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, id)
	}
	return t, nil
}

// all returns every tenant sorted by ID.
func (r *registry) all() []*Tenant {
	var out []*Tenant
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, t := range s.tenants {
			out = append(out, t)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// count returns the number of tenants.
func (r *registry) count() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.tenants)
		s.mu.RUnlock()
	}
	return n
}
