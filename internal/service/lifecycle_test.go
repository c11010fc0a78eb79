package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/faultinject"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
)

// virtualClock is a manually advanced time source, safe for concurrent use:
// the lifecycle tests move the service's clock past an idle timeout without
// sleeping.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newVirtualClock(start time.Time) *virtualClock { return &virtualClock{now: start} }

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// newTestService builds a service on a virtualClock with a registry
// meter, one university tenant, one injected issue and one session;
// returns everything a lifecycle test needs.
func newTestService(t *testing.T) (*Service, *virtualClock, *telemetry.Registry, Info) {
	t.Helper()
	vc := newVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	svc := New(Config{
		Clock:        vc.Now,
		IdleTimeout:  10 * time.Minute,
		Meter:        reg,
		PlatformSeed: "lifecycle",
	})
	t.Cleanup(svc.Close)
	if _, err := svc.CreateTenant("acme", "university"); err != nil {
		t.Fatal(err)
	}
	tk, err := svc.InjectIssue("acme", "acl", "admin")
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.CreateSession("acme", "alice", tk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Token == "" || info.Session == "" {
		t.Fatalf("session info missing token or id: %+v", info)
	}
	return svc, vc, reg, info
}

func TestSessionIdleExpiry(t *testing.T) {
	svc, vc, reg, info := newTestService(t)

	// Alive and mediated before the timeout.
	if len(info.Slice) == 0 {
		t.Fatal("session has an empty presentation slice")
	}
	if _, err := svc.Exec("acme", info.Session, info.Token, info.Slice[0], "show ip route"); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("heimdall_service_sessions_active", telemetry.L("tenant", "acme")); got != 1 {
		t.Fatalf("sessions_active = %v, want 1", got)
	}

	// Idle past the timeout: the sweeper reclaims it.
	vc.Advance(11 * time.Minute)
	if n := svc.SweepIdle(); n != 1 {
		t.Fatalf("SweepIdle = %d, want 1", n)
	}
	if got := reg.CounterValue("heimdall_service_sessions_active", telemetry.L("tenant", "acme")); got != 0 {
		t.Fatalf("sessions_active after expiry = %v, want 0", got)
	}

	// Further Exec is denied with ErrSessionExpired and audited.
	_, err := svc.Exec("acme", info.Session, info.Token, info.Slice[0], "show ip route")
	if !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("Exec after expiry = %v, want ErrSessionExpired", err)
	}
	tenant, _ := svc.Tenant("acme")
	trail := tenant.System().Enforcer.Trail()
	var expired, denied bool
	for _, e := range trail.Links() {
		if e.Kind == audit.KindSession && strings.Contains(e.Detail, "expired") && !e.Allowed {
			expired = true
		}
		if e.Kind == audit.KindSession && strings.Contains(e.Detail, "deny exec") && !e.Allowed {
			denied = true
		}
	}
	if !expired {
		t.Fatal("no KindSession expiry record in the audit trail")
	}
	if !denied {
		t.Fatal("no KindSession deny record for the post-expiry exec")
	}
	if err := trail.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLazyExpiryWithoutSweep(t *testing.T) {
	svc, vc, _, info := newTestService(t)
	vc.Advance(11 * time.Minute)
	// No sweep ran; the Exec path itself must expire the session.
	_, err := svc.Exec("acme", info.Session, info.Token, info.Slice[0], "show ip route")
	if !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("lazy expiry: got %v, want ErrSessionExpired", err)
	}
	// Attach on an expired session reports the state without error.
	got, err := svc.Attach("acme", info.Session, info.Token)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "expired" {
		t.Fatalf("attach state = %s, want expired", got.State)
	}
}

func TestAttachTokenMismatch(t *testing.T) {
	svc, _, reg, info := newTestService(t)
	if _, err := svc.Attach("acme", info.Session, "deadbeef"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad token attach = %v, want ErrBadToken", err)
	}
	if _, err := svc.Exec("acme", info.Session, "", info.Slice[0], "show ip route"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("empty token exec = %v, want ErrBadToken", err)
	}
	if got := reg.CounterValue("heimdall_service_auth_failures_total", telemetry.L("tenant", "acme")); got != 2 {
		t.Fatalf("auth_failures_total = %v, want 2", got)
	}
	// The real token still works.
	if _, err := svc.Attach("acme", info.Session, info.Token); err != nil {
		t.Fatal(err)
	}
}

func TestSessionDoubleClose(t *testing.T) {
	svc, _, reg, info := newTestService(t)
	if err := svc.CloseSession("acme", info.Session, info.Token); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseSession("acme", info.Session, info.Token); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double close = %v, want ErrSessionClosed", err)
	}
	if _, err := svc.Exec("acme", info.Session, info.Token, info.Slice[0], "show ip route"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("exec after close = %v, want ErrSessionClosed", err)
	}
	if got := reg.CounterValue("heimdall_service_sessions_active", telemetry.L("tenant", "acme")); got != 0 {
		t.Fatalf("sessions_active after close = %v, want 0", got)
	}
}

// TestEndedSessionReleasedAndReaped pins the memory lifecycle: ending a
// session drops its engagement (a full twin copy of the tenant network)
// immediately, the session stays addressable for one idle period so
// clients can observe the terminal state, and the next sweep after that
// grace window forgets it entirely.
func TestEndedSessionReleasedAndReaped(t *testing.T) {
	svc, vc, _, info := newTestService(t)
	if err := svc.CloseSession("acme", info.Session, info.Token); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.lookup("acme", info.Session, info.Token)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	eng := sess.eng
	sess.mu.Unlock()
	if eng != nil {
		t.Fatal("closed session still holds its engagement (twin network copy)")
	}
	// Within the grace window the session stays addressable.
	if n := svc.SweepIdle(); n != 0 {
		t.Fatalf("sweep right after close = %d expiries, want 0", n)
	}
	got, err := svc.Attach("acme", info.Session, info.Token)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "closed" {
		t.Fatalf("attach state = %s, want closed", got.State)
	}
	// One idle period later the sweeper drops the registry entry.
	vc.Advance(11 * time.Minute)
	svc.SweepIdle()
	if _, err := svc.Attach("acme", info.Session, info.Token); !errors.Is(err, ErrNoSession) {
		t.Fatalf("reaped session attach = %v, want ErrNoSession", err)
	}
}

// TestInjectIssueConcurrentWithSessions hammers issue injection (a
// production-network write) against session creation (a production read:
// twin construction snapshots production) on one tenant. Run under
// -race, it pins InjectIssue to the enforcer's write lock.
func TestInjectIssueConcurrentWithSessions(t *testing.T) {
	svc, _, _, _ := newTestService(t)
	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	var is *scenarios.Issue
	for i := range tn.ScenarioData().Issues {
		if tn.ScenarioData().Issues[i].Name == "acl" {
			is = &tn.ScenarioData().Issues[i]
		}
	}
	if is == nil {
		t.Fatal("university scenario lost its acl issue")
	}

	const iters = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			if _, err := svc.InjectIssue("acme", "acl", "admin"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < iters; i++ {
		tk, err := svc.CreateTicket("acme", ticket.Ticket{
			Summary: is.Fault.Description, Kind: is.Fault.Kind,
			SrcHost: is.SrcHost, DstHost: is.DstHost,
			Proto: is.Proto, DstPort: is.DstPort,
			Suspects:  []string{is.Fault.RootCause},
			CreatedBy: "admin",
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateSession("acme", fmt.Sprintf("bob-%02d", i), tk.ID); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestExpiredSessionSkippedBySweep(t *testing.T) {
	svc, vc, _, _ := newTestService(t)
	vc.Advance(11 * time.Minute)
	if n := svc.SweepIdle(); n != 1 {
		t.Fatalf("first sweep = %d, want 1", n)
	}
	if n := svc.SweepIdle(); n != 0 {
		t.Fatalf("second sweep = %d, want 0 (already expired)", n)
	}
}

// TestTenantsDuringRollback lists tenants while commits on the tenant are
// failed halfway by a fault plan and rolled back: the rollback reassigns
// production's device-map entries under the enforcer's write lock, so the
// listing's device count has to be read from a view. Run under -race (an
// unlocked len(Devices) trips the detector here); without it the test still
// holds every listing to the scenario's count.
func TestTenantsDuringRollback(t *testing.T) {
	svc, _, _, info := newTestService(t)
	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	devices := len(production(tn).Devices)

	done := make(chan struct{})
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, ti := range svc.Tenants() {
				if ti.Devices != devices {
					t.Errorf("tenant %s lists %d devices, want %d", ti.ID, ti.Devices, devices)
					return
				}
			}
		}
	}()

	const rounds = 10
	for i := 0; i < rounds; i++ {
		if i > 0 {
			tk, err := svc.InjectIssue("acme", "acl", "admin")
			if err != nil {
				t.Fatal(err)
			}
			if info, err = svc.CreateSession("acme", fmt.Sprintf("alice-%02d", i), tk.ID); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.Exec("acme", info.Session, info.Token, "r2", "no access-list SENSITIVE-15 5"); err != nil {
			t.Fatal(err)
		}
		tn.System().Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
			{Op: "apply", Outage: true, Class: faultinject.Permanent},
		}}))
		_, err := svc.Commit("acme", info.Session, info.Token)
		if err == nil || !strings.Contains(err.Error(), "rolled back") {
			t.Fatalf("round %d: commit = %v, want a rollback", i, err)
		}
		tn.System().Enforcer.SetInjector(nil)
	}
	close(done)
	<-listed
}
