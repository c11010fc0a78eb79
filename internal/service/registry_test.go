package service

import (
	"errors"
	"testing"

	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// TestOnboardingComputesNoSnapshot: creating a tenant and listing tenants
// read production's device map only, so neither computes a production
// snapshot.
func TestOnboardingComputesNoSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, PlatformSeed: "onboarding"})
	defer svc.Close()
	info, err := svc.CreateTenant("acme", "university")
	if err != nil {
		t.Fatal(err)
	}
	if listed := svc.Tenants(); info.Devices == 0 || len(listed) != 1 || listed[0].Devices != info.Devices {
		t.Fatalf("created %+v, listed %+v", info, listed)
	}
	if got := reg.CounterValue("heimdall_enforcer_prod_snapshot_misses_total"); got != 0 {
		t.Fatalf("onboarding computed %v production snapshots, want 0", got)
	}
}

func TestRegistryDuplicateAndMissing(t *testing.T) {
	r := newRegistry()
	if err := r.add(&Tenant{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := r.add(&Tenant{ID: "acme"}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate add = %v, want ErrTenantExists", err)
	}
	if _, err := r.get("ghost"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("missing get = %v, want ErrNoTenant", err)
	}
	all := r.all()
	if len(all) != 1 || all[0].ID != "acme" {
		t.Fatalf("all = %v", all)
	}
}

func TestTenantIsolationNoAliasing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := svc.CreateTenant(id, "university"); err != nil {
			t.Fatal(err)
		}
	}
	ta, _ := svc.Tenant("a")
	tb, _ := svc.Tenant("b")

	// No device pointer may be visible from two different tenants.
	seen := make(map[any]string)
	record := func(owner string, m map[string]any) {
		for name, p := range m {
			if prev, ok := seen[p]; ok && prev != owner {
				t.Fatalf("device %s aliased between %s and %s", name, prev, owner)
			}
			seen[p] = owner
		}
	}
	collect := func(tn *Tenant) map[string]any {
		out := make(map[string]any)
		for name, d := range production(tn).Devices {
			out[name] = d
		}
		return out
	}
	record("tenant a", collect(ta))
	record("tenant b", collect(tb))

	// Mutating tenant a's production via an injected fault must leave b
	// untouched.
	if _, err := svc.InjectIssue("a", "acl", "test"); err != nil {
		t.Fatal(err)
	}
	if na, nb := len(ta.System().Tickets.List()), len(tb.System().Tickets.List()); na != 1 || nb != 0 {
		t.Fatalf("ticket leakage: a=%d b=%d", na, nb)
	}
}

// production is the tenant's production as it is now (Enforcer.View).
func production(tn *Tenant) *netmodel.Network {
	prod, _ := tn.System().Enforcer.View(false)
	return prod
}
