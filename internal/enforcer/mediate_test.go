package enforcer

import (
	"strings"
	"testing"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// specFor is aclSpec with a custom ticket, so two tickets can race.
func specFor(ticket string) *privilege.Spec {
	return &privilege.Spec{Ticket: ticket, Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r1"},
	}}
}

func TestCommitScopeIncludesAffectedPolicyPaths(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	scope := e.commitScope(n, []config.Change{benignChange(15, 443)})
	if !scope["r1"] {
		t.Fatal("touched device missing from scope")
	}
	// Policies guarding h3 route through r1; their endpoints are on the
	// trace and therefore in scope.
	if !scope["h1"] && !scope["h2"] && !scope["h3"] {
		t.Fatalf("scope %v misses every policy-path host", scope)
	}
}

// TestConflictMediationRejectsLoser is the satellite scenario: two tickets
// race on overlapping AffectedBy scopes; one wins, the loser gets an
// audited rejection. The interleaving is fixed (reserve first, then race),
// so the outcome is identical across runs and seeds, and -race-clean.
func TestConflictMediationRejectsLoser(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	e.Conflict = MediateReject

	winner := specFor("T-WIN")
	loser := specFor("T-LOSE")
	winChanges := []config.Change{benignChange(15, 443)}
	loseChanges := []config.Change{benignChange(16, 8443)} // same device, overlapping scope

	release, err := e.Reserve(n, winChanges, winner)
	if err != nil {
		t.Fatalf("winner reserve: %v", err)
	}

	// The loser races in a goroutine (exercises -race) but the verdict is
	// fully determined: the winner holds the scope.
	errCh := make(chan error, 1)
	go func() {
		_, cerr := e.Commit(n, loseChanges, loser)
		errCh <- cerr
	}()
	cerr := <-errCh
	if cerr == nil || !strings.Contains(cerr.Error(), "conflicts with in-flight ticket T-WIN") {
		t.Fatalf("loser not rejected with conflict verdict: %v", cerr)
	}

	// The winner commits under its reservation.
	if _, err := e.Commit(n, winChanges, winner); err != nil {
		t.Fatalf("winner commit: %v", err)
	}
	release()

	// Audited verdict on the loser's ticket.
	var found bool
	for _, entry := range e.Trail().Entries() {
		if entry.Ticket == "T-LOSE" && strings.Contains(entry.Detail, "CONFLICT") &&
			strings.Contains(entry.Detail, "rejected") && !entry.Allowed {
			found = true
		}
	}
	if !found {
		t.Fatal("no audited rejection for the losing ticket")
	}
	if v := reg.CounterValue("heimdall_enforcer_conflicts_total", telemetry.L("verdict", "rejected")); v != 1 {
		t.Fatalf("conflicts_total{rejected} = %v, want 1", v)
	}

	// After release, the loser's change set goes through.
	if _, err := e.Commit(n, loseChanges, loser); err != nil {
		t.Fatalf("loser retry after release: %v", err)
	}
}

func TestConflictMediationSerializes(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	e.Conflict = MediateSerialize

	winner := specFor("T-1")
	follower := specFor("T-2")
	release, err := e.Reserve(n, []config.Change{benignChange(15, 443)}, winner)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}

	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, cerr := e.Commit(n, []config.Change{benignChange(16, 8443)}, follower)
		done <- cerr
	}()
	<-started
	// Wait until the follower has parked on the reservation (audited
	// verdict appears), then let it through.
	for {
		serialized := false
		for _, entry := range e.Trail().Entries() {
			if entry.Ticket == "T-2" && strings.Contains(entry.Detail, "serialized") {
				serialized = true
			}
		}
		if serialized {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Commit(n, []config.Change{benignChange(15, 443)}, winner); err != nil {
		t.Fatalf("winner commit: %v", err)
	}
	release()
	if cerr := <-done; cerr != nil {
		t.Fatalf("serialized follower failed: %v", cerr)
	}
	if v := reg.CounterValue("heimdall_enforcer_conflicts_total", telemetry.L("verdict", "serialized")); v != 1 {
		t.Fatalf("conflicts_total{serialized} = %v, want 1", v)
	}
	// Both commits landed.
	if got := len(n.Device("r1").ACLs["GUARD"].Entries); got != 4 {
		t.Fatalf("GUARD entries = %d, want 4 (both commits landed)", got)
	}
}

func TestMediationOffIsByteIdenticalToPriorPipeline(t *testing.T) {
	// With mediation off (the default), a commit journals exactly what it
	// always did — no reservation, no extra trail entries.
	n := prod()
	e := newEnforcer(n)
	if e.Conflict != MediateOff {
		t.Fatal("mediation not off by default")
	}
	trailBefore := e.Trail().Len()
	if _, err := e.Commit(n, []config.Change{benignChange(15, 443)}, aclSpec()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, entry := range e.Trail().Entries()[trailBefore:] {
		if strings.Contains(entry.Detail, "CONFLICT") {
			t.Fatal("mediation-off commit produced a conflict entry")
		}
	}
}

// TestMediationSwitchScope: a VLAN change on a pure-L2 switch contends on
// every flow its fabric carries, although no trace lists the switch as a
// hop. Hop-only scoping reserved the switch and nothing behind it, so a
// second ticket editing a router on those flows was mediated as disjoint.
// The enforcer holds only delivered, non-isolation policies that do not
// cross sw1 at L3 (it also routes, on its SVIs): AffectedBy keeps all the
// others in scope by itself, which would hide the miss.
func TestMediationSwitchScope(t *testing.T) {
	scen := scenarios.Enterprise()
	n := scen.Network
	snap := dataplane.Compute(n)
	var policies []verify.Policy
	for _, p := range scen.Policies {
		tr, err := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		if err == nil && tr.Delivered() && !tr.Traverses("sw1") && p.Kind != verify.Isolation {
			policies = append(policies, p)
		}
	}
	if len(policies) == 0 {
		t.Fatal("precondition: no delivered policy avoids sw1 at L3")
	}
	e := New(enclave.NewPlatformFromSeed("test").Load("heimdall-enforcer-v1"), policies)
	e.Conflict = MediateReject
	vlan := []config.Change{{Device: "sw1", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 999, Name: "qa"}}}

	scope := e.commitScope(n, vlan)
	router := ""
	for _, p := range policies {
		tr, _ := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		for _, h := range tr.Hops {
			if !scope[h.Device] {
				t.Errorf("switch scope misses %s on the path of policy %s", h.Device, p.ID)
			}
			if router == "" && n.Devices[h.Device].Kind == netmodel.Router {
				router = h.Device
			}
		}
	}

	release, err := e.Reserve(n, vlan, specFor("T-SWITCH"))
	if err != nil {
		t.Fatalf("switch reserve: %v", err)
	}
	defer release()
	acl := []config.Change{{Device: router, Op: config.OpAddACLEntry, ACLName: "MEDIATE",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.AnyProto}}}
	if _, err := e.Reserve(n, acl, specFor("T-ROUTER")); err == nil ||
		!strings.Contains(err.Error(), "conflicts with in-flight ticket T-SWITCH") {
		t.Fatalf("ACL ticket on %s mediated as disjoint from the VLAN change on sw1: %v", router, err)
	}
}
