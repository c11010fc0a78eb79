package enforcer

import (
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// commitTrail is the commit line a ticket's trail ends with, or "".
func commitTrail(e *Enforcer, ticket string) string {
	line := ""
	for _, entry := range e.Trail().Links() {
		if entry.Ticket == ticket && entry.Kind == audit.KindSession && strings.HasPrefix(entry.Detail, "committed ") {
			line = entry.Detail
		}
	}
	return line
}

// TestStaleAcceptanceReverifiedAtCommit: two tickets on r1 are each
// reviewed and accepted against the same production, then commit one after
// the other. The second commit is re-verified against the production the
// first one left, so an acceptance that went stale is refused with exactly
// the violations a from-scratch check of both change sets finds, and one
// that still holds lands.
func TestStaleAcceptanceReverifiedAtCommit(t *testing.T) {
	spec := func(ticket string) *privilege.Spec {
		return &privilege.Spec{Ticket: ticket, Technician: "alice", Rules: []privilege.Rule{
			{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r1"},
		}}
	}
	guard := func(seq int, action netmodel.ACLAction, dst string) config.Change {
		return config.Change{Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
			Entry: &netmodel.ACLEntry{Seq: seq, Action: action, Proto: netmodel.AnyProto, Dst: netip.MustParsePrefix(dst)}}
	}
	type outcome struct {
		e   *Enforcer
		reg *telemetry.Registry
		d   *Decision // B's commit
		err error
		// prod is production after B's commit, postA before it, both the
		// network A and B together make.
		prod, postA, both *netmodel.Network
	}
	// run reviews both change sets on the untouched production, then
	// commits A, then B.
	run := func(t *testing.T, a, b []config.Change) outcome {
		n := prod()
		e := newEnforcer(n)
		reg := telemetry.NewRegistry()
		e.SetMeter(reg)
		for _, r := range []struct {
			ticket  string
			changes []config.Change
		}{{"T-A", a}, {"T-B", b}} {
			if d := e.check(r.changes, spec(r.ticket)); !d.Accepted {
				t.Fatalf("%s rejected alone on v0: %s", r.ticket, d.Reason())
			}
		}
		if _, err := e.submit(a, spec("T-A")); err != nil {
			t.Fatalf("A: %v", err)
		}
		postA := n.Clone()
		both := n.CloneCOW("r1")
		if err := config.ApplyChanges(both, b); err != nil {
			t.Fatal(err)
		}
		d, err := e.submit(b, spec("T-B"))
		return outcome{e, reg, d, err, n, postA, both}
	}

	t.Run("stale", func(t *testing.T) {
		// A's permit for h3 is shadowed by seq 10's deny; B moves that deny
		// behind it, to seq 17. Either alone keeps h3 closed; both open it.
		a := []config.Change{guard(15, netmodel.Permit, "10.3.0.10/32")}
		b := []config.Change{
			{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 10},
			guard(17, netmodel.Deny, "10.3.0.0/24"),
		}
		o := run(t, a, b)
		// Refused by the commit's review, before any push.
		if o.err == nil || !strings.Contains(o.err.Error(), "change set rejected") || o.d.Accepted {
			t.Fatalf("B not refused before its push: %v %+v", o.err, o.d)
		}
		want := verify.Check(dataplane.Compute(o.both), o.e.policies).Violations
		if len(want) != 2 {
			t.Fatalf("precondition: A and B together break %d policies, want h1->h3 and h2->h3", len(want))
		}
		if got, exp := decisionJSON(t, &Decision{Violations: o.d.Violations}), decisionJSON(t, &Decision{Violations: want}); got != exp {
			t.Fatalf("B's violations diverge from a from-scratch check of A+B:\ngot  %s\nwant %s", got, exp)
		}
		if diff := config.DiffNetwork(o.postA, o.prod); len(diff) != 0 {
			t.Fatalf("production moved past A: %v", diff)
		}
		// B's review displaced A's kept shadow, so A's commit re-derived
		// from production; B's refusal hands nothing over.
		if h := handovers(o.reg); h != [3]float64{0, 1, 0} {
			t.Fatalf("hand-overs (review, production, computed) = %v, want A's from production only", h)
		}
		if got := commitTrail(o.e, "T-A"); got != "committed 1 changes to production (from=production)" {
			t.Fatalf("A's commit line = %q", got)
		}
		if got := commitTrail(o.e, "T-B"); got != "" {
			t.Fatalf("refused B has a commit line: %q", got)
		}
	})

	t.Run("benign", func(t *testing.T) {
		a := []config.Change{benignChange(15, 443)}
		b := []config.Change{benignChange(16, 8443)}
		o := run(t, a, b)
		if o.err != nil || !o.d.Accepted {
			t.Fatalf("B refused after A: %v", o.err)
		}
		if diff := config.DiffNetwork(o.both, o.prod); len(diff) != 0 {
			t.Fatalf("production does not hold A and B: %v", diff)
		}
		// B's commit re-reviewed it on post-A production and landed that
		// review's shadow.
		if h := handovers(o.reg); h != [3]float64{1, 1, 0} {
			t.Fatalf("hand-overs (review, production, computed) = %v, want A's from production, B's from review", h)
		}
		for ticket, from := range map[string]string{"T-A": "production", "T-B": "review"} {
			if got, want := commitTrail(o.e, ticket), "committed 1 changes to production (from="+from+")"; got != want {
				t.Fatalf("%s's commit line = %q, want %q", ticket, got, want)
			}
		}
	})
}
