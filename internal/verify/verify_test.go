package verify

import (
	"encoding/json"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

// twoHostNet: h1 - r1 - h2, with an ACL hook on r1 and a second router r2
// hanging off r1 as a potential waypoint bypass.
func twoHostNet() *netmodel.Network {
	n := netmodel.NewNetwork("v")
	r1 := n.AddDevice("r1", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	h2 := n.AddDevice("h2", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "h2", "eth0")
	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.2.0.1/24")
	h2.Interface("eth0").Addr = netip.MustParsePrefix("10.2.0.10/24")
	h2.DefaultGateway = netip.MustParseAddr("10.2.0.1")
	return n
}

func TestCheckReachabilityAndIsolation(t *testing.T) {
	n := twoHostNet()
	s := dataplane.Compute(n)
	policies := []Policy{
		{ID: "P1", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.ICMP},
		{ID: "P2", Kind: Isolation, Src: "h2", Dst: "h1", Proto: netmodel.TCP, DstPort: 22},
	}
	res := Check(s, policies)
	if res.Checked != 2 {
		t.Fatalf("Checked = %d", res.Checked)
	}
	// P1 holds; P2 is violated (h2 can in fact reach h1).
	if len(res.Violations) != 1 || res.Violations[0].Policy.ID != "P2" {
		t.Fatalf("violations = %v", res.Violations)
	}
	if res.Violations[0].Trace == nil || !res.Violations[0].Trace.Delivered() {
		t.Fatal("isolation violation must carry a delivered counterexample")
	}
	if !strings.Contains(res.Violations[0].String(), "VIOLATION") {
		t.Fatal("violation string missing marker")
	}
}

func TestCheckReachabilityViolationCarriesTrace(t *testing.T) {
	n := twoHostNet()
	// Block h1->h2 with an ACL on r1.
	r1 := n.Devices["r1"]
	acl := r1.ACL("DENY-ALL", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny})
	r1.Interface("Gi0/0").ACLIn = "DENY-ALL"
	s := dataplane.Compute(n)

	v := CheckPolicy(s, Policy{ID: "P1", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.ICMP})
	if v == nil {
		t.Fatal("expected violation")
	}
	if v.Trace.Disposition != dataplane.DropACL || v.Trace.Where != "r1" {
		t.Fatalf("counterexample = %s", v.Trace)
	}
}

func TestCheckWaypoint(t *testing.T) {
	n := twoHostNet()
	s := dataplane.Compute(n)
	if v := CheckPolicy(s, Policy{ID: "W1", Kind: Waypoint, Src: "h1", Dst: "h2", Proto: netmodel.ICMP, Via: "r1"}); v != nil {
		t.Fatalf("waypoint through r1 should hold: %v", v)
	}
	v := CheckPolicy(s, Policy{ID: "W2", Kind: Waypoint, Src: "h1", Dst: "h2", Proto: netmodel.ICMP, Via: "fw9"})
	if v == nil || !strings.Contains(v.Reason, "bypasses") {
		t.Fatalf("waypoint via unknown device should be violated: %v", v)
	}
}

func TestCheckUnknownHost(t *testing.T) {
	s := dataplane.Compute(twoHostNet())
	v := CheckPolicy(s, Policy{ID: "X", Kind: Reachability, Src: "ghost", Dst: "h2"})
	if v == nil {
		t.Fatal("unknown host should be a violation")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	in := []Policy{
		{ID: "P1", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.TCP, DstPort: 80},
		{ID: "P2", Kind: Isolation, Src: "h1", Dst: "h3", Proto: netmodel.ICMP},
		{ID: "P3", Kind: Waypoint, Src: "h1", Dst: "h2", Via: "fw1", Proto: netmodel.AnyProto},
	}
	data, err := MarshalPolicies(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Policy
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("round trip count = %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("policy %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if err := json.Unmarshal([]byte(`[{"id":"x","kind":"nonsense","src":"a","dst":"b"}]`), &out); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPolicyString(t *testing.T) {
	p := Policy{ID: "P9", Kind: Reachability, Src: "a", Dst: "b", Proto: netmodel.TCP, DstPort: 443}
	if got := p.String(); got != "P9: reachable(a -> b, tcp/443)" {
		t.Fatalf("String = %q", got)
	}
	w := Policy{ID: "W1", Kind: Waypoint, Src: "a", Dst: "b", Proto: netmodel.ICMP, Via: "fw"}
	if !strings.Contains(w.String(), "via fw") {
		t.Fatalf("String = %q", w.String())
	}
}

func TestAffectedBy(t *testing.T) {
	n := twoHostNet()
	s := dataplane.Compute(n)
	policies := []Policy{
		{ID: "P1", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.ICMP},
		{ID: "P2", Kind: Isolation, Src: "h2", Dst: "h1", Proto: netmodel.TCP, DstPort: 22},
	}
	// Changes on r1 affect P1 (its path crosses r1) and P2 (isolation
	// always stays in scope).
	got := AffectedBy(s, policies, map[string]bool{"r1": true})
	if len(got) != 2 {
		t.Fatalf("AffectedBy(r1) = %v", got)
	}
	// Changes on an unrelated device: only the isolation policy remains.
	got = AffectedBy(s, policies, map[string]bool{"elsewhere": true})
	if len(got) != 1 || got[0].ID != "P2" {
		t.Fatalf("AffectedBy(elsewhere) = %v", got)
	}
}

// guardedNet: h1 and sensitive h3 on r1, h2 and h4 on r2, r1 - r2 joined by
// static routes. r1 denies everything toward h3's subnet on the way in.
func guardedNet() *netmodel.Network {
	n := netmodel.NewNetwork("g")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	n.MustConnect("r1", "Gi0/9", "r2", "Gi0/9")
	r1.Interface("Gi0/9").Addr = netip.MustParsePrefix("10.9.0.1/30")
	r2.Interface("Gi0/9").Addr = netip.MustParsePrefix("10.9.0.2/30")
	attach := func(host, sub string, r *netmodel.Device, itf string) {
		h := n.AddDevice(host, netmodel.Host)
		n.MustConnect(host, "eth0", r.Name, itf)
		h.Interface("eth0").Addr = netip.MustParsePrefix(sub + ".10/24")
		h.DefaultGateway = netip.MustParseAddr(sub + ".1")
		r.Interface(itf).Addr = netip.MustParsePrefix(sub + ".1/24")
	}
	attach("h1", "10.1.0", r1, "Gi0/0")
	attach("h3", "10.3.0", r1, "Gi0/1")
	attach("h2", "10.2.0", r2, "Gi0/0")
	attach("h4", "10.4.0", r2, "Gi0/1")
	for _, pfx := range []string{"10.2.0.0/24", "10.4.0.0/24"} {
		r1.StaticRoutes = append(r1.StaticRoutes, netmodel.StaticRoute{
			Prefix: netip.MustParsePrefix(pfx), NextHop: netip.MustParseAddr("10.9.0.2")})
	}
	for _, pfx := range []string{"10.1.0.0/24", "10.3.0.0/24"} {
		r2.StaticRoutes = append(r2.StaticRoutes, netmodel.StaticRoute{
			Prefix: netip.MustParsePrefix(pfx), NextHop: netip.MustParseAddr("10.9.0.1")})
	}
	guard := r1.ACL("GUARD", true)
	guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.AnyProto,
		Dst: netip.MustParsePrefix("10.3.0.0/24")})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit})
	r1.Interface("Gi0/0").ACLIn = "GUARD"
	r1.Interface("Gi0/9").ACLIn = "GUARD"
	return n
}

// TestAffectedByCoversImpacted: scoping to the changed device drops the
// policies whose traffic never meets it, never one the change can flip —
// so a violation the full check finds, the scoped check finds too.
func TestAffectedByCoversImpacted(t *testing.T) {
	n := guardedNet()
	base := dataplane.Compute(n)
	policies := []Policy{
		{ID: "R12", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.ICMP},
		{ID: "R24", Kind: Reachability, Src: "h2", Dst: "h4", Proto: netmodel.ICMP},
		{ID: "I13", Kind: Isolation, Src: "h1", Dst: "h3", Proto: netmodel.ICMP},
		{ID: "I23", Kind: Isolation, Src: "h2", Dst: "h3", Proto: netmodel.ICMP},
	}
	if res := Check(base, policies); len(res.Violations) > 0 {
		t.Fatalf("baseline violates its own policies: %v", res.Violations)
	}
	scoped := AffectedBy(base, policies, map[string]bool{"r1": true})
	inScope := make(map[string]bool)
	for _, p := range scoped {
		inScope[p.ID] = true
	}
	if inScope["R24"] || len(scoped) != 3 {
		t.Fatalf("AffectedBy(r1) = %v, want everything but R24 (h2 -> h4 never leaves r2)", scoped)
	}

	// The change on r1: open the sensitive subnet ahead of the deny.
	n.Devices["r1"].ACLs["GUARD"].InsertEntry(netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit,
		Proto: netmodel.AnyProto, Dst: netip.MustParsePrefix("10.3.0.0/24")})
	changed := dataplane.Compute(n)
	full := Check(changed, policies)
	if len(full.Violations) != 2 {
		t.Fatalf("full check found %v, want both isolation policies broken", full.Violations)
	}
	for _, v := range full.Violations {
		if !inScope[v.Policy.ID] {
			t.Errorf("%s is impacted by the change on r1 but was scoped out", v.Policy.ID)
		}
	}
	if got := Check(changed, scoped); got.Checked >= full.Checked || len(got.Violations) != len(full.Violations) {
		t.Fatalf("scoped check: %d checked, %v; full check: %d checked, %v",
			got.Checked, got.Violations, full.Checked, full.Violations)
	}
}

// TestCheckCarriedLeavesParent: checked on a snapshot derived from one
// whose vector is complete, CheckCarried only reads that vector — every slot
// is the verdict it was, the carried ones included — fills every slot of the
// next one, taking the carried verdicts by identity, and decides as a check
// with no vector does.
func TestCheckCarriedLeavesParent(t *testing.T) {
	n := guardedNet()
	policies := []Policy{
		{ID: "R12", Kind: Reachability, Src: "h1", Dst: "h2", Proto: netmodel.ICMP},
		{ID: "R24", Kind: Reachability, Src: "h2", Dst: "h4", Proto: netmodel.ICMP},
		{ID: "I13", Kind: Isolation, Src: "h1", Dst: "h3", Proto: netmodel.ICMP},
		{ID: "I23", Kind: Isolation, Src: "h2", Dst: "h3", Proto: netmodel.ICMP},
	}
	base, next := dataplane.Compute(n), n.CloneCOW("r1")
	next.Devices["r1"].ACLs["GUARD"].InsertEntry(netmodel.ACLEntry{Seq: 5, Action: netmodel.Permit,
		Proto: netmodel.AnyProto, Dst: netip.MustParsePrefix("10.3.0.0/24")})
	child := base.Derive(next, dataplane.ChangeSet{{Device: "r1", Kind: dataplane.ChangeACL}})
	parent := make(Verdicts, len(policies))
	CheckCarried(base, policies, nil, parent, nil)
	was := slices.Clone(parent)
	vec := make(Verdicts, len(policies))
	res := CheckCarried(child, policies, parent, vec, nil)
	for i, p := range policies {
		if parent[i] != was[i] {
			t.Errorf("%s: the check wrote the parent's slot", p.ID)
		}
		if carried := child.Carries(was[i].Trace); vec[i] == nil || carried != (vec[i] == was[i]) {
			t.Errorf("%s: next slot %v, carried %v", p.ID, vec[i], carried)
		}
	}
	if got := Check(child, policies); len(got.Violations) != 2 || len(res.Violations) != 2 {
		t.Fatalf("violations with no vector %v, with one %v; want both isolation policies broken", got.Violations, res.Violations)
	}
}
