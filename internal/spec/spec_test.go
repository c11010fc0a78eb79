package spec

import (
	"net/netip"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

// miningNet: h1, h2 reach each other through r1; h3 (sensitive) is behind
// an ACL that denies everything to it.
func miningNet() *netmodel.Network {
	n := netmodel.NewNetwork("mine")
	r1 := n.AddDevice("r1", netmodel.Router)
	for i, sub := range []string{"10.1.0", "10.2.0", "10.3.0"} {
		h := n.AddDevice([]string{"h1", "h2", "h3"}[i], netmodel.Host)
		n.MustConnect(h.Name, "eth0", "r1", []string{"Gi0/0", "Gi0/1", "Gi0/2"}[i])
		h.Interface("eth0").Addr = netip.MustParsePrefix(sub + ".10/24")
		h.DefaultGateway = netip.MustParseAddr(sub + ".1")
		r1.Interface([]string{"Gi0/0", "Gi0/1", "Gi0/2"}[i]).Addr = netip.MustParsePrefix(sub + ".1/24")
	}
	guard := r1.ACL("GUARD", true)
	guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.AnyProto,
		Dst: netip.MustParsePrefix("10.3.0.0/24")})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	r1.Interface("Gi0/0").ACLIn = "GUARD"
	r1.Interface("Gi0/1").ACLIn = "GUARD"
	return n
}

func TestMineReachabilityAndIsolation(t *testing.T) {
	n := miningNet()
	s := dataplane.Compute(n)
	policies := Mine(s, n, Options{Sensitive: map[string]bool{"h3": true}})

	var reach, isolate int
	for _, p := range policies {
		switch p.Kind {
		case verify.Reachability:
			reach++
			if p.Dst == "h3" {
				t.Errorf("h3 should not be reachable: %s", p)
			}
		case verify.Isolation:
			isolate++
			if p.Src != "h3" && p.Dst != "h3" {
				t.Errorf("isolation policy without sensitive host: %s", p)
			}
		}
	}
	// Reachable pairs: h1<->h2 (2), h3->h1, h3->h2 (ACL is ingress-only on
	// h1/h2 ports, h3's own port has none). Isolated: h1->h3, h2->h3.
	if reach != 4 {
		t.Errorf("reachability policies = %d, want 4: %v", reach, policies)
	}
	if isolate != 2 {
		t.Errorf("isolation policies = %d, want 2: %v", isolate, policies)
	}

	// All mined policies must hold on the baseline by construction.
	res := verify.Check(s, policies)
	if len(res.Violations) > 0 {
		t.Fatalf("mined policies violated on baseline: %v", res.Violations)
	}
	// IDs are unique and sequential.
	if policies[0].ID != "P001" {
		t.Errorf("first ID = %s", policies[0].ID)
	}
}

func TestMineServicesAndTruncation(t *testing.T) {
	n := miningNet()
	s := dataplane.Compute(n)
	full := Mine(s, n, Options{
		Services:  []Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 80}},
		Sensitive: map[string]bool{"h3": true},
	})
	if len(full) != 12 { // (4 reach + 2 isolate) per service
		t.Fatalf("full = %d policies: %v", len(full), full)
	}
	capped := Mine(s, n, Options{
		Services:    []Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 80}},
		Sensitive:   map[string]bool{"h3": true},
		MaxPolicies: 5,
	})
	if len(capped) != 5 {
		t.Fatalf("capped = %d policies", len(capped))
	}
	// Truncation is deterministic.
	capped2 := Mine(s, n, Options{
		Services:    []Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 80}},
		Sensitive:   map[string]bool{"h3": true},
		MaxPolicies: 5,
	})
	for i := range capped {
		if capped[i] != capped2[i] {
			t.Fatal("truncation not deterministic")
		}
	}
}

func TestMineWaypoints(t *testing.T) {
	n := miningNet()
	s := dataplane.Compute(n)
	policies := Mine(s, n, Options{
		Sensitive: map[string]bool{"h3": true},
		Waypoints: map[string]bool{"r1": true},
	})
	var waypoints, reach int
	for _, p := range policies {
		switch p.Kind {
		case verify.Waypoint:
			waypoints++
			if p.Via != "r1" {
				t.Errorf("waypoint via %q", p.Via)
			}
		case verify.Reachability:
			reach++
		}
	}
	// Every delivered pair crosses r1, so all reachability policies are
	// promoted to waypoint policies.
	if waypoints != 4 || reach != 0 {
		t.Fatalf("waypoints=%d reach=%d: %v", waypoints, reach, policies)
	}
	// They hold on the baseline.
	if res := verify.Check(s, policies); len(res.Violations) > 0 {
		t.Fatalf("mined waypoint policies violated: %v", res.Violations)
	}
}

func TestMineDeterministicOrder(t *testing.T) {
	n := miningNet()
	s := dataplane.Compute(n)
	a := Mine(s, n, Options{Sensitive: map[string]bool{"h3": true}})
	b := Mine(s, n, Options{Sensitive: map[string]bool{"h3": true}})
	if len(a) != len(b) {
		t.Fatal("non-deterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
