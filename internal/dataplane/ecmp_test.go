package dataplane

import (
	"net/netip"
	"testing"

	"heimdall/internal/netmodel"
)

// diamondNet builds h1 - r1 - {r2,r3} - r4 - h2 with equal-cost paths.
func diamondNet() *netmodel.Network {
	n := netmodel.NewNetwork("diamond")
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		n.AddDevice(name, netmodel.Router)
	}
	n.AddDevice("h1", netmodel.Host)
	n.AddDevice("h2", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/9")
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r4", "Gi0/0")
	n.MustConnect("r3", "Gi0/1", "r4", "Gi0/1")
	n.MustConnect("r4", "Gi0/9", "h2", "eth0")
	addr := map[string]string{
		"h1:eth0": "10.1.0.10/24", "r1:Gi0/9": "10.1.0.1/24",
		"r1:Gi0/0": "10.0.12.1/30", "r2:Gi0/0": "10.0.12.2/30",
		"r1:Gi0/1": "10.0.13.1/30", "r3:Gi0/0": "10.0.13.2/30",
		"r2:Gi0/1": "10.0.24.1/30", "r4:Gi0/0": "10.0.24.2/30",
		"r3:Gi0/1": "10.0.34.1/30", "r4:Gi0/1": "10.0.34.2/30",
		"r4:Gi0/9": "10.2.0.1/24", "h2:eth0": "10.2.0.10/24",
	}
	for k, v := range addr {
		dev, ifn, _ := cut(k)
		n.Device(dev).Interface(ifn).Addr = pfx(v)
	}
	n.Device("h1").DefaultGateway = ip("10.1.0.1")
	n.Device("h2").DefaultGateway = ip("10.2.0.1")
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		n.Device(name).OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{"Gi0/9": true}}
	}
	return n
}

func TestECMPFlowHashSpreadsFlows(t *testing.T) {
	n := diamondNet()
	s := ComputeWithOptions(n, Options{FlowHashECMP: true})

	src, dst := ip("10.1.0.10"), ip("10.2.0.10")
	paths := map[string]int{}
	for port := uint16(1000); port < 1200; port++ {
		tr := s.TraceFrom("h1", Flow{Proto: netmodel.TCP, Src: src, Dst: dst, SrcPort: port, DstPort: 80})
		if !tr.Delivered() {
			t.Fatalf("port %d: %s", port, tr)
		}
		for _, hop := range tr.Hops {
			if hop.Device == "r2" || hop.Device == "r3" {
				paths[hop.Device]++
			}
		}
	}
	if paths["r2"] == 0 || paths["r3"] == 0 {
		t.Fatalf("flow hashing did not spread load: %v", paths)
	}
	// Reasonable balance: neither path carries everything.
	if paths["r2"] < 20 || paths["r3"] < 20 {
		t.Fatalf("badly skewed: %v", paths)
	}
}

func TestECMPFlowHashDeterministicPerFlow(t *testing.T) {
	n := diamondNet()
	s := ComputeWithOptions(n, Options{FlowHashECMP: true})
	f := Flow{Proto: netmodel.TCP, Src: ip("10.1.0.10"), Dst: ip("10.2.0.10"), SrcPort: 4242, DstPort: 80}
	first := s.TraceFrom("h1", f).Path()
	for i := 0; i < 10; i++ {
		if got := s.TraceFrom("h1", f).Path(); !equalStrings(got, first) {
			t.Fatalf("same flow took different paths: %v vs %v", got, first)
		}
	}
}

// The flow hash takes any address family: an IPv6 destination is a plain
// no-route, and an IPv6 source still picks one of the equal-cost paths.
func TestECMPFlowHashNonIPv4(t *testing.T) {
	s := ComputeWithOptions(diamondNet(), Options{FlowHashECMP: true})
	v6 := netip.MustParseAddr("2001:db8::1")
	tr := s.TraceFrom("r1", Flow{Proto: netmodel.ICMP, Src: ip("10.1.0.1"), Dst: v6})
	if tr.Disposition != DropNoRoute || tr.Where != "r1" {
		t.Fatalf("IPv6 destination: %s", tr)
	}
	tr = s.TraceFrom("r1", Flow{Proto: netmodel.ICMP, Src: v6, Dst: ip("10.2.0.10")})
	if !tr.Delivered() {
		t.Fatalf("IPv6 source over ECMP: %s", tr)
	}
}

func TestECMPDefaultIsFirstEntry(t *testing.T) {
	n := diamondNet()
	s := Compute(n)
	// Without flow hashing, every flow takes the same (sorted-first) path.
	for port := uint16(1000); port < 1050; port++ {
		tr := s.TraceFrom("h1", Flow{Proto: netmodel.TCP,
			Src: ip("10.1.0.10"), Dst: ip("10.2.0.10"), SrcPort: port, DstPort: 80})
		if !tr.Delivered() || !tr.Traverses("r2") {
			t.Fatalf("default ECMP should always pick the r2 path: %s", tr)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOSPFCostSteersPath(t *testing.T) {
	n := diamondNet()
	// Make the r2 branch expensive: traffic prefers r3.
	n.Device("r1").Interface("Gi0/0").OSPFCost = 10
	s := Compute(n)
	tr, err := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if err != nil || !tr.Delivered() {
		t.Fatalf("h1->h2: %v %v", tr, err)
	}
	if !tr.Traverses("r3") || tr.Traverses("r2") {
		t.Fatalf("cost did not steer path: %v", tr.Path())
	}
	// Metric reflects the cheap path.
	for _, e := range s.RIB("r1") {
		if e.Proto == OSPF && e.Prefix == pfx("10.2.0.0/24") {
			if e.Metric != 2 {
				t.Fatalf("metric = %d, want 2 (r3 path)", e.Metric)
			}
			if e.OutIf != "Gi0/1" {
				t.Fatalf("egress = %s, want Gi0/1", e.OutIf)
			}
		}
	}

	// Equal costs again (both 10): ECMP returns.
	n.Device("r1").Interface("Gi0/1").OSPFCost = 10
	s = Compute(n)
	hops := 0
	for _, e := range s.RIB("r1") {
		if e.Proto == OSPF && e.Prefix == pfx("10.2.0.0/24") {
			hops++
		}
	}
	if hops != 2 {
		t.Fatalf("expected ECMP restored with equal costs, got %d next hops", hops)
	}
}

func TestOSPFCostAsymmetric(t *testing.T) {
	// Cost applies on the egress interface of the router that pays it, so
	// forward and reverse paths can legitimately differ.
	n := diamondNet()
	n.Device("r1").Interface("Gi0/0").OSPFCost = 10 // r1 avoids r2 outbound
	s := Compute(n)
	fwd, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	rev, _ := s.Reach("h2", "h1", netmodel.ICMP, 0)
	if !fwd.Delivered() || !rev.Delivered() {
		t.Fatalf("traffic broken: %v %v", fwd, rev)
	}
	if fwd.Traverses("r2") {
		t.Fatalf("forward should avoid r2: %v", fwd.Path())
	}
	// Reverse is unaffected by r1's egress cost and keeps the sorted-first
	// choice (r2).
	if !rev.Traverses("r2") {
		t.Fatalf("reverse should still use r2: %v", rev.Path())
	}
}
