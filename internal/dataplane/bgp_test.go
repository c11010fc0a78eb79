package dataplane

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

// peeringNet builds an enterprise edge peering with two ISPs:
//
//	corp-host - edge(AS 65001) === isp1(AS 65010) --- isp1-host
//	                 \========== isp2(AS 65020) --- isp2-host
//	                              isp1 === isp2 (transit between them)
//
// Each AS advertises its own space; the edge learns both remote subnets.
func peeringNet() *netmodel.Network {
	n := netmodel.NewNetwork("peering")
	edge := n.AddDevice("edge", netmodel.Router)
	isp1 := n.AddDevice("isp1", netmodel.Router)
	isp2 := n.AddDevice("isp2", netmodel.Router)
	n.AddDevice("corp-host", netmodel.Host)
	n.AddDevice("isp1-host", netmodel.Host)
	n.AddDevice("isp2-host", netmodel.Host)

	n.MustConnect("corp-host", "eth0", "edge", "Gi0/0")
	n.MustConnect("edge", "Gi0/1", "isp1", "Gi0/0")
	n.MustConnect("edge", "Gi0/2", "isp2", "Gi0/0")
	n.MustConnect("isp1", "Gi0/1", "isp2", "Gi0/1")
	n.MustConnect("isp1", "Gi0/2", "isp1-host", "eth0")
	n.MustConnect("isp2", "Gi0/2", "isp2-host", "eth0")

	set := func(dev, itf, addr string) { n.Devices[dev].Interface(itf).Addr = pfx(addr) }
	set("corp-host", "eth0", "10.1.0.10/24")
	n.Devices["corp-host"].DefaultGateway = ip("10.1.0.1")
	set("edge", "Gi0/0", "10.1.0.1/24")
	set("edge", "Gi0/1", "203.0.113.1/30")
	set("isp1", "Gi0/0", "203.0.113.2/30")
	set("edge", "Gi0/2", "203.0.113.5/30")
	set("isp2", "Gi0/0", "203.0.113.6/30")
	set("isp1", "Gi0/1", "203.0.113.9/30")
	set("isp2", "Gi0/1", "203.0.113.10/30")
	set("isp1", "Gi0/2", "198.51.100.1/24")
	set("isp1-host", "eth0", "198.51.100.10/24")
	n.Devices["isp1-host"].DefaultGateway = ip("198.51.100.1")
	set("isp2", "Gi0/2", "192.0.2.1/24")
	set("isp2-host", "eth0", "192.0.2.10/24")
	n.Devices["isp2-host"].DefaultGateway = ip("192.0.2.1")

	edge.BGP = &netmodel.BGPProcess{
		LocalAS: 65001, RouterID: ip("1.1.1.1"),
		Networks: []netip.Prefix{pfx("10.1.0.0/24")},
	}
	edge.BGP.SetNeighbor(ip("203.0.113.2"), 65010)
	edge.BGP.SetNeighbor(ip("203.0.113.6"), 65020)

	isp1.BGP = &netmodel.BGPProcess{
		LocalAS: 65010, RouterID: ip("2.2.2.2"),
		Networks: []netip.Prefix{pfx("198.51.100.0/24")},
	}
	isp1.BGP.SetNeighbor(ip("203.0.113.1"), 65001)
	isp1.BGP.SetNeighbor(ip("203.0.113.10"), 65020)

	isp2.BGP = &netmodel.BGPProcess{
		LocalAS: 65020, RouterID: ip("3.3.3.3"),
		Networks: []netip.Prefix{pfx("192.0.2.0/24")},
	}
	isp2.BGP.SetNeighbor(ip("203.0.113.5"), 65001)
	isp2.BGP.SetNeighbor(ip("203.0.113.9"), 65010)
	return n
}

func TestBGPSessionsEstablish(t *testing.T) {
	n := peeringNet()
	s := Compute(n)
	peers := s.BGPPeers("edge")
	if len(peers) != 2 {
		t.Fatalf("edge peers = %+v", peers)
	}
	for _, p := range peers {
		if !p.Established {
			t.Errorf("peer %s not established", p.PeerAddr)
		}
	}
	// A one-sided configuration forms no session.
	isp1 := n.Devices["isp1"].BGP
	isp1.Neighbors = slices.DeleteFunc(isp1.Neighbors, func(nb netmodel.BGPNeighbor) bool { return nb.Addr == ip("203.0.113.1") })
	s = Compute(n)
	for _, p := range s.BGPPeers("edge") {
		if p.PeerAddr == ip("203.0.113.2") && p.Established {
			t.Error("one-sided peering established")
		}
	}
}

func TestBGPRoutesLearnedAndTraffic(t *testing.T) {
	n := peeringNet()
	s := Compute(n)

	// Edge learns both ISP prefixes with AS-path length 1.
	var learned int
	for _, e := range s.RIB("edge") {
		if e.Proto == BGP {
			learned++
			if e.AD != 20 {
				t.Errorf("eBGP AD = %d", e.AD)
			}
			if e.Metric != 1 {
				t.Errorf("direct route AS-path length = %d", e.Metric)
			}
		}
	}
	if learned != 2 {
		t.Fatalf("edge learned %d BGP routes:\n%s", learned, s.FormatRIB("edge"))
	}

	// End-to-end: corporate host reaches both ISP services and back.
	for _, dst := range []string{"isp1-host", "isp2-host"} {
		tr, err := s.Reach("corp-host", dst, netmodel.ICMP, 0)
		if err != nil || !tr.Delivered() {
			t.Fatalf("corp-host -> %s: %v %v", dst, tr, err)
		}
		back, _ := s.Reach(dst, "corp-host", netmodel.ICMP, 0)
		if !back.Delivered() {
			t.Fatalf("%s -> corp-host not delivered: %s", dst, back)
		}
	}
}

func TestBGPTransitPathAndLoopPrevention(t *testing.T) {
	n := peeringNet()
	// Tear down the edge-isp2 session: isp2's prefix must now arrive via
	// isp1 transit with a longer AS path.
	n.Devices["edge"].Interface("Gi0/2").Shutdown = true
	s := Compute(n)

	var viaTransit *FIBEntry
	for _, e := range s.RIB("edge") {
		if e.Proto == BGP && e.Prefix == pfx("192.0.2.0/24") {
			ee := e
			viaTransit = &ee
		}
	}
	if viaTransit == nil {
		t.Fatalf("transit route missing:\n%s", s.FormatRIB("edge"))
	}
	if viaTransit.NextHop != ip("203.0.113.2") || viaTransit.Metric != 2 {
		t.Fatalf("transit route = %+v, want via isp1 with AS-path 2", viaTransit)
	}
	tr, _ := s.Reach("corp-host", "isp2-host", netmodel.ICMP, 0)
	if !tr.Delivered() || !tr.Traverses("isp1") {
		t.Fatalf("transit traffic = %s", tr)
	}
}

func TestBGPWrongASKeepsSessionDown(t *testing.T) {
	n := peeringNet()
	// The classic misconfiguration: edge expects the wrong AS from isp1.
	n.Devices["edge"].BGP.SetNeighbor(ip("203.0.113.2"), 65011)
	s := Compute(n)
	for _, p := range s.BGPPeers("edge") {
		if p.PeerAddr == ip("203.0.113.2") && p.Established {
			t.Fatal("session with AS mismatch established")
		}
	}
	// isp1's prefix now only arrives via isp2 transit.
	for _, e := range s.RIB("edge") {
		if e.Proto == BGP && e.Prefix == pfx("198.51.100.0/24") {
			if e.NextHop != ip("203.0.113.6") {
				t.Fatalf("route should transit isp2: %+v", e)
			}
		}
	}
}

func TestBGPLocalOriginationNotDisplaced(t *testing.T) {
	n := peeringNet()
	// isp1 mischievously advertises the corporate prefix; the edge's own
	// origination must win (no hijack of local space).
	n.Devices["isp1"].BGP.Networks = append(n.Devices["isp1"].BGP.Networks, pfx("10.1.0.0/24"))
	s := Compute(n)
	for _, e := range s.RIB("edge") {
		if e.Prefix == pfx("10.1.0.0/24") && e.Proto == BGP {
			t.Fatalf("local prefix displaced by BGP: %+v", e)
		}
	}
	// Connected route still present and wins.
	tr, _ := s.Reach("corp-host", "isp1-host", netmodel.ICMP, 0)
	if !tr.Delivered() {
		t.Fatalf("traffic broken by hijack attempt: %s", tr)
	}
}

func TestBGPRedistributeConnected(t *testing.T) {
	n := peeringNet()
	edge := n.Devices["edge"]
	edge.BGP.Networks = nil
	edge.BGP.RedistributeConnected = true
	s := Compute(n)
	// isp1 must now know the corporate subnet via redistribution.
	found := false
	for _, e := range s.RIB("isp1") {
		if e.Proto == BGP && e.Prefix == pfx("10.1.0.0/24") {
			found = true
		}
	}
	if !found {
		t.Fatalf("redistributed connected prefix missing:\n%s", s.FormatRIB("isp1"))
	}
}

func TestFormatBGP(t *testing.T) {
	n := peeringNet()
	s := Compute(n)
	out := s.FormatBGP("edge")
	if !strings.Contains(out, "BGP local AS 65001") || !strings.Contains(out, "Established") {
		t.Fatalf("FormatBGP:\n%s", out)
	}
	if !strings.Contains(out, "Learned routes:") {
		t.Fatalf("FormatBGP missing learned routes:\n%s", out)
	}
	if got := s.FormatBGP("corp-host"); got != "% BGP not configured" {
		t.Fatalf("non-BGP device: %q", got)
	}
}

// TestAdminDistancePreference checks the protocol preference order on a
// prefix known via all three sources: static (AD 1) beats eBGP (AD 20)
// beats OSPF (AD 110).
func TestAdminDistancePreference(t *testing.T) {
	n := peeringNet()
	edge := n.Devices["edge"]

	// Teach the prefix to OSPF as well: run OSPF between edge and isp1 on
	// the peering subnet, with isp1 advertising its service subnet.
	for _, name := range []string{"edge", "isp1"} {
		n.Devices[name].OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{
				{Prefix: pfx("203.0.113.0/28"), Area: 0},
				{Prefix: pfx("198.51.100.0/24"), Area: 0},
			},
			Passive: map[string]bool{"Gi0/2": true}}
	}
	s := Compute(n)
	got := map[RouteProto]bool{}
	for _, e := range s.RIB("edge") {
		if e.Prefix == pfx("198.51.100.0/24") {
			got[e.Proto] = true
			if e.Proto != BGP {
				t.Fatalf("BGP (AD 20) should beat OSPF (AD 110): %+v", e)
			}
		}
	}
	if !got[BGP] {
		t.Fatalf("BGP route missing:\n%s", s.FormatRIB("edge"))
	}

	// A static route displaces both.
	edge.StaticRoutes = append(edge.StaticRoutes, netmodel.StaticRoute{
		Prefix: pfx("198.51.100.0/24"), NextHop: ip("203.0.113.6")})
	s = Compute(n)
	for _, e := range s.RIB("edge") {
		if e.Prefix == pfx("198.51.100.0/24") && e.Proto != Static {
			t.Fatalf("static should win: %+v", e)
		}
	}
}
