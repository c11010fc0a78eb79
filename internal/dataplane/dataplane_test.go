package dataplane

import (
	"math/rand"
	"net/netip"
	"testing"

	"heimdall/internal/netmodel"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// threeRouterNet builds h1 - r1 - r2 - r3 - h2 with OSPF everywhere,
// a second path r1 - r3 for ECMP/failover tests.
//
//	h1 --- r1 --- r2 --- r3 --- h2
//	        \___________/
func threeRouterNet() *netmodel.Network {
	n := netmodel.NewNetwork("three")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	r3 := n.AddDevice("r3", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	h2 := n.AddDevice("h2", netmodel.Host)

	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("r3", "Gi0/1", "h2", "eth0")
	n.MustConnect("r1", "Gi0/2", "r3", "Gi0/2")

	set := func(d *netmodel.Device, ifName, addr string) {
		itf := d.Interface(ifName)
		itf.Addr = pfx(addr)
		itf.Shutdown = false
	}
	set(h1, "eth0", "10.1.0.10/24")
	h1.DefaultGateway = ip("10.1.0.1")
	set(r1, "Gi0/0", "10.1.0.1/24")
	set(r1, "Gi0/1", "10.0.12.1/30")
	set(r1, "Gi0/2", "10.0.13.1/30")
	set(r2, "Gi0/0", "10.0.12.2/30")
	set(r2, "Gi0/1", "10.0.23.2/30")
	set(r3, "Gi0/0", "10.0.23.3/30")
	set(r3, "Gi0/1", "10.2.0.1/24")
	set(r3, "Gi0/2", "10.0.13.3/30")
	set(h2, "eth0", "10.2.0.10/24")
	h2.DefaultGateway = ip("10.2.0.1")

	for _, r := range []*netmodel.Device{r1, r2, r3} {
		r.OSPF = &netmodel.OSPFProcess{
			ProcessID: 1,
			Networks:  []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/8"), Area: 0}},
			Passive:   map[string]bool{},
		}
	}
	// Host-facing interfaces are passive (advertised, no adjacency).
	r1.OSPF.Passive["Gi0/0"] = true
	r3.OSPF.Passive["Gi0/1"] = true
	return n
}

func TestOSPFEndToEndReachability(t *testing.T) {
	n := threeRouterNet()
	s := Compute(n)
	tr, err := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Delivered() {
		t.Fatalf("h1->h2 not delivered: %s", tr)
	}
	// Direct path h1,r1,r3,h2 beats h1,r1,r2,r3,h2.
	path := tr.Path()
	if len(path) != 4 || path[0] != "h1" || path[1] != "r1" || path[2] != "r3" || path[3] != "h2" {
		t.Fatalf("path = %v, want [h1 r1 r3 h2]", path)
	}
	// Reverse direction too.
	back, _ := s.Reach("h2", "h1", netmodel.ICMP, 0)
	if !back.Delivered() {
		t.Fatalf("h2->h1 not delivered: %s", back)
	}
}

func TestOSPFFailover(t *testing.T) {
	n := threeRouterNet()
	// Kill the shortcut r1-r3 link.
	n.Devices["r1"].Interface("Gi0/2").Shutdown = true
	s := Compute(n)
	tr, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if !tr.Delivered() {
		t.Fatalf("h1->h2 should fail over via r2: %s", tr)
	}
	if !tr.Traverses("r2") {
		t.Fatalf("failover path should traverse r2, got %v", tr.Path())
	}
}

func TestOSPFAreaMismatchBreaksAdjacency(t *testing.T) {
	n := threeRouterNet()
	// Put r2 entirely in area 1: r1-r2 and r2-r3 adjacencies fail.
	n.Devices["r2"].OSPF.Networks = []netmodel.OSPFNetwork{{Prefix: pfx("10.0.0.0/8"), Area: 1}}
	// Also kill the shortcut so there is no alternative.
	n.Devices["r1"].Interface("Gi0/2").Shutdown = true
	n.Devices["r3"].Interface("Gi0/2").Shutdown = true
	s := Compute(n)
	tr, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Fatalf("area mismatch should break reachability: %s", tr)
	}
}

func TestOSPFPassiveInterfaceFormsNoAdjacency(t *testing.T) {
	n := threeRouterNet()
	n.Devices["r1"].Interface("Gi0/2").Shutdown = true
	n.Devices["r3"].Interface("Gi0/2").Shutdown = true
	// Make r2's link to r3 passive: r2-r3 adjacency disappears.
	n.Devices["r2"].OSPF.Passive["Gi0/1"] = true
	s := Compute(n)
	tr, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Fatalf("passive interface should break the only path: %s", tr)
	}
}

func TestInterfaceDownBreaksReachability(t *testing.T) {
	n := threeRouterNet()
	n.Devices["r1"].Interface("Gi0/0").Shutdown = true // host-facing
	s := Compute(n)
	tr, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Fatal("h1's gateway interface is down; traffic should not deliver")
	}
}

func TestACLDropsAtIngressAndEgress(t *testing.T) {
	n := threeRouterNet()
	r3 := n.Devices["r3"]
	acl := r3.ACL("BLOCK-WEB", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.TCP,
		Dst: pfx("10.2.0.10/32"), DstPort: 80})
	acl.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	r3.Interface("Gi0/2").ACLIn = "BLOCK-WEB"
	r3.Interface("Gi0/0").ACLIn = "BLOCK-WEB"

	s := Compute(n)
	web, _ := s.Reach("h1", "h2", netmodel.TCP, 80)
	if web.Delivered() || web.Disposition != DropACL || web.Where != "r3" {
		t.Fatalf("tcp/80 should be ACL-dropped at r3: %s", web)
	}
	ssh, _ := s.Reach("h1", "h2", netmodel.TCP, 22)
	if !ssh.Delivered() {
		t.Fatalf("tcp/22 should pass: %s", ssh)
	}

	// Egress direction.
	r3.Interface("Gi0/2").ACLIn = ""
	r3.Interface("Gi0/0").ACLIn = ""
	r3.Interface("Gi0/1").ACLOut = "BLOCK-WEB"
	s2 := Compute(n)
	web2, _ := s2.Reach("h1", "h2", netmodel.TCP, 80)
	if web2.Disposition != DropACL {
		t.Fatalf("egress ACL should drop: %s", web2)
	}
}

func TestStaticRouteAndNoRoute(t *testing.T) {
	n := netmodel.NewNetwork("static")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	h2 := n.AddDevice("h2", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "h2", "eth0")

	h1.Interface("eth0").Addr = pfx("10.1.0.10/24")
	h1.DefaultGateway = ip("10.1.0.1")
	r1.Interface("Gi0/0").Addr = pfx("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = pfx("10.0.12.1/30")
	r2.Interface("Gi0/0").Addr = pfx("10.0.12.2/30")
	r2.Interface("Gi0/1").Addr = pfx("10.2.0.1/24")
	h2.Interface("eth0").Addr = pfx("10.2.0.10/24")
	h2.DefaultGateway = ip("10.2.0.1")

	// Forward direction only: r1 knows 10.2/16, r2 lacks the return route.
	r1.StaticRoutes = []netmodel.StaticRoute{{Prefix: pfx("10.2.0.0/16"), NextHop: ip("10.0.12.2")}}

	s := Compute(n)
	fwd, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if !fwd.Delivered() {
		t.Fatalf("forward with static route should deliver: %s", fwd)
	}
	back, _ := s.Reach("h2", "h1", netmodel.ICMP, 0)
	if back.Delivered() || back.Disposition != DropNoRoute || back.Where != "r2" {
		t.Fatalf("return without route should drop at r2: %s", back)
	}

	// Inactive static route: next hop not on a connected subnet.
	r2.StaticRoutes = []netmodel.StaticRoute{{Prefix: pfx("10.1.0.0/16"), NextHop: ip("192.168.99.1")}}
	s2 := Compute(n)
	back2, _ := s2.Reach("h2", "h1", netmodel.ICMP, 0)
	if back2.Delivered() {
		t.Fatal("unresolvable static route should stay inactive")
	}
}

func TestRoutingLoopDetected(t *testing.T) {
	n := netmodel.NewNetwork("loop")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	h1.Interface("eth0").Addr = pfx("10.1.0.10/24")
	h1.DefaultGateway = ip("10.1.0.1")
	r1.Interface("Gi0/0").Addr = pfx("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = pfx("10.0.12.1/30")
	r2.Interface("Gi0/0").Addr = pfx("10.0.12.2/30")
	// Mutual default routes: 9.9.9.9 ping-pongs between r1 and r2.
	r1.StaticRoutes = []netmodel.StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: ip("10.0.12.2")}}
	r2.StaticRoutes = []netmodel.StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: ip("10.0.12.1")}}

	s := Compute(n)
	tr := s.TraceFrom("h1", Flow{Proto: netmodel.ICMP, Src: ip("10.1.0.10"), Dst: ip("9.9.9.9")})
	if tr.Disposition != DropLoop {
		t.Fatalf("expected loop, got %s", tr)
	}
}

// vlanNet builds two hosts on a two-switch fabric:
//
//	h10 -- sw1 ==trunk== sw2 -- h20   (h10 vlan 10, h20 vlan 20)
//	sw1 has SVIs for vlan 10 and 20 and routes between them.
func vlanNet() *netmodel.Network {
	n := netmodel.NewNetwork("vlan")
	sw1 := n.AddDevice("sw1", netmodel.Switch)
	sw2 := n.AddDevice("sw2", netmodel.Switch)
	h10 := n.AddDevice("h10", netmodel.Host)
	h20 := n.AddDevice("h20", netmodel.Host)

	n.MustConnect("h10", "eth0", "sw1", "Gi1/0/1")
	n.MustConnect("h20", "eth0", "sw2", "Gi1/0/1")
	n.MustConnect("sw1", "Gi1/0/24", "sw2", "Gi1/0/24")

	for _, sw := range []*netmodel.Device{sw1, sw2} {
		sw.VLANs[10] = &netmodel.VLAN{ID: 10, Name: "users"}
		sw.VLANs[20] = &netmodel.VLAN{ID: 20, Name: "servers"}
	}
	p := sw1.Interface("Gi1/0/1")
	p.Mode, p.AccessVLAN = netmodel.Access, 10
	p = sw2.Interface("Gi1/0/1")
	p.Mode, p.AccessVLAN = netmodel.Access, 20
	for _, sw := range []*netmodel.Device{sw1, sw2} {
		tr := sw.Interface("Gi1/0/24")
		tr.Mode, tr.TrunkVLANs = netmodel.Trunk, []int{10, 20}
	}
	svi10 := sw1.AddInterface("Vlan10")
	svi10.Addr = pfx("10.10.0.1/24")
	svi20 := sw1.AddInterface("Vlan20")
	svi20.Addr = pfx("10.20.0.1/24")

	h10.Interface("eth0").Addr = pfx("10.10.0.5/24")
	h10.DefaultGateway = ip("10.10.0.1")
	h20.Interface("eth0").Addr = pfx("10.20.0.5/24")
	h20.DefaultGateway = ip("10.20.0.1")
	return n
}

func TestInterVLANRoutingViaSVI(t *testing.T) {
	n := vlanNet()
	s := Compute(n)
	tr, err := s.Reach("h10", "h20", netmodel.ICMP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Delivered() {
		t.Fatalf("inter-VLAN via SVI should deliver: %s", tr)
	}
	if !tr.Traverses("sw1") {
		t.Fatalf("path should route through sw1's SVIs, got %v", tr.Path())
	}
}

func TestWrongAccessVLANBreaksConnectivity(t *testing.T) {
	n := vlanNet()
	// Misconfigure h20's port into vlan 30: it leaves the 20 domain.
	n.Devices["sw2"].Interface("Gi1/0/1").AccessVLAN = 30
	s := Compute(n)
	tr, _ := s.Reach("h10", "h20", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Fatalf("wrong access VLAN should strand h20: %s", tr)
	}
}

func TestTrunkMissingVLANBreaksConnectivity(t *testing.T) {
	n := vlanNet()
	// Trunk drops vlan 20: frames from sw1's SVI20 cannot reach sw2.
	n.Devices["sw1"].Interface("Gi1/0/24").TrunkVLANs = []int{10}
	s := Compute(n)
	tr, _ := s.Reach("h10", "h20", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Fatalf("trunk without vlan 20 should break: %s", tr)
	}
}

func TestSameVLANAcrossSwitches(t *testing.T) {
	n := vlanNet()
	// Move h20 into vlan 10 with a vlan-10 address: pure L2 path.
	n.Devices["sw2"].Interface("Gi1/0/1").AccessVLAN = 10
	n.Devices["h20"].Interface("eth0").Addr = pfx("10.10.0.6/24")
	n.Devices["h20"].DefaultGateway = ip("10.10.0.1")
	s := Compute(n)
	tr, _ := s.Reach("h10", "h20", netmodel.ICMP, 0)
	if !tr.Delivered() {
		t.Fatalf("same-VLAN hosts should reach at L2: %s", tr)
	}
	// Direct L2: no routed hop between the hosts.
	if tr.Traverses("sw1") || tr.Traverses("sw2") {
		t.Fatalf("L2 path should not show switch hops, got %v", tr.Path())
	}
}

func TestRIBContents(t *testing.T) {
	n := threeRouterNet()
	s := Compute(n)
	rib := s.RIB("r1")
	var haveConnected, haveOSPF bool
	for _, e := range rib {
		switch {
		case e.Proto == Connected && e.Prefix == pfx("10.1.0.0/24"):
			haveConnected = true
		case e.Proto == OSPF && e.Prefix == pfx("10.2.0.0/24"):
			haveOSPF = true
			if e.AD != 110 {
				t.Errorf("OSPF AD = %d, want 110", e.AD)
			}
			if e.NextHop != ip("10.0.13.3") {
				t.Errorf("OSPF next hop = %s, want 10.0.13.3 (direct path)", e.NextHop)
			}
		}
	}
	if !haveConnected || !haveOSPF {
		t.Fatalf("RIB missing expected routes:\n%s", s.FormatRIB("r1"))
	}
	if s.FormatRIB("nope") != "% no routing table" {
		t.Error("unknown device should render an error")
	}
}

func TestECMPKeptInRIB(t *testing.T) {
	// Diamond: r1 -> {r2, r3} -> r4, equal cost to r4's subnet.
	n := netmodel.NewNetwork("diamond")
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		n.AddDevice(name, netmodel.Router)
	}
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r4", "Gi0/0")
	n.MustConnect("r3", "Gi0/1", "r4", "Gi0/1")
	addr := map[string]string{
		"r1:Gi0/0": "10.0.12.1/30", "r2:Gi0/0": "10.0.12.2/30",
		"r1:Gi0/1": "10.0.13.1/30", "r3:Gi0/0": "10.0.13.2/30",
		"r2:Gi0/1": "10.0.24.1/30", "r4:Gi0/0": "10.0.24.2/30",
		"r3:Gi0/1": "10.0.34.1/30", "r4:Gi0/1": "10.0.34.2/30",
	}
	for k, v := range addr {
		dev, ifn, _ := cut(k)
		n.Devices[dev].Interface(ifn).Addr = pfx(v)
	}
	lo := n.Devices["r4"].AddInterface("Loopback0")
	lo.Addr = pfx("4.4.4.4/32")
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		n.Devices[name].OSPF = &netmodel.OSPFProcess{
			ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{
				{Prefix: pfx("10.0.0.0/8"), Area: 0},
				{Prefix: pfx("4.4.4.4/32"), Area: 0},
			},
			Passive: map[string]bool{"Loopback0": true},
		}
	}
	s := Compute(n)
	var hops int
	for _, e := range s.RIB("r1") {
		if e.Proto == OSPF && e.Prefix == pfx("4.4.4.4/32") {
			hops++
		}
	}
	if hops != 2 {
		t.Fatalf("expected 2 ECMP next hops to 4.4.4.4/32, got %d:\n%s", hops, s.FormatRIB("r1"))
	}
}

func cut(s string) (string, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

func TestLPMBasics(t *testing.T) {
	var entries []FIBEntry
	for _, p := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "0.0.0.0/0"} {
		entries = append(entries, FIBEntry{Prefix: pfx(p), Proto: Connected})
	}
	rs := rowsOf(entries)
	l := newLPM(rs.rows)

	cases := map[string]string{
		"10.1.2.3":  "10.1.2.0/24",
		"10.1.9.9":  "10.1.0.0/16",
		"10.9.9.9":  "10.0.0.0/8",
		"192.0.2.1": "0.0.0.0/0",
	}
	for addr, want := range cases {
		i, ok := l.lookup(ip(addr))
		if !ok || rs.rows[i].entry(rs.ifs).Prefix != pfx(want) {
			t.Errorf("lookup(%s) = %d %v, want %s", addr, i, ok, want)
		}
	}
	if len(l.slots) != 4 {
		t.Errorf("%d slots, want 4", len(l.slots))
	}
	// A second spelling of one network does not grow the table: the later
	// run in RIB order takes the slot.
	rs = rowsOf(append(entries, FIBEntry{Prefix: netip.PrefixFrom(ip("10.1.2.7"), 24), Proto: Connected}))
	l = newLPM(rs.rows)
	if i, ok := l.lookup(ip("10.1.2.3")); len(l.slots) != 4 || !ok || rs.rows[i].entry(rs.ifs).Prefix.Addr() != ip("10.1.2.7") {
		t.Errorf("%d slots, lookup(10.1.2.3) = %d %v, want 4 slots and the 10.1.2.7/24 run", len(l.slots), i, ok)
	}

	var empty lpm
	if _, ok := empty.lookup(ip("10.0.0.1")); ok {
		t.Error("empty table should miss")
	}
}

// linearLookup is the LPM reference: scan every inserted prefix, keep the
// longest one containing a; among equal (masked) prefixes the last insert
// wins. It returns that insert's position, or -1 on a miss.
func linearLookup(inserted []netip.Prefix, a netip.Addr) int {
	best := -1
	for i, p := range inserted {
		if p.Contains(a) && (best < 0 || p.Bits() >= inserted[best].Bits()) {
			best = i
		}
	}
	return best
}

// checkLPM fills the table from rows holding one route per insert, in
// insert order, and compares its size and every probe's lookup with the
// linear reference. Rows carry their insert position in metric, which is
// how a replaced prefix is told from its replacement; adjacent equal
// prefixes are one ECMP run, so the winner is the last row of the run the
// lookup finds.
func checkLPM(t *testing.T, inserted []netip.Prefix, probes []netip.Addr) {
	t.Helper()
	rows := make([]route, len(inserted))
	distinct := map[netip.Prefix]bool{}
	for i, p := range inserted {
		rows[i], _ = newRoute(p, Connected, netip.Addr{}, 0, 0, i)
		distinct[p.Masked()] = true
	}
	l := newLPM(rows)
	if len(l.slots) != len(distinct) {
		t.Fatalf("%d slots, want %d distinct prefixes of %v", len(l.slots), len(distinct), inserted)
	}
	lookup := func(a netip.Addr) (int, bool) {
		i, ok := l.lookup(a)
		if !ok {
			return -1, false
		}
		return rows[runEnd(rows, i)-1].metric, true
	}
	for _, a := range probes {
		want := linearLookup(inserted, a)
		if got, ok := lookup(a); ok != (want >= 0) || got != want {
			t.Fatalf("lookup(%s) = insert %d %v, want insert %d of %v", a, got, ok, want, inserted)
		}
		// 4-in-6 is the same destination; any other IPv6 address matches
		// nothing, not even a default route.
		if got, ok := lookup(netip.AddrFrom16(a.As16())); ok != (want >= 0) || got != want {
			t.Fatalf("lookup(4-in-6 %s) = insert %d %v, want insert %d", a, got, ok, want)
		}
	}
	if got, ok := lookup(netip.IPv6Loopback()); ok {
		t.Fatalf("lookup(::1) = insert %d, want a miss", got)
	}
}

// Property: LPM lookup equals a linear longest-prefix scan, including the
// default route, host routes, and a prefix inserted twice (replaced in
// place, Len unchanged).
func TestLPMMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	randAddr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	for trial := 0; trial < 40; trial++ {
		var inserted []netip.Prefix
		var probes []netip.Addr
		for i := 0; i < 30; i++ {
			// Unmasked on purpose: Insert masks, and two spellings of one
			// network are one prefix.
			inserted = append(inserted, netip.PrefixFrom(randAddr(), r.Intn(33)))
		}
		if trial%2 == 0 {
			inserted = append(inserted, pfx("0.0.0.0/0"))
		}
		host := randAddr()
		inserted = append(inserted, netip.PrefixFrom(host, 32))
		probes = append(probes, host)
		// Replace three earlier inserts in place.
		for i := 0; i < 3; i++ {
			inserted = append(inserted, inserted[r.Intn(len(inserted))])
		}
		for i := 0; i < 50; i++ {
			probes = append(probes, randAddr())
		}
		for _, p := range inserted {
			probes = append(probes, p.Addr(), p.Masked().Addr())
		}
		checkLPM(t, inserted, probes)
	}
}

// FuzzLPM holds the flat table to the linear scan on arbitrary prefix sets:
// every 5 input bytes are one insert (address, length mod 33); each insert's
// address, network address and last address are probed.
func FuzzLPM(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3, 24, 10, 1, 0, 0, 16, 0, 0, 0, 0, 0, 10, 1, 2, 9, 32})
	f.Add([]byte{10, 1, 2, 3, 24, 10, 1, 2, 77, 24, 255, 255, 255, 255, 32})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var inserted []netip.Prefix
		var probes []netip.Addr
		for ; len(data) >= 5 && len(inserted) < 64; data = data[5:] {
			a := netip.AddrFrom4([4]byte(data[:4]))
			p := netip.PrefixFrom(a, int(data[4])%33)
			inserted = append(inserted, p)
			v := addrBits(p.Masked().Addr()) | ^(^uint32(0) << (32 - uint(p.Bits())))
			last := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
			probes = append(probes, a, p.Masked().Addr(), last, last.Next())
		}
		checkLPM(t, inserted, probes)
	})
}

// Property: shutting down any single transit interface never yields a
// "delivered with missing hops" inconsistency — every trace either delivers
// with a coherent hop list or reports a drop with a location.
func TestTraceCoherenceUnderFaults(t *testing.T) {
	base := threeRouterNet()
	for _, dev := range base.RoutersAndSwitches() {
		for _, ifName := range base.Devices[dev].InterfaceNames() {
			n := base.Clone()
			n.Devices[dev].Interfaces[ifName].Shutdown = true
			s := Compute(n)
			tr, err := s.Reach("h1", "h2", netmodel.ICMP, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Delivered() {
				last := tr.Hops[len(tr.Hops)-1]
				if last.Device != "h2" {
					t.Fatalf("fault %s:%s: delivered but last hop %v", dev, ifName, last)
				}
			} else if tr.Where == "" {
				t.Fatalf("fault %s:%s: drop without location: %s", dev, ifName, tr)
			}
			if len(tr.Hops) == 0 {
				t.Fatalf("fault %s:%s: empty hop list", dev, ifName)
			}
		}
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{Proto: netmodel.TCP, Src: ip("10.1.0.5"), SrcPort: 40000, Dst: ip("10.2.0.9"), DstPort: 80}
	if got := f.String(); got != "tcp 10.1.0.5:40000 -> 10.2.0.9:80" {
		t.Fatalf("Flow.String() = %q", got)
	}
	tr := &Trace{Flow: f, Disposition: DropACL, Where: "r3", Detail: "acl X in on Gi0/0",
		Hops: []Hop{{Device: "h1"}, {Device: "r3"}}}
	if tr.String() == "" || tr.Delivered() {
		t.Fatal("trace string/delivered wrong")
	}
}

func TestDispositionString(t *testing.T) {
	for d, want := range map[Disposition]string{
		Delivered: "delivered", DropNoRoute: "no-route", DropACL: "acl-deny",
		DropARPFail: "arp-fail", DropLoop: "loop",
	} {
		if d.String() != want {
			t.Errorf("%d = %q, want %q", int(d), d.String(), want)
		}
	}
}
