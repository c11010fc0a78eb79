package netmodel

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestDeviceKindString(t *testing.T) {
	cases := map[DeviceKind]string{Router: "router", Switch: "switch", Host: "host"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := DeviceKind(9).String(); got != "DeviceKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestInterfaceSVI(t *testing.T) {
	itf := &Interface{Name: "Vlan10"}
	if !itf.IsSVI() {
		t.Fatal("Vlan10 should be an SVI")
	}
	if got := itf.SVIVLAN(); got != 10 {
		t.Fatalf("SVIVLAN() = %d, want 10", got)
	}
	phys := &Interface{Name: "GigabitEthernet0/0"}
	if phys.IsSVI() || phys.SVIVLAN() != 0 {
		t.Fatal("physical interface misclassified as SVI")
	}
}

func TestInterfaceCarriesVLAN(t *testing.T) {
	access := &Interface{Name: "Gi0/1", Mode: Access, AccessVLAN: 10}
	trunk := &Interface{Name: "Gi0/2", Mode: Trunk, TrunkVLANs: []int{10, 20}}
	routed := &Interface{Name: "Gi0/3", Mode: Routed}
	if !access.CarriesVLAN(10) || access.CarriesVLAN(20) {
		t.Error("access port VLAN carriage wrong")
	}
	if !trunk.CarriesVLAN(10) || !trunk.CarriesVLAN(20) || trunk.CarriesVLAN(30) {
		t.Error("trunk port VLAN carriage wrong")
	}
	if routed.CarriesVLAN(10) {
		t.Error("routed port should carry no VLAN")
	}
}

func TestACLEvaluateFirstMatchAndImplicitDeny(t *testing.T) {
	acl := &ACL{Name: "T"}
	acl.Entries = []ACLEntry{
		{Seq: 10, Action: Deny, Proto: TCP, Dst: mustPrefix(t, "10.0.0.0/24"), DstPort: 80},
		{Seq: 20, Action: Permit, Proto: AnyProto},
	}
	src := netip.MustParseAddr("192.168.1.1")
	web := netip.MustParseAddr("10.0.0.5")

	if got := acl.Evaluate(TCP, src, web, 1234, 80); got != Deny {
		t.Errorf("tcp/80 to 10.0.0.5 = %v, want deny (first match)", got)
	}
	if got := acl.Evaluate(TCP, src, web, 1234, 443); got != Permit {
		t.Errorf("tcp/443 = %v, want permit (second entry)", got)
	}
	empty := &ACL{Name: "E"}
	if got := empty.Evaluate(TCP, src, web, 0, 80); got != Deny {
		t.Errorf("empty ACL = %v, want implicit deny", got)
	}
}

func TestACLEntryMatchesFields(t *testing.T) {
	e := ACLEntry{
		Action: Permit, Proto: UDP,
		Src: mustPrefix(t, "10.1.0.0/16"), Dst: mustPrefix(t, "10.2.0.0/16"),
		SrcPort: 53, DstPort: 53,
	}
	s, d := netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("10.2.3.4")
	if !e.Matches(UDP, s, d, 53, 53) {
		t.Fatal("full match failed")
	}
	if e.Matches(TCP, s, d, 53, 53) {
		t.Error("protocol mismatch should fail")
	}
	if e.Matches(UDP, netip.MustParseAddr("10.9.0.1"), d, 53, 53) {
		t.Error("src mismatch should fail")
	}
	if e.Matches(UDP, s, d, 53, 54) {
		t.Error("dst port mismatch should fail")
	}
}

func TestACLInsertRemoveOrdering(t *testing.T) {
	acl := &ACL{Name: "X"}
	acl.InsertEntry(ACLEntry{Seq: 20, Action: Permit})
	acl.InsertEntry(ACLEntry{Seq: 10, Action: Deny})
	acl.InsertEntry(ACLEntry{Seq: 30, Action: Permit})
	if got := []int{acl.Entries[0].Seq, acl.Entries[1].Seq, acl.Entries[2].Seq}; !reflect.DeepEqual(got, []int{10, 20, 30}) {
		t.Fatalf("order after insert = %v", got)
	}
	// Replace in place.
	acl.InsertEntry(ACLEntry{Seq: 20, Action: Deny})
	if len(acl.Entries) != 3 || acl.Entries[1].Action != Deny {
		t.Fatal("duplicate seq should replace")
	}
	if !acl.RemoveEntry(20) || acl.RemoveEntry(99) {
		t.Fatal("RemoveEntry verdicts wrong")
	}
}

func TestOSPFEnabledAreaLongestMatch(t *testing.T) {
	o := &OSPFProcess{
		ProcessID: 1,
		Networks: []OSPFNetwork{
			{Prefix: mustPrefix(t, "10.0.0.0/8"), Area: 0},
			{Prefix: mustPrefix(t, "10.5.0.0/16"), Area: 5},
		},
	}
	if area, ok := o.EnabledArea(netip.MustParseAddr("10.5.1.1")); !ok || area != 5 {
		t.Fatalf("10.5.1.1 -> area %d ok=%v, want 5 true", area, ok)
	}
	if area, ok := o.EnabledArea(netip.MustParseAddr("10.9.1.1")); !ok || area != 0 {
		t.Fatalf("10.9.1.1 -> area %d ok=%v, want 0 true", area, ok)
	}
	if _, ok := o.EnabledArea(netip.MustParseAddr("192.168.1.1")); ok {
		t.Fatal("address outside all networks should be disabled")
	}
}

func TestNetworkConnectAndNeighbors(t *testing.T) {
	n := NewNetwork("t")
	n.AddDevice("r1", Router)
	n.AddDevice("r2", Router)
	n.AddDevice("h1", Host)
	if err := n.Connect("r1", "Gi0/0", "r2", "Gi0/0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("r1", "Gi0/1", "h1", "eth0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("r1", "Gi0/0", "h1", "eth1"); err == nil {
		t.Fatal("double-cabling an interface should fail")
	}
	if err := n.Connect("r1", "Gi0/9", "zz", "Gi0/0"); err == nil {
		t.Fatal("unknown device should fail")
	}
	if got := n.Neighbors("r1"); !reflect.DeepEqual(got, []string{"h1", "r2"}) {
		t.Fatalf("Neighbors(r1) = %v", got)
	}
	l := n.LinkAt("r2", "Gi0/0")
	if l == nil {
		t.Fatal("LinkAt returned nil")
	}
	other, ok := l.Other("r2")
	if !ok || other.Device != "r1" {
		t.Fatalf("Other(r2) = %v, %v", other, ok)
	}
	if _, ok := l.Other("h1"); ok {
		t.Fatal("Other on unrelated device should report false")
	}
}

func TestNetworkValidate(t *testing.T) {
	n := NewNetwork("t")
	r1 := n.AddDevice("r1", Router)
	r2 := n.AddDevice("r2", Router)
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	r1.Interfaces["Gi0/0"].Addr = mustPrefix(t, "10.0.0.1/30")
	r2.Interfaces["Gi0/0"].Addr = mustPrefix(t, "10.0.0.2/30")
	if err := n.Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	r2.Interfaces["Gi0/0"].Addr = mustPrefix(t, "10.0.0.1/30")
	if err := n.Validate(); err == nil {
		t.Fatal("duplicate address accepted")
	}
	// A shut-down duplicate is tolerated.
	r2.Interfaces["Gi0/0"].Shutdown = true
	if err := n.Validate(); err != nil {
		t.Fatalf("shutdown duplicate rejected: %v", err)
	}
	n.Links = append(n.Links, &Link{A: Endpoint{"ghost", "x"}, B: Endpoint{"r1", "Gi0/0"}})
	if err := n.Validate(); err == nil {
		t.Fatal("dangling link accepted")
	}
}

func TestNetworkCloneIsDeep(t *testing.T) {
	n := NewNetwork("prod")
	r1 := n.AddDevice("r1", Router)
	r1.AddInterface("Gi0/0").Addr = mustPrefix(t, "10.0.0.1/24")
	r1.ACL("A", true).InsertEntry(ACLEntry{Seq: 10, Action: Permit})
	r1.StaticRoutes = append(r1.StaticRoutes, StaticRoute{Prefix: mustPrefix(t, "0.0.0.0/0"), NextHop: netip.MustParseAddr("10.0.0.254")})
	r1.OSPF = &OSPFProcess{ProcessID: 1, Passive: map[string]bool{"Gi0/0": true}}
	r1.Secrets["enable"] = "hunter2"
	r1.VLANs[10] = &VLAN{ID: 10, Name: "users"}
	n.AddDevice("h1", Host)
	n.MustConnect("r1", "Gi0/1", "h1", "eth0")

	c := n.Clone()
	// Mutate the clone; the original must not change.
	c.Devices["r1"].Interfaces["Gi0/0"].Shutdown = true
	c.Devices["r1"].ACLs["A"].Entries[0].Action = Deny
	c.Devices["r1"].StaticRoutes[0].Distance = 250
	c.Devices["r1"].OSPF.Passive["Gi0/1"] = true
	c.Devices["r1"].Secrets["enable"] = "changed"
	c.Devices["r1"].VLANs[10].Name = "evil"

	if r1.Interfaces["Gi0/0"].Shutdown {
		t.Error("interface mutation leaked")
	}
	if r1.ACLs["A"].Entries[0].Action != Permit {
		t.Error("ACL mutation leaked")
	}
	if r1.StaticRoutes[0].Distance != 0 {
		t.Error("static route mutation leaked")
	}
	if r1.OSPF.Passive["Gi0/1"] {
		t.Error("OSPF mutation leaked")
	}
	if r1.Secrets["enable"] != "hunter2" {
		t.Error("secret mutation leaked")
	}
	if r1.VLANs[10].Name != "users" {
		t.Error("VLAN mutation leaked")
	}
}

func TestPathsBetween(t *testing.T) {
	// h1 - r1 - r2 - r3 - h2, with a detour r1 - r4 - r3.
	n := NewNetwork("t")
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.AddDevice(r, Router)
	}
	n.AddDevice("h1", Host)
	n.AddDevice("h2", Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("r3", "Gi0/1", "h2", "eth0")
	n.MustConnect("r1", "Gi0/2", "r4", "Gi0/0")
	n.MustConnect("r4", "Gi0/1", "r3", "Gi0/2")

	slice := n.PathsBetween("h1", "h2", 0)
	for _, want := range []string{"h1", "r1", "r2", "r3", "h2", "r4"} {
		if !slice[want] {
			t.Errorf("shortest-path slice missing %s (detour same length)", want)
		}
	}

	// Disconnect case.
	n2 := NewNetwork("t2")
	n2.AddDevice("a", Host)
	n2.AddDevice("b", Host)
	if got := n2.PathsBetween("a", "b", 5); len(got) != 0 {
		t.Fatalf("disconnected slice = %v, want empty", got)
	}
}

func TestHostHelpers(t *testing.T) {
	n := NewNetwork("t")
	h := n.AddDevice("h1", Host)
	h.AddInterface("eth0").Addr = mustPrefix(t, "10.1.0.5/24")
	n.AddDevice("r1", Router)
	if hosts := n.Hosts(); !reflect.DeepEqual(hosts, []string{"h1"}) {
		t.Fatalf("Hosts() = %v", hosts)
	}
	if infra := n.RoutersAndSwitches(); !reflect.DeepEqual(infra, []string{"r1"}) {
		t.Fatalf("RoutersAndSwitches() = %v", infra)
	}
	a, ok := n.HostAddr("h1")
	if !ok || a != netip.MustParseAddr("10.1.0.5") {
		t.Fatalf("HostAddr = %v %v", a, ok)
	}
	if _, ok := n.HostAddr("r1"); ok {
		t.Fatal("HostAddr on router should fail")
	}
}

// randomACL builds a deterministic pseudo-random ACL for property tests.
func randomACL(r *rand.Rand, entries int) *ACL {
	acl := &ACL{Name: "P"}
	for i := 0; i < entries; i++ {
		e := ACLEntry{
			Seq:    (i + 1) * 10,
			Action: ACLAction(r.Intn(2)),
			Proto:  Protocol(r.Intn(4)),
		}
		if r.Intn(2) == 0 {
			e.Src = netip.PrefixFrom(randomAddr(r), 8+r.Intn(25))
		}
		if r.Intn(2) == 0 {
			e.Dst = netip.PrefixFrom(randomAddr(r), 8+r.Intn(25))
		}
		if e.Proto == TCP || e.Proto == UDP {
			if r.Intn(2) == 0 {
				e.DstPort = uint16(1 + r.Intn(65535))
			}
		}
		acl.Entries = append(acl.Entries, e)
	}
	return acl
}

func randomAddr(r *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(10 + r.Intn(3)), byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))})
}

// Property: an ACL verdict equals the action of its first matching entry;
// with no matching entry it is Deny.
func TestACLFirstMatchProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		acl := randomACL(r, 1+r.Intn(12))
		proto := Protocol(r.Intn(4))
		src, dst := randomAddr(r), randomAddr(r)
		sport, dport := uint16(r.Intn(65536)), uint16(r.Intn(65536))
		want := Deny
		for i := range acl.Entries {
			if acl.Entries[i].Matches(proto, src, dst, sport, dport) {
				want = acl.Entries[i].Action
				break
			}
		}
		if got := acl.Evaluate(proto, src, dst, sport, dport); got != want {
			t.Fatalf("trial %d: Evaluate = %v, want %v", trial, got, want)
		}
	}
}

// Property: inserting entries in any order yields a sequence-sorted list.
func TestACLInsertKeepsSorted(t *testing.T) {
	f := func(seqs []uint8) bool {
		acl := &ACL{Name: "Q"}
		for _, s := range seqs {
			acl.InsertEntry(ACLEntry{Seq: int(s), Action: Permit})
		}
		for i := 1; i < len(acl.Entries); i++ {
			if acl.Entries[i-1].Seq >= acl.Entries[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone produces a structurally equal but aliasing-free network.
func TestCloneEqualProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := NewNetwork("p")
		nDev := 2 + r.Intn(5)
		for i := 0; i < nDev; i++ {
			d := n.AddDevice(string(rune('a'+i)), DeviceKind(r.Intn(3)))
			d.AddInterface("Gi0/0").Addr = netip.PrefixFrom(randomAddr(r), 24)
			d.ACLs["A"] = randomACL(r, r.Intn(4))
		}
		c := n.Clone()
		if !reflect.DeepEqual(n.DeviceNames(), c.DeviceNames()) {
			t.Fatal("device names differ after clone")
		}
		for _, name := range n.DeviceNames() {
			if !reflect.DeepEqual(n.Devices[name].ACLs["A"].Entries, c.Devices[name].ACLs["A"].Entries) {
				t.Fatal("ACL entries differ after clone")
			}
			if len(n.Devices[name].ACLs["A"].Entries) > 0 &&
				&n.Devices[name].ACLs["A"].Entries[0] == &c.Devices[name].ACLs["A"].Entries[0] {
				t.Fatal("clone aliases original ACL storage")
			}
		}
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	for _, p := range []Protocol{AnyProto, TCP, UDP, ICMP} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("gre"); err == nil {
		t.Error("unknown protocol should error")
	}
}
