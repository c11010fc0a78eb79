package config

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

const sampleRouter = `! kind: router
hostname r3
enable secret s3cr3t
!
interface GigabitEthernet0/0
 description to r2
 ip address 10.0.23.3 255.255.255.252
 no shutdown
!
interface GigabitEthernet0/1
 description to r4
 ip address 10.0.34.3 255.255.255.252
 ip access-group CORE-IN in
 no shutdown
!
ip access-list extended CORE-IN
 10 deny tcp any host 10.4.0.10 eq 80
 20 permit ip any any
!
ip route 10.9.0.0 255.255.0.0 10.0.23.2
ip route 0.0.0.0 0.0.0.0 10.0.23.2 200
!
router ospf 1
 router-id 3.3.3.3
 network 10.0.0.0 0.0.255.255 area 0
 passive-interface GigabitEthernet0/1
!
`

func TestParseRouter(t *testing.T) {
	d, err := Parse("r3", sampleRouter)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != netmodel.Router || d.Name != "r3" {
		t.Fatalf("kind/name = %v/%s", d.Kind, d.Name)
	}
	g0 := d.Interface("GigabitEthernet0/0")
	if g0 == nil || g0.Addr.String() != "10.0.23.3/30" || g0.Shutdown {
		t.Fatalf("Gi0/0 parsed wrong: %+v", g0)
	}
	g1 := d.Interface("GigabitEthernet0/1")
	if g1.ACLIn != "CORE-IN" {
		t.Fatalf("Gi0/1 ACLIn = %q", g1.ACLIn)
	}
	acl := d.ACL("CORE-IN", false)
	if acl == nil || len(acl.Entries) != 2 {
		t.Fatalf("ACL parsed wrong: %+v", acl)
	}
	e := acl.Entries[0]
	if e.Action != netmodel.Deny || e.Proto != netmodel.TCP || e.DstPort != 80 ||
		e.Dst.String() != "10.4.0.10/32" || e.Src.IsValid() {
		t.Fatalf("entry 10 parsed wrong: %+v", e)
	}
	if len(d.StaticRoutes) != 2 {
		t.Fatalf("routes = %+v", d.StaticRoutes)
	}
	// Routes are canonically sorted; the default route sorts first.
	if d.StaticRoutes[0].Distance != 200 || d.StaticRoutes[0].Prefix.String() != "0.0.0.0/0" {
		t.Fatalf("default route parsed wrong: %+v", d.StaticRoutes[0])
	}
	if d.OSPF == nil || d.OSPF.RouterID != netip.MustParseAddr("3.3.3.3") {
		t.Fatalf("OSPF parsed wrong: %+v", d.OSPF)
	}
	if !d.OSPF.Passive["GigabitEthernet0/1"] {
		t.Fatal("passive-interface missing")
	}
	area, ok := d.OSPF.EnabledArea(netip.MustParseAddr("10.0.23.3"))
	if !ok || area != 0 {
		t.Fatalf("OSPF network statement wrong: area=%d ok=%v", area, ok)
	}
	if d.Secrets["enable"] != "s3cr3t" {
		t.Fatal("enable secret not captured")
	}
}

func TestParseSwitchAndHost(t *testing.T) {
	sw, err := Parse("sw1", `! kind: switch
hostname sw1
vlan 10
 name users
vlan 20
 name servers
!
interface GigabitEthernet1/0/1
 switchport mode access
 switchport access vlan 10
 no shutdown
!
interface GigabitEthernet1/0/24
 switchport mode trunk
 switchport trunk allowed vlan 10,20
 no shutdown
!
interface Vlan10
 ip address 10.10.0.1 255.255.255.0
 no shutdown
!
`)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Kind != netmodel.Switch {
		t.Fatalf("kind = %v", sw.Kind)
	}
	if sw.VLANs[10].Name != "users" || sw.VLANs[20].Name != "servers" {
		t.Fatalf("VLANs = %+v", sw.VLANs)
	}
	if got := sw.Interface("GigabitEthernet1/0/1"); got.Mode != netmodel.Access || got.AccessVLAN != 10 {
		t.Fatalf("access port = %+v", got)
	}
	if got := sw.Interface("GigabitEthernet1/0/24"); got.Mode != netmodel.Trunk || !reflect.DeepEqual(got.TrunkVLANs, []int{10, 20}) {
		t.Fatalf("trunk port = %+v", got)
	}
	if svi := sw.Interface("Vlan10"); !svi.IsSVI() || svi.Addr.String() != "10.10.0.1/24" {
		t.Fatalf("SVI = %+v", svi)
	}

	h, err := Parse("h1", `! kind: host
hostname h1
interface eth0
 ip address 10.10.0.5 255.255.255.0
 no shutdown
!
ip default-gateway 10.10.0.1
`)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != netmodel.Host || h.DefaultGateway != netip.MustParseAddr("10.10.0.1") {
		t.Fatalf("host = %+v", h)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"unknown top", "flurble\n"},
		{"orphan indent", " ip address 1.2.3.4 255.0.0.0\n"},
		{"bad vlan", "vlan nope\n"},
		{"bad route mask", "ip route 10.0.0.0 255.0.255.0 10.0.0.1\n"},
		{"bad acl action", "ip access-list extended A\n 10 block ip any any\n"},
		{"bad acl port", "ip access-list extended A\n 10 permit tcp any any eq 99999\n"},
		{"bad ospf area", "router ospf 1\n network 10.0.0.0 0.0.0.255 area x\n"},
		{"bad gateway", "ip default-gateway nope\n"},
		{"bad wildcard", "ip access-list extended A\n 10 permit ip 10.0.0.0 0.0.255.3 any\n"},
		{"bad iface stmt", "interface Gi0/0\n frobnicate\n"},
		{"bad direction", "interface Gi0/0\n ip access-group A sideways\n"},
	}
	for _, tc := range cases {
		if _, err := Parse("x", tc.text); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("%s: error is %T, want *ParseError", tc.name, err)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	d, err := Parse("r3", sampleRouter)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(d)
	d2, err := Parse("r3", text)
	if err != nil {
		t.Fatalf("re-parse of printed config failed: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("round trip changed the model.\noriginal: %+v\nreparsed: %+v\ntext:\n%s", d, d2, text)
	}
	// Printing is canonical: Print(Parse(Print(d))) == Print(d).
	if text2 := Print(d2); text2 != text {
		t.Fatalf("printing is not canonical:\n%s\nvs\n%s", text, text2)
	}
}

func TestCountLines(t *testing.T) {
	text := "hostname x\n!\n\ninterface Gi0/0\n ip address 1.2.3.4 255.0.0.0\n! comment\n"
	if got := CountLines(text); got != 3 {
		t.Fatalf("CountLines = %d, want 3", got)
	}
}

func TestSanitizeRedactsSecrets(t *testing.T) {
	d, _ := Parse("r3", sampleRouter)
	s := Sanitize(d)
	if s.Secrets["enable"] != "<redacted>" {
		t.Fatalf("secret not redacted: %q", s.Secrets["enable"])
	}
	if d.Secrets["enable"] != "s3cr3t" {
		t.Fatal("sanitize mutated the original")
	}
	if !strings.Contains(Print(s), "<redacted>") {
		t.Fatal("printed sanitized config leaks secret")
	}
}

func TestDiffDeviceAndApply(t *testing.T) {
	oldDev, _ := Parse("r3", sampleRouter)
	newDev := oldDev.Clone()

	// Make a representative set of edits.
	newDev.Interfaces["GigabitEthernet0/0"].Shutdown = true
	newDev.AddInterface("Loopback0").Addr = netip.MustParsePrefix("3.3.3.3/32")
	acl := newDev.ACLs["CORE-IN"]
	acl.RemoveEntry(10)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP, DstPort: 443})
	newDev.StaticRoutes = newDev.StaticRoutes[:1]
	newDev.OSPF.Passive["Loopback0"] = true
	newDev.VLANs[30] = &netmodel.VLAN{ID: 30, Name: "mgmt"}

	changes := DiffDevice(oldDev, newDev)
	if len(changes) == 0 {
		t.Fatal("no changes detected")
	}
	ops := map[Op]int{}
	for _, c := range changes {
		ops[c.Op]++
	}
	for _, want := range []Op{OpSetInterface, OpAddInterface, OpAddACLEntry, OpRemoveACLEntry, OpRemoveStaticRoute, OpSetOSPF, OpSetVLAN} {
		if ops[want] == 0 {
			t.Errorf("missing op %v in %v", want, changes)
		}
	}

	// Applying the diff to a clone of old reproduces new.
	got := oldDev.Clone()
	for _, c := range changes {
		if err := ApplyChange(got, c); err != nil {
			t.Fatalf("apply %v: %v", c, err)
		}
	}
	if !reflect.DeepEqual(got, newDev) {
		t.Fatalf("apply(diff) != new:\n got %+v\nwant %+v", got, newDev)
	}
}

func TestDiffIdentityIsEmpty(t *testing.T) {
	d, _ := Parse("r3", sampleRouter)
	if changes := DiffDevice(d, d.Clone()); len(changes) != 0 {
		t.Fatalf("diff of identical devices = %v", changes)
	}
}

func TestApplyChangeErrors(t *testing.T) {
	d, _ := Parse("r3", sampleRouter)
	cases := []Change{
		{Device: "other", Op: OpRemoveOSPF},
		{Device: "r3", Op: OpRemoveACLEntry, ACLName: "CORE-IN", Seq: 999},
		{Device: "r3", Op: OpRemoveACL, ACLName: "NOPE"},
		{Device: "r3", Op: OpRemoveVLAN, VLANID: 99},
		{Device: "r3", Op: OpRemoveStaticRoute, Route: &netmodel.StaticRoute{Prefix: netip.MustParsePrefix("99.0.0.0/8"), NextHop: netip.MustParseAddr("1.1.1.1")}},
	}
	for i, c := range cases {
		if err := ApplyChange(d, c); err == nil {
			t.Errorf("case %d (%v): expected error", i, c)
		}
	}
}

func TestChangeMetadata(t *testing.T) {
	permit := Change{Device: "r1", Op: OpAddACLEntry, ACLName: "A",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit}}
	deny := Change{Device: "r1", Op: OpAddACLEntry, ACLName: "A",
		Entry: &netmodel.ACLEntry{Seq: 20, Action: netmodel.Deny}}
	shut := Change{Device: "r1", Op: OpSetInterface,
		Interface: &netmodel.Interface{Name: "Gi0/0", Shutdown: true}}

	if !permit.Additive() || deny.Additive() || shut.Additive() {
		t.Fatal("Additive classification wrong")
	}
	if permit.Resource() != "device:r1:acl:A" {
		t.Fatalf("Resource = %q", permit.Resource())
	}
	if permit.Action() != "config.acl.add" {
		t.Fatalf("Action = %q", permit.Action())
	}
	if shut.Resource() != "device:r1:interface:Gi0/0" {
		t.Fatalf("Resource = %q", shut.Resource())
	}
	for _, c := range []Change{permit, deny, shut} {
		if c.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestMaskHelpers(t *testing.T) {
	bitsToMask := func(ones int) string { return string(appendMask(nil, ones)) }
	bitsToWildcard := func(ones int) string { return string(appendWildcard(nil, ones)) }
	if got := bitsToMask(24); got != "255.255.255.0" {
		t.Fatalf("bitsToMask(24) = %q", got)
	}
	if got := bitsToMask(0); got != "0.0.0.0" {
		t.Fatalf("bitsToMask(0) = %q", got)
	}
	if got := bitsToWildcard(24); got != "0.0.0.255" {
		t.Fatalf("bitsToWildcard(24) = %q", got)
	}
	if got := bitsToWildcard(32); got != "0.0.0.0" {
		t.Fatalf("bitsToWildcard(32) = %q", got)
	}
	if got := bitsToWildcard(0); got != "255.255.255.255" {
		t.Fatalf("bitsToWildcard(0) = %q", got)
	}
	for bits := 0; bits <= 32; bits++ {
		m, err := maskToBits(bitsToMask(bits))
		if err != nil || m != bits {
			t.Fatalf("mask round trip %d: %d %v", bits, m, err)
		}
		w, err := wildcardToBits(bitsToWildcard(bits))
		if err != nil || w != bits {
			t.Fatalf("wildcard round trip %d: %d %v", bits, w, err)
		}
	}
	if _, err := maskToBits("255.0.255.0"); err == nil {
		t.Fatal("non-contiguous mask accepted")
	}
	if _, err := wildcardToBits("0.255.0.255"); err == nil {
		t.Fatal("non-contiguous wildcard accepted")
	}
}

// Property: for randomly generated devices, Parse(Print(d)) == d and
// DiffDevice(d, mutate(d)) applied to d reproduces the mutation.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		d := randomDevice(r)
		text := Print(d)
		d2, err := Parse(d.Name, text)
		if err != nil {
			t.Fatalf("trial %d: parse failed: %v\n%s", trial, err, text)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("trial %d: round trip mismatch\n%s", trial, text)
		}

		mutated := d.Clone()
		mutateDevice(r, mutated)
		changes := DiffDevice(d, mutated)
		applied := d.Clone()
		for _, c := range changes {
			if err := ApplyChange(applied, c); err != nil {
				t.Fatalf("trial %d: apply: %v", trial, err)
			}
		}
		if !reflect.DeepEqual(applied, mutated) {
			t.Fatalf("trial %d: apply(diff) mismatch: changes=%v", trial, changes)
		}
	}
}

func randomDevice(r *rand.Rand) *netmodel.Device {
	d := netmodel.NewDevice("dev", netmodel.Router)
	for i := 0; i < 1+r.Intn(4); i++ {
		itf := d.AddInterface(ifName(i))
		if r.Intn(4) > 0 {
			itf.Addr = netip.PrefixFrom(addr4(r), 8+r.Intn(23))
		}
		itf.Shutdown = r.Intn(4) == 0
		if r.Intn(3) == 0 {
			itf.ACLIn = "ACL-A"
		}
	}
	if r.Intn(2) == 0 {
		a := d.ACL("ACL-A", true)
		for j := 0; j < 1+r.Intn(4); j++ {
			e := netmodel.ACLEntry{Seq: (j + 1) * 10, Action: netmodel.ACLAction(r.Intn(2)), Proto: netmodel.Protocol(r.Intn(4))}
			if r.Intn(2) == 0 {
				e.Src = netip.PrefixFrom(addr4(r), 8+r.Intn(25)).Masked()
			}
			if r.Intn(2) == 0 {
				e.Dst = netip.PrefixFrom(addr4(r), 32)
			}
			if (e.Proto == netmodel.TCP || e.Proto == netmodel.UDP) && r.Intn(2) == 0 {
				e.DstPort = uint16(1 + r.Intn(65534))
			}
			a.InsertEntry(e)
		}
	}
	for i := 0; i < r.Intn(3); i++ {
		d.StaticRoutes = append(d.StaticRoutes, netmodel.StaticRoute{
			Prefix:  netip.PrefixFrom(addr4(r), 8+r.Intn(17)).Masked(),
			NextHop: addr4(r),
		})
	}
	if r.Intn(2) == 0 {
		d.OSPF = &netmodel.OSPFProcess{
			ProcessID: 1,
			RouterID:  addr4(r),
			Networks:  []netmodel.OSPFNetwork{{Prefix: netip.PrefixFrom(addr4(r), 16).Masked(), Area: r.Intn(3)}},
			Passive:   map[string]bool{},
		}
	}
	if r.Intn(3) == 0 {
		d.VLANs[10] = &netmodel.VLAN{ID: 10, Name: "users"}
	}
	sortRoutes(d.StaticRoutes) // match the parser's canonical order
	return d
}

func mutateDevice(r *rand.Rand, d *netmodel.Device) {
	switch r.Intn(5) {
	case 0:
		for _, itf := range d.Interfaces {
			itf.Shutdown = !itf.Shutdown
			break
		}
	case 1:
		d.ACL("ACL-B", true).InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit})
	case 2:
		d.StaticRoutes = append(d.StaticRoutes, netmodel.StaticRoute{
			Prefix: netip.MustParsePrefix("172.16.0.0/12"), NextHop: addr4(r)})
	case 3:
		d.VLANs[42] = &netmodel.VLAN{ID: 42, Name: "new"}
	case 4:
		d.AddInterface("Loopback9").Addr = netip.PrefixFrom(addr4(r), 32)
	}
}

func ifName(i int) string {
	return []string{"GigabitEthernet0/0", "GigabitEthernet0/1", "GigabitEthernet0/2", "GigabitEthernet0/3"}[i]
}

func addr4(r *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(r.Intn(250)), byte(r.Intn(250)), byte(1 + r.Intn(250))})
}

func TestParseNetwork(t *testing.T) {
	n, err := ParseNetwork("test", map[string]string{
		"r3": sampleRouter,
		"h1": "! kind: host\nhostname h1\ninterface eth0\n ip address 10.4.0.10 255.255.255.0\n no shutdown\n!\nip default-gateway 10.4.0.1\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Devices) != 2 || n.Device("r3") == nil || n.Device("h1").Kind != netmodel.Host {
		t.Fatalf("network = %+v", n)
	}
	if _, err := ParseNetwork("bad", map[string]string{"x": "garbage line\n"}); err == nil {
		t.Fatal("bad config accepted")
	}
}
