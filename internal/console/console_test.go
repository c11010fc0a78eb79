package console

import (
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

// testNet: h1 - r1 - h2 plus an ACL and OSPF config on r1 so every show
// command has something to render.
func testNet() *netmodel.Network {
	n := netmodel.NewNetwork("c")
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
	acl := r1.ACL("EDGE", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	r1.Interface("Gi0/0").ACLIn = "EDGE"
	r1.OSPF = &netmodel.OSPFProcess{ProcessID: 1,
		Networks: []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Area: 0}},
		Passive:  map[string]bool{}}
	r1.VLANs[10] = &netmodel.VLAN{ID: 10, Name: "users"}
	return n
}

func TestShowCommands(t *testing.T) {
	n := testNet()
	env := NewEnv(n)
	c := New("r1", env)

	cases := []struct {
		line     string
		action   string
		contains string
	}{
		{"show running-config", "show.running-config", "hostname r1"},
		{"show ip route", "show.ip.route", "directly connected"},
		{"show interfaces", "show.interfaces", "Gi0/0 is up"},
		{"show interfaces Gi0/1", "show.interfaces", "10.2.0.1/24"},
		{"show access-lists", "show.access-lists", "EDGE"},
		{"show access-lists EDGE", "show.access-lists", "permit ip any any"},
		{"show vlan", "show.vlan", "users"},
		{"show ip ospf neighbor", "show.ip.ospf", "no OSPF neighbors"},
	}
	for _, tc := range cases {
		cmd, err := c.Parse(tc.line)
		if err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if cmd.Action != tc.action || cmd.Write {
			t.Errorf("%q: action=%s write=%v", tc.line, cmd.Action, cmd.Write)
		}
		if cmd.Resource != "device:r1" {
			t.Errorf("%q: resource=%s", tc.line, cmd.Resource)
		}
		out, err := c.Execute(cmd)
		if err != nil {
			t.Fatalf("%q: execute: %v", tc.line, err)
		}
		if !strings.Contains(out, tc.contains) {
			t.Errorf("%q: output %q missing %q", tc.line, out, tc.contains)
		}
	}
}

func TestPingAndTraceroute(t *testing.T) {
	n := testNet()
	env := NewEnv(n)
	h1 := New("h1", env)

	out, err := h1.Run("ping h2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "success") {
		t.Fatalf("ping h2 = %q", out)
	}
	out, err = h1.Run("ping 10.2.0.10 tcp 80")
	if err != nil || !strings.Contains(out, "success") {
		t.Fatalf("tcp ping = %q err %v", out, err)
	}
	out, err = h1.Run("ping 192.0.2.9")
	if err != nil || !strings.Contains(out, "failed") {
		t.Fatalf("unreachable ping = %q err %v", out, err)
	}
	out, err = h1.Run("traceroute h2")
	if err != nil || !strings.Contains(out, "r1") || !strings.Contains(out, "delivered") {
		t.Fatalf("traceroute = %q err %v", out, err)
	}
	if _, err := h1.Run("ping nosuchhost"); err == nil {
		t.Fatal("unresolvable target accepted")
	}
	if _, err := h1.Run("ping h2 icmp 5"); err == nil {
		t.Fatal("bad ping proto accepted")
	}
}

func TestWriteCommandsMutateAndClassify(t *testing.T) {
	n := testNet()
	env := NewEnv(n)
	r1 := New("r1", env)

	// Interface shutdown changes behaviour: ping breaks afterwards.
	h1 := New("h1", env)
	if out, _ := h1.Run("ping h2"); !strings.Contains(out, "success") {
		t.Fatal("precondition: ping works")
	}
	cmd, err := r1.Parse("interface Gi0/1 shutdown")
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.Write || cmd.Action != "config.interface.set" || cmd.Resource != "device:r1:interface:Gi0/1" {
		t.Fatalf("classification = %+v", cmd)
	}
	if _, err := r1.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	if out, _ := h1.Run("ping h2"); !strings.Contains(out, "failed") {
		t.Fatal("shutdown did not take effect (snapshot not invalidated?)")
	}
	if _, err := r1.Run("interface Gi0/1 no shutdown"); err != nil {
		t.Fatal(err)
	}
	if out, _ := h1.Run("ping h2"); !strings.Contains(out, "success") {
		t.Fatal("no shutdown did not restore")
	}

	// ACL entry add + remove.
	cmd, err = r1.Parse("access-list EDGE 5 deny tcp any host 10.2.0.10 eq 80")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Action != "config.acl.add" || cmd.Resource != "device:r1:acl:EDGE" {
		t.Fatalf("acl classification = %+v", cmd)
	}
	if _, err := r1.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	if out, _ := h1.Run("ping h2 tcp 80"); !strings.Contains(out, "failed") {
		t.Fatal("ACL deny should block tcp/80")
	}
	if _, err := r1.Run("no access-list EDGE 5"); err != nil {
		t.Fatal(err)
	}
	if out, _ := h1.Run("ping h2 tcp 80"); !strings.Contains(out, "success") {
		t.Fatal("ACL removal should restore tcp/80")
	}

	// Static route add/remove.
	if _, err := r1.Run("ip route 192.168.5.0 255.255.255.0 10.2.0.10"); err != nil {
		t.Fatal(err)
	}
	if len(n.Devices["r1"].StaticRoutes) != 1 {
		t.Fatal("route not added")
	}
	if _, err := r1.Run("no ip route 192.168.5.0 255.255.255.0 10.2.0.10"); err != nil {
		t.Fatal(err)
	}
	if len(n.Devices["r1"].StaticRoutes) != 0 {
		t.Fatal("route not removed")
	}

	// OSPF subcommands.
	if _, err := r1.Run("router ospf passive-interface Gi0/0"); err != nil {
		t.Fatal(err)
	}
	if !n.Devices["r1"].OSPF.Passive["Gi0/0"] {
		t.Fatal("passive-interface not set")
	}
	if _, err := r1.Run("router ospf no passive-interface Gi0/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run("router ospf network 10.9.0.0 0.0.255.255 area 2"); err != nil {
		t.Fatal(err)
	}
	nets := n.Devices["r1"].OSPF.Networks
	if nets[len(nets)-1].Area != 2 {
		t.Fatal("network statement not appended")
	}

	// VLAN and switchport.
	if _, err := r1.Run("vlan 20 name servers"); err != nil {
		t.Fatal(err)
	}
	if n.Devices["r1"].VLANs[20] == nil {
		t.Fatal("vlan not created")
	}
	if _, err := r1.Run("no vlan 20"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run("interface Gi0/0 switchport access vlan 10"); err != nil {
		t.Fatal(err)
	}
	if got := n.Devices["r1"].Interface("Gi0/0"); got.Mode != netmodel.Access || got.AccessVLAN != 10 {
		t.Fatal("switchport command not applied")
	}

	// Gateway and address.
	h2c := New("h2", env)
	if _, err := h2c.Run("ip default-gateway 10.2.0.254"); err != nil {
		t.Fatal(err)
	}
	if n.Devices["h2"].DefaultGateway != netip.MustParseAddr("10.2.0.254") {
		t.Fatal("gateway not set")
	}
	if _, err := r1.Run("interface Gi0/1 ip address 10.2.0.2 255.255.255.0"); err != nil {
		t.Fatal(err)
	}
	if n.Devices["r1"].Interface("Gi0/1").Addr != netip.MustParsePrefix("10.2.0.2/24") {
		t.Fatal("address not set")
	}
	// Access-group binding.
	if _, err := r1.Run("interface Gi0/0 ip access-group EDGE in"); err != nil {
		t.Fatal(err)
	}
	if n.Devices["r1"].Interface("Gi0/0").ACLIn != "EDGE" {
		t.Fatal("access-group not bound")
	}
	if _, err := r1.Run("interface Gi0/0 no ip access-group in"); err != nil {
		t.Fatal(err)
	}
	if n.Devices["r1"].Interface("Gi0/0").ACLIn != "" {
		t.Fatal("access-group not unbound")
	}
}

func TestParseErrors(t *testing.T) {
	c := New("r1", NewEnv(testNet()))
	bad := []string{
		"",
		"frobnicate",
		"show nonsense",
		"ping",
		"ping h2 gre 5",
		"ping h2 tcp 99999",
		"interface",
		"interface Gi0/0 wiggle",
		"access-list X 10 permit",
		"no access-list X notanumber",
		"no what",
		"ip route 10.0.0.0 255.0.0.0",
		"ip route 10.0.0.0 255.0.0.0 1.2.3.4 999",
		"router bgp neighbor",
		"router ospf frob",
		"vlan ten name x",
		"vlan 10 label x",
	}
	for _, line := range bad {
		if _, err := c.Parse(line); err == nil {
			t.Errorf("Parse(%q): expected error", line)
		}
	}
}

func TestExecErrors(t *testing.T) {
	n := testNet()
	env := NewEnv(n)
	r1 := New("r1", env)
	bad := []string{
		"interface Gi9/9 shutdown",
		"no access-list NOPE 10",
		"no ip route 10.0.0.0 255.0.0.0 1.2.3.4",
		"no vlan 99",
		"show interfaces Gi9/9",
		"show access-lists NOPE",
		"ip default-gateway bogus",
		"interface Gi0/0 ip address bogus 255.0.0.0",
		"interface Gi0/0 ip address 2001:db8::1 255.255.255.0",
		"ip route 2001:db8:: 255.255.255.0 10.0.0.1",
		"access-list X 10 permit ip 2001:db8:: 0.0.0.255 any",
	}
	for _, line := range bad {
		if _, err := r1.Run(line); err == nil {
			t.Errorf("Run(%q): expected error", line)
		}
	}
}

func TestOSPFNeighborRendering(t *testing.T) {
	// Two routers that should see each other as neighbors.
	n := netmodel.NewNetwork("o")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.12.1/30")
	r2.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.12.2/30")
	for _, r := range []*netmodel.Device{r1, r2} {
		r.OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{}}
	}
	env := NewEnv(n)
	out, err := New("r1", env).Run("show ip ospf neighbor")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "r2") || !strings.Contains(out, "FULL") {
		t.Fatalf("neighbors = %q", out)
	}
	// Passive peer disappears.
	if _, err := New("r2", env).Run("router ospf passive-interface Gi0/0"); err != nil {
		t.Fatal(err)
	}
	out, _ = New("r1", env).Run("show ip ospf neighbor")
	if strings.Contains(out, "r2") {
		t.Fatalf("passive peer still shown: %q", out)
	}
}

func TestCatalog(t *testing.T) {
	n := testNet()
	cat := Catalog(n.Devices["r1"])
	if len(cat) == 0 {
		t.Fatal("empty catalog")
	}
	actions := map[string]bool{}
	for _, ar := range cat {
		actions[ar.Action] = true
		if !strings.HasPrefix(ar.Resource, "device:r1") {
			t.Errorf("catalog resource %q not on r1", ar.Resource)
		}
	}
	for _, want := range []string{"show.ip.route", "diag.ping", "config.interface.set",
		"config.acl.add", "config.ospf.set", "config.vlan.set"} {
		if !actions[want] {
			t.Errorf("catalog missing action %s", want)
		}
	}
	// Hosts have a smaller surface than routers.
	hostCat := Catalog(n.Devices["h1"])
	if len(hostCat) >= len(cat) {
		t.Errorf("host surface (%d) should be smaller than router surface (%d)", len(hostCat), len(cat))
	}
}

func TestRunParseErrorPropagates(t *testing.T) {
	c := New("r1", NewEnv(testNet()))
	if _, err := c.Run("bogus"); err == nil {
		t.Fatal("Run should propagate parse errors")
	}
}
