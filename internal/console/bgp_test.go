package console

import (
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

// bgpNet: two routers peering over eBGP, each fronting a host subnet.
func bgpNet() *netmodel.Network {
	n := netmodel.NewNetwork("b")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	h2 := n.AddDevice("h2", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "h2", "eth0")

	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("203.0.113.1/30")
	r2.Interface("Gi0/0").Addr = netip.MustParsePrefix("203.0.113.2/30")
	r2.Interface("Gi0/1").Addr = netip.MustParsePrefix("192.0.2.1/24")
	h2.Interface("eth0").Addr = netip.MustParsePrefix("192.0.2.10/24")
	h2.DefaultGateway = netip.MustParseAddr("192.0.2.1")

	r1.BGP = &netmodel.BGPProcess{LocalAS: 65001,
		Networks: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}}
	r2.BGP = &netmodel.BGPProcess{LocalAS: 65002,
		Networks: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}}
	r2.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.1"), 65001)
	return n
}

func TestBGPConsoleCommands(t *testing.T) {
	n := bgpNet()
	env := NewEnv(n)
	r1 := New("r1", env)

	// Session is down until r1 configures the neighbor.
	out, err := r1.Run("show ip bgp")
	if err != nil || strings.Contains(out, "Established") {
		t.Fatalf("pre-config bgp = %q err %v", out, err)
	}
	cmd, err := r1.Parse("router bgp 65001 neighbor 203.0.113.2 remote-as 65002")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Action != "config.bgp.set" || cmd.Resource != "device:r1:bgp" || !cmd.Write {
		t.Fatalf("classification = %+v", cmd)
	}
	if _, err := r1.Execute(cmd); err != nil {
		t.Fatal(err)
	}
	out, _ = r1.Run("show ip bgp")
	if !strings.Contains(out, "Established") {
		t.Fatalf("post-config bgp = %q", out)
	}

	// End-to-end over the learned routes.
	h1 := New("h1", env)
	if out, _ := h1.Run("ping h2"); !strings.Contains(out, "success") {
		t.Fatalf("ping over BGP = %q", out)
	}

	// Originate another prefix and remove the neighbor.
	if _, err := r1.Run("router bgp 65001 network 172.16.0.0 mask 255.240.0.0"); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Devices["r1"].BGP.Networks); got != 2 {
		t.Fatalf("networks = %d", got)
	}
	if _, err := r1.Run("router bgp 65001 no neighbor 203.0.113.2"); err != nil {
		t.Fatal(err)
	}
	if out, _ := h1.Run("ping h2"); !strings.Contains(out, "failed") {
		t.Fatalf("ping after neighbor removal = %q", out)
	}
}

func TestBGPConsoleErrors(t *testing.T) {
	c := New("r1", NewEnv(bgpNet()))
	bad := []string{
		"router bgp x neighbor 1.2.3.4 remote-as 1",
		"router bgp 65001 neighbor bogus remote-as 1",
		"router bgp 65001 neighbor 1.2.3.4 remote-as x",
		"router bgp 65001 network 10.0.0.0 mask 255.0.255.0",
		"router bgp 65001 flap",
	}
	for _, line := range bad {
		if _, err := c.Run(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	// Wrong local AS is an execution error.
	if _, err := c.Run("router bgp 64999 neighbor 1.2.3.4 remote-as 1"); err == nil {
		t.Error("wrong local AS accepted")
	}
	// Removing a nonexistent neighbor fails.
	if _, err := c.Run("router bgp 65001 no neighbor 9.9.9.9"); err == nil {
		t.Error("removal of unknown neighbor accepted")
	}
}

func TestBGPInCatalog(t *testing.T) {
	n := bgpNet()
	found := false
	for _, ar := range Catalog(n.Devices["r1"]) {
		if ar.Action == "config.bgp.set" {
			found = true
		}
	}
	if !found {
		t.Fatal("catalog missing config.bgp.set for a BGP router")
	}
}
