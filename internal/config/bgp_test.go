package config

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

const sampleBGPRouter = `! kind: router
hostname edge
!
interface GigabitEthernet0/0
 ip address 203.0.113.1 255.255.255.252
 no shutdown
!
router bgp 65001
 bgp router-id 1.1.1.1
 neighbor 203.0.113.2 remote-as 65010
 neighbor 203.0.113.6 remote-as 65020
 network 10.1.0.0 mask 255.255.255.0
 redistribute connected
!
`

func TestParseBGP(t *testing.T) {
	d, err := Parse("edge", sampleBGPRouter)
	if err != nil {
		t.Fatal(err)
	}
	g := d.BGP
	if g == nil || g.LocalAS != 65001 || g.RouterID != netip.MustParseAddr("1.1.1.1") {
		t.Fatalf("BGP = %+v", g)
	}
	if len(g.Neighbors) != 2 || g.Neighbors[0].RemoteAS != 65010 {
		t.Fatalf("neighbors = %+v", g.Neighbors)
	}
	if len(g.Networks) != 1 || g.Networks[0] != netip.MustParsePrefix("10.1.0.0/24") {
		t.Fatalf("networks = %+v", g.Networks)
	}
	if !g.RedistributeConnected {
		t.Fatal("redistribute connected not parsed")
	}
}

func TestBGPPrintParseRoundTrip(t *testing.T) {
	d, err := Parse("edge", sampleBGPRouter)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(d)
	if !strings.Contains(text, "router bgp 65001") {
		t.Fatalf("printed config missing BGP:\n%s", text)
	}
	d2, err := Parse("edge", text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("BGP round trip mismatch:\n%s", text)
	}
}

func TestBGPParseErrors(t *testing.T) {
	bad := []string{
		"router bgp zero\n",
		"router bgp 65001\n bgp router-id nonsense\n",
		"router bgp 65001\n neighbor nonsense remote-as 1\n",
		"router bgp 65001\n neighbor 1.2.3.4 remote-as x\n",
		"router bgp 65001\n network 10.0.0.0 mask 255.0.255.0\n",
		"router bgp 65001\n frobnicate\n",
	}
	for _, text := range bad {
		if _, err := Parse("x", text); err == nil {
			t.Errorf("accepted: %q", text)
		}
	}
}

func TestBGPDiffAndApply(t *testing.T) {
	oldDev, _ := Parse("edge", sampleBGPRouter)

	// Neighbor AS change produces OpSetBGP; applying reproduces it.
	newDev := oldDev.Clone()
	newDev.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65011)
	changes := DiffDevice(oldDev, newDev)
	if len(changes) != 1 || changes[0].Op != OpSetBGP {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].Action() != "config.bgp.set" || changes[0].Resource() != "device:edge:bgp" {
		t.Fatalf("metadata = %s %s", changes[0].Action(), changes[0].Resource())
	}
	if !changes[0].Additive() {
		t.Fatal("BGP set should schedule in the additive phase")
	}
	got := oldDev.Clone()
	for _, c := range changes {
		var err error
		if got, err = ApplyChange(got, c); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, newDev) {
		t.Fatal("apply(diff) mismatch")
	}

	// Process removal.
	gone := oldDev.Clone()
	gone.BGP = nil
	changes = DiffDevice(oldDev, gone)
	if len(changes) != 1 || changes[0].Op != OpRemoveBGP {
		t.Fatalf("removal changes = %v", changes)
	}
	got, err := ApplyChange(oldDev, changes[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.BGP != nil {
		t.Fatal("BGP not removed")
	}

	// Process addition.
	changes = DiffDevice(gone, oldDev)
	if len(changes) != 1 || changes[0].Op != OpSetBGP {
		t.Fatalf("addition changes = %v", changes)
	}
}

func TestBGPSanitizeKeepsProcess(t *testing.T) {
	d, _ := Parse("edge", sampleBGPRouter)
	s := Sanitize(d)
	if s.BGP == nil || s.BGP.LocalAS != 65001 {
		t.Fatal("sanitize dropped BGP (peering data is configuration, not secret)")
	}
}

func TestBGPCloneIsDeep(t *testing.T) {
	d, _ := Parse("edge", sampleBGPRouter)
	c := d.Clone()
	c.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 99)
	c.BGP.Networks = append(c.BGP.Networks, netip.MustParsePrefix("172.16.0.0/12"))
	if d.BGP.Neighbors[0].RemoteAS != 65010 || len(d.BGP.Networks) != 1 {
		t.Fatal("BGP clone aliases original")
	}
}
