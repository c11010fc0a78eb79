package netmodel

import (
	"net/netip"
	"reflect"
	"testing"
)

// cowNet builds a three-router line with one host for the aliasing tests.
func cowNet() *Network {
	n := NewNetwork("cow")
	for _, r := range []string{"r1", "r2", "r3"} {
		n.AddDevice(r, Router)
	}
	n.AddDevice("h1", Host)
	n.MustConnect("r1", "Gi0/0", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("h1", "eth0", "r1", "Gi0/1")
	n.Devices["r1"].Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.0.1/30")
	n.Devices["r2"].Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.0.2/30")
	n.Devices["r2"].Interface("Gi0/1").Addr = netip.MustParsePrefix("10.0.1.1/30")
	n.Devices["r3"].Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.1.2/30")
	return n
}

// TestCloneCOWAliasing pins the copy-on-write contract: the named devices
// are fresh deep clones, every other device pointer is shared, and writes
// to a cloned device never reach the original network.
func TestCloneCOWAliasing(t *testing.T) {
	n := cowNet()
	c := n.CloneCOW("r2")

	// Unnamed devices are the SAME pointers; the named one is fresh.
	for _, dev := range []string{"r1", "r3", "h1"} {
		if c.Devices[dev] != n.Devices[dev] {
			t.Errorf("%s was cloned; CloneCOW must share unnamed devices", dev)
		}
	}
	if c.Devices["r2"] == n.Devices["r2"] {
		t.Fatal("mutated device r2 still shared")
	}
	if !reflect.DeepEqual(c.Devices["r2"].InterfaceNames(), n.Devices["r2"].InterfaceNames()) {
		t.Fatal("r2 clone lost state")
	}

	// Mutating the clone's r2 leaves the original untouched.
	c.Devices["r2"].Interface("Gi0/0").Shutdown = true
	c.Devices["r2"].StaticRoutes = append(c.Devices["r2"].StaticRoutes, StaticRoute{
		Prefix:  netip.MustParsePrefix("0.0.0.0/0"),
		NextHop: netip.MustParseAddr("10.0.0.1"),
	})
	if n.Devices["r2"].Interface("Gi0/0").Shutdown {
		t.Fatal("write to clone reached the original interface")
	}
	if len(n.Devices["r2"].StaticRoutes) != 0 {
		t.Fatal("write to clone reached the original static routes")
	}

	// Links are shared but append-safe: cabling a new link on the clone
	// must not grow (or clobber) the original's link list.
	c.AddDevice("h2", Host)
	c.MustConnect("h2", "eth0", "r2", "Gi0/2")
	if len(n.Links) != 3 {
		t.Fatalf("original link count changed: %d", len(n.Links))
	}
	if len(c.Links) != 4 {
		t.Fatalf("clone link count = %d", len(c.Links))
	}
	// The original's backing array must be intact even after the append.
	for _, l := range n.Links {
		if l.A.Device == "h2" || l.B.Device == "h2" {
			t.Fatal("clone's appended link leaked into the original's array")
		}
	}

	// Cloning a name that does not exist is a no-op, not a panic.
	c2 := n.CloneCOW("nope")
	if len(c2.Devices) != len(n.Devices) {
		t.Fatal("unknown mutated name changed the device set")
	}
}

// TestCloneCOWMultiple names several devices at once.
func TestCloneCOWMultiple(t *testing.T) {
	n := cowNet()
	c := n.CloneCOW("r1", "r3")
	if c.Devices["r1"] == n.Devices["r1"] || c.Devices["r3"] == n.Devices["r3"] {
		t.Fatal("named devices not cloned")
	}
	if c.Devices["r2"] != n.Devices["r2"] {
		t.Fatal("unnamed device not shared")
	}
}
