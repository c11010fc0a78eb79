package config_test

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
)

// TestAppendMatchesMarshal holds AppendChanges and AppendUndos to
// json.Marshal on a change and an undo with every payload set, every list
// and map holding several elements and every string needing an escape,
// twenty times over: a map's iteration order is random, so an encoder that
// writes the passive interfaces unsorted fails here even when the fuzz
// corpus happens to draw them in order.
func TestAppendMatchesMarshal(t *testing.T) {
	s := `a<"\>&` + "\x01\n\xff "
	p := netip.MustParsePrefix("10.0.0.0/24")
	a := netip.MustParseAddr("fe80::1").WithZone("e<0>")
	ospf := &netmodel.OSPFProcess{ProcessID: 1, RouterID: a,
		Networks: []netmodel.OSPFNetwork{{Prefix: p, Area: 1}, {}}, Ranges: []netmodel.OSPFNetwork{},
		Passive: map[string]bool{"Gi0/0": true, "Gi0/1": false, s: true, "": true, "Vlan10": false}}
	bgp := &netmodel.BGPProcess{LocalAS: 65001, RouterID: a, Neighbors: []netmodel.BGPNeighbor{{Addr: a, RemoteAS: -1}},
		Networks: []netip.Prefix{p, {}, netip.PrefixFrom(a, 99)}, RedistributeConnected: true}
	itf := &netmodel.Interface{Name: s, Description: s, Addr: p, Shutdown: true, ACLIn: s, ACLOut: "x",
		Mode: netmodel.Trunk, AccessVLAN: 3, TrunkVLANs: []int{1, -2}, OSPFCost: 7}
	entry := &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.UDP, Src: p, SrcPort: 53, DstPort: 65535}
	route := &netmodel.StaticRoute{Prefix: p, NextHop: a, Distance: 200}
	changes := []config.Change{
		{Device: s, Op: config.OpSetOSPF, Interface: itf, ACLName: s, Entry: entry, Seq: -5, Route: route,
			OSPF: ospf, BGP: bgp, VLAN: &netmodel.VLAN{ID: 4094, Name: s}, VLANID: 9, Gateway: a},
		{},
	}
	undos := []config.Undo{
		{Device: s, Section: s, Name: s, VLANID: 2, Interface: itf,
			ACL: &netmodel.ACL{Name: s, Entries: []netmodel.ACLEntry{*entry, {}}}, Routes: []netmodel.StaticRoute{*route},
			OSPF: ospf, BGP: bgp, VLAN: &netmodel.VLAN{}, Gateway: &a},
		{ACL: &netmodel.ACL{}, Routes: []netmodel.StaticRoute{}, Gateway: &netip.Addr{}},
		{},
	}
	for i := 0; i < 20; i++ {
		want, _ := json.Marshal(changes)
		if got := config.AppendChanges(nil, changes); !bytes.Equal(got, want) {
			t.Fatalf("AppendChanges\n got %s\nwant %s", got, want)
		}
		want, _ = json.Marshal(undos)
		if got := config.AppendUndos(nil, undos); !bytes.Equal(got, want) {
			t.Fatalf("AppendUndos\n got %s\nwant %s", got, want)
		}
	}
}
