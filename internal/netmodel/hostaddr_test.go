package netmodel_test

import (
	"net/netip"
	"testing"

	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// sortedHostAddr is HostAddr as it was: the first addressed interface found
// by scanning the sorted name list.
func sortedHostAddr(n *netmodel.Network, name string) (netip.Addr, bool) {
	d := n.Devices[name]
	if d == nil || d.Kind != netmodel.Host {
		return netip.Addr{}, false
	}
	for _, in := range d.InterfaceNames() {
		if itf := d.Interfaces[in]; itf.HasAddr() {
			return itf.Addr.Addr(), true
		}
	}
	return netip.Addr{}, false
}

// TestHostAddrMatchesSortedScan: the one-pass HostAddr answers what the
// sorted scan answered for every device of every scenario family and for a
// host whose first interfaces in name order carry no address, and it does
// not allocate.
func TestHostAddrMatchesSortedScan(t *testing.T) {
	multi := netmodel.NewNetwork("multi")
	h := multi.AddDevice("h", netmodel.Host)
	for name, addr := range map[string]string{
		"eth0": "", "eth1": "", "eth10": "10.0.10.1/24", "eth2": "10.0.2.1/24", "eth3": "10.0.3.1/24", "wlan0": "",
	} {
		itf := h.AddInterface(name)
		if addr != "" {
			itf.Addr = netip.MustParsePrefix(addr)
		}
	}
	multi.AddDevice("bare", netmodel.Host).AddInterface("eth0")
	if got, _ := multi.HostAddr("h"); got != netip.MustParseAddr("10.0.10.1") {
		t.Fatalf("HostAddr(h) = %v, want eth10's address (first in name order)", got)
	}

	nets := []*netmodel.Network{multi}
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.FatTree(generate.FatTreeParams{K: 8}),
		generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2}),
		generate.WAN(generate.WANParams{Sites: 4}),
	} {
		nets = append(nets, scen.Network)
	}
	for _, n := range nets {
		hosts := 0
		for _, name := range append(n.DeviceNames(), "no-such-device") {
			got, gotOK := n.HostAddr(name)
			want, wantOK := sortedHostAddr(n, name)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: HostAddr(%s) = (%v, %v), the sorted scan says (%v, %v)", n.Name, name, got, gotOK, want, wantOK)
			}
			if gotOK {
				hosts++
			}
		}
		if hosts == 0 {
			t.Fatalf("%s: no addressed host", n.Name)
		}
	}
	// The race detector allocates on its own: CI's "Allocation budgets" step
	// runs this check without -race.
	if allocs := testing.AllocsPerRun(100, func() { multi.HostAddr("h") }); allocs != 0 && !raceEnabled {
		t.Fatalf("HostAddr allocates %v times", allocs)
	}
}
