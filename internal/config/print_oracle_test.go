package config_test

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// refPrint is the fmt-based printer config.Print replaced (with the trailer
// written as the comment it is, not patched in afterwards): the oracle the
// append renderer must match byte for byte.
func refPrint(d *netmodel.Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "! kind: %s\n", d.Kind)
	fmt.Fprintf(&b, "hostname %s\n!\n", d.Name)

	kinds := make([]string, 0, len(d.Secrets))
	for k := range d.Secrets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		switch k {
		case "enable":
			fmt.Fprintf(&b, "enable secret %s\n", d.Secrets[k])
		case "snmp":
			fmt.Fprintf(&b, "snmp-server community %s RO\n", d.Secrets[k])
		case "isakmp":
			fmt.Fprintf(&b, "crypto isakmp key %s address 0.0.0.0\n", d.Secrets[k])
		}
	}
	if len(d.Secrets) > 0 {
		b.WriteString("!\n")
	}

	for _, id := range d.VLANIDs() {
		v := d.VLANs[id]
		fmt.Fprintf(&b, "vlan %d\n", v.ID)
		if v.Name != "" {
			fmt.Fprintf(&b, " name %s\n", v.Name)
		}
		b.WriteString("!\n")
	}

	for _, name := range d.InterfaceNames() {
		refPrintInterface(&b, d.Interfaces[name])
	}

	for _, name := range d.ACLNames() {
		a := d.ACLs[name]
		fmt.Fprintf(&b, "ip access-list extended %s\n", a.Name)
		for i := range a.Entries {
			fmt.Fprintf(&b, " %s\n", refFormatACLEntry(&a.Entries[i]))
		}
		b.WriteString("!\n")
	}

	routes := append([]netmodel.StaticRoute(nil), d.StaticRoutes...)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix != routes[j].Prefix {
			return routes[i].Prefix.String() < routes[j].Prefix.String()
		}
		return routes[i].NextHop.Less(routes[j].NextHop)
	})
	for _, r := range routes {
		fmt.Fprintf(&b, "ip route %s %s %s", r.Prefix.Addr(), refBitsToMask(r.Prefix.Bits()), r.NextHop)
		if r.Distance != 0 {
			fmt.Fprintf(&b, " %d", r.Distance)
		}
		b.WriteString("\n")
	}
	if len(routes) > 0 {
		b.WriteString("!\n")
	}

	if d.DefaultGateway.IsValid() {
		fmt.Fprintf(&b, "ip default-gateway %s\n!\n", d.DefaultGateway)
	}

	if o := d.OSPF; o != nil {
		fmt.Fprintf(&b, "router ospf %d\n", o.ProcessID)
		if o.RouterID.IsValid() {
			fmt.Fprintf(&b, " router-id %s\n", o.RouterID)
		}
		for _, n := range o.Networks {
			fmt.Fprintf(&b, " network %s %s area %d\n", n.Prefix.Addr(), refBitsToWildcard(n.Prefix.Bits()), n.Area)
		}
		for _, r := range o.Ranges {
			fmt.Fprintf(&b, " area %d range %s %s\n", r.Area, r.Prefix.Masked().Addr(), refBitsToMask(r.Prefix.Bits()))
		}
		var passive []string
		for name, on := range o.Passive {
			if on {
				passive = append(passive, name)
			}
		}
		sort.Strings(passive)
		for _, name := range passive {
			fmt.Fprintf(&b, " passive-interface %s\n", name)
		}
		b.WriteString("!\n")
	}
	if g := d.BGP; g != nil {
		fmt.Fprintf(&b, "router bgp %d\n", g.LocalAS)
		if g.RouterID.IsValid() {
			fmt.Fprintf(&b, " bgp router-id %s\n", g.RouterID)
		}
		for _, nb := range g.Neighbors {
			fmt.Fprintf(&b, " neighbor %s remote-as %d\n", nb.Addr, nb.RemoteAS)
		}
		for _, net := range g.Networks {
			fmt.Fprintf(&b, " network %s mask %s\n", net.Addr(), refBitsToMask(net.Bits()))
		}
		if g.RedistributeConnected {
			b.WriteString(" redistribute connected\n")
		}
		b.WriteString("!\n")
	}
	b.WriteString("! end\n")
	return b.String()
}

func refPrintInterface(b *strings.Builder, itf *netmodel.Interface) {
	fmt.Fprintf(b, "interface %s\n", itf.Name)
	if itf.Description != "" {
		fmt.Fprintf(b, " description %s\n", itf.Description)
	}
	switch itf.Mode {
	case netmodel.Access:
		fmt.Fprintf(b, " switchport mode access\n")
		if itf.AccessVLAN != 0 {
			fmt.Fprintf(b, " switchport access vlan %d\n", itf.AccessVLAN)
		}
	case netmodel.Trunk:
		fmt.Fprintf(b, " switchport mode trunk\n")
		if len(itf.TrunkVLANs) > 0 {
			strs := make([]string, len(itf.TrunkVLANs))
			for i, v := range itf.TrunkVLANs {
				strs[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(b, " switchport trunk allowed vlan %s\n", strings.Join(strs, ","))
		}
	}
	if itf.HasAddr() {
		fmt.Fprintf(b, " ip address %s %s\n", itf.Addr.Addr(), refBitsToMask(itf.Addr.Bits()))
	}
	if itf.OSPFCost != 0 {
		fmt.Fprintf(b, " ip ospf cost %d\n", itf.OSPFCost)
	}
	if itf.ACLIn != "" {
		fmt.Fprintf(b, " ip access-group %s in\n", itf.ACLIn)
	}
	if itf.ACLOut != "" {
		fmt.Fprintf(b, " ip access-group %s out\n", itf.ACLOut)
	}
	if itf.Shutdown {
		fmt.Fprintf(b, " shutdown\n")
	} else {
		fmt.Fprintf(b, " no shutdown\n")
	}
	b.WriteString("!\n")
}

func refFormatACLEntry(e *netmodel.ACLEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s %s", e.Seq, e.Action, e.Proto)
	writeSpec := func(pfx netip.Prefix, port uint16) {
		switch {
		case !pfx.IsValid():
			b.WriteString(" any")
		case pfx.Bits() == 32:
			fmt.Fprintf(&b, " host %s", pfx.Addr())
		default:
			fmt.Fprintf(&b, " %s %s", pfx.Masked().Addr(), refBitsToWildcard(pfx.Bits()))
		}
		if port != 0 {
			fmt.Fprintf(&b, " eq %d", port)
		}
	}
	writeSpec(e.Src, e.SrcPort)
	writeSpec(e.Dst, e.DstPort)
	return b.String()
}

func refBitsToMask(ones int) string {
	v := uint32(0)
	if ones > 0 {
		v = ^uint32(0) << (32 - ones)
	}
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func refBitsToWildcard(ones int) string {
	v := ^uint32(0)
	if ones > 0 {
		v = ^(^uint32(0) << (32 - ones))
	}
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// scenarioFamilies is every scenario family the repository ships.
func scenarioFamilies() []*scenarios.Scenario {
	return []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}), generate.FatTree(generate.FatTreeParams{K: 8}),
		generate.ISP(generate.ISPParams{}), generate.WAN(generate.WANParams{}),
	}
}

// everyField is a device with every optional field the printer knows set,
// the ones no scenario uses included: a trunk VLAN list, an OSPF cost, area
// ranges, a static route with a distance and one whose next hop is unset.
func everyField() *netmodel.Device {
	d := netmodel.NewDevice("sw-all", netmodel.Switch)
	d.Secrets = map[string]string{"enable": "e", "snmp": "s", "isakmp": "k", "other": "dropped"}
	d.VLANs = map[int]*netmodel.VLAN{10: {ID: 10, Name: "users"}, 4094: {ID: 4094}}
	up := d.AddInterface("Gi0/1")
	up.Description = "uplink, trunked"
	up.Mode, up.TrunkVLANs = netmodel.Trunk, []int{10, 20, 4094}
	acc := d.AddInterface("Gi0/2")
	acc.Mode, acc.AccessVLAN, acc.Shutdown = netmodel.Access, 10, true
	svi := d.AddInterface("Vlan10")
	svi.Addr = netip.MustParsePrefix("10.1.10.1/24")
	svi.OSPFCost, svi.ACLIn, svi.ACLOut = 65535, "IN", "OUT"
	d.AddInterface("Gi0/3").Mode = netmodel.Trunk // no allowed list
	d.ACLs = map[string]*netmodel.ACL{
		"IN": {Name: "IN", Entries: []netmodel.ACLEntry{
			{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP,
				Src: netip.MustParsePrefix("10.1.10.77/24"), SrcPort: 1024,
				Dst: netip.MustParsePrefix("192.0.2.9/32"), DstPort: 65535},
			{Seq: 20, Action: netmodel.Deny, Proto: netmodel.UDP, Dst: netip.MustParsePrefix("0.0.0.0/0"), DstPort: 53},
			{Seq: 30, Action: netmodel.Permit, Proto: netmodel.ICMP, Src: netip.MustParsePrefix("172.16.0.0/12")},
		}},
		"OUT": {Name: "OUT", Entries: []netmodel.ACLEntry{{Seq: -1, Action: netmodel.Permit}}},
	}
	d.StaticRoutes = []netmodel.StaticRoute{
		{Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: netip.MustParseAddr("10.1.10.254"), Distance: 200},
		{Prefix: netip.MustParsePrefix("10.9.0.0/16"), NextHop: netip.MustParseAddr("10.1.10.2")},
		{Prefix: netip.MustParsePrefix("10.9.0.0/16"), NextHop: netip.MustParseAddr("10.1.10.1")},
		{Prefix: netip.MustParsePrefix("10.8.1.0/31")}, // next hop unset
		{}, // nothing set at all
	}
	d.DefaultGateway = netip.MustParseAddr("10.1.10.254")
	d.OSPF = &netmodel.OSPFProcess{
		ProcessID: 7, RouterID: netip.MustParseAddr("7.7.7.7"),
		Networks: []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Area: 1}, {Prefix: netip.MustParsePrefix("10.0.0.0/8")}},
		Ranges:   []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.1.3.0/16"), Area: 1}},
		Passive:  map[string]bool{"Vlan10": true, "Gi0/2": true, "Gi0/1": false},
	}
	d.BGP = &netmodel.BGPProcess{
		LocalAS: 65001, RouterID: netip.MustParseAddr("7.7.7.7"),
		Neighbors:             []netmodel.BGPNeighbor{{Addr: netip.MustParseAddr("192.0.2.1"), RemoteAS: 65002}, {RemoteAS: 1}},
		Networks:              []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("198.51.100.0/25")},
		RedistributeConnected: true,
	}
	return d
}

// Print and FormatACLEntry equal the fmt-based reference byte for byte on
// every device of every scenario family, on the every-field device and on a
// device with nothing set.
func TestPrintMatchesReference(t *testing.T) {
	devices := []*netmodel.Device{everyField(), netmodel.NewDevice("bare", netmodel.Host)}
	for _, scen := range scenarioFamilies() {
		for _, name := range scen.Network.DeviceNames() {
			devices = append(devices, scen.Network.Devices[name], config.Sanitize(scen.Network.Devices[name]))
		}
	}
	entries := 0
	for _, d := range devices {
		if got, want := config.Print(d), refPrint(d); got != want {
			t.Fatalf("%s: Print diverges from the reference:\n got:\n%s\nwant:\n%s", d.Name, got, want)
		}
		for _, a := range d.ACLs {
			for i := range a.Entries {
				if got, want := config.FormatACLEntry(&a.Entries[i]), refFormatACLEntry(&a.Entries[i]); got != want {
					t.Fatalf("%s %s: FormatACLEntry = %q, reference %q", d.Name, a.Name, got, want)
				}
				entries++
			}
		}
	}
	t.Logf("compared %d devices and %d ACL entries", len(devices), entries)
	if len(devices) < 500 || entries < 100 {
		t.Fatalf("compared only %d devices and %d ACL entries", len(devices), entries)
	}
	if got := string(config.AppendConfig([]byte("prefix "), devices[1])); got != "prefix "+refPrint(devices[1]) {
		t.Fatalf("AppendConfig does not append: %q", got)
	}
}

// The "! end" trailer is the last line and the only line Print touches: a
// description, hostname, VLAN name or ACL name that itself ends in "end"
// prints verbatim and the device's own rendering parses back.
func TestPrintTrailerOnly(t *testing.T) {
	for _, tc := range []struct{ name, text, line string }{
		{"description", "hostname r2\ninterface Gi0/0\n description uplink to frontend\n ip address 10.0.0.1 255.255.255.0\n", " description uplink to frontend\n"},
		{"hostname", "hostname backend\n", "hostname backend\n"},
		{"acl name", "hostname r2\nip access-list extended WEEKend\n 10 permit ip any any\n", "ip access-list extended WEEKend\n"},
		{"vlan name", "! kind: switch\nhostname s1\nvlan 10\n name frontend\n", " name frontend\n"},
	} {
		d, err := config.Parse("x", tc.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		text := config.Print(d)
		if !strings.Contains(text, tc.line) {
			t.Errorf("%s: line %q did not survive printing:\n%s", tc.name, tc.line, text)
		}
		if !strings.HasSuffix(text, "!\n! end\n") || strings.Count(text, "end\n") != 2 {
			t.Errorf("%s: the trailer is not the one last line:\n%s", tc.name, text)
		}
		d2, err := config.Parse("x", text)
		if err != nil {
			t.Errorf("%s: the device's own rendering does not parse: %v\n%s", tc.name, err, text)
			continue
		}
		if again := config.Print(d2); again != text {
			t.Errorf("%s: round trip changed the text:\n%s\nvs\n%s", tc.name, again, text)
		}
	}
}

// Allocations are the renderer's budget: a per-line allocation creeping back
// fails here. The fmt-based printer took 1,500 on this device; the ceiling
// sits a quarter above the measured count.
func TestRenderAllocBudget(t *testing.T) {
	r2 := scenarios.University().Network.Devices["r2"]
	got := testing.AllocsPerRun(20, func() { config.Print(r2) })
	t.Logf("Print(university r2): %.0f allocs, %d bytes", got, len(config.Print(r2)))
	if got > 16 {
		t.Errorf("Print(university r2): %.0f allocs, budget 16", got)
	}
}

// FuzzPrintRoundTrip: for any text Parse accepts, the printed device parses
// again and re-prints to the same bytes, and the append renderer agrees with
// the reference printer on it. Seeded with every shipped scenario config.
func FuzzPrintRoundTrip(f *testing.F) {
	f.Add("hostname r2\ninterface Gi0/0\n description uplink to frontend\n")
	for _, scen := range []*scenarios.Scenario{scenarios.University(), scenarios.Enterprise(), scenarios.Provider()} {
		for _, name := range scen.Network.DeviceNames() {
			f.Add(scen.Configs[name])
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := config.Parse("fuzz", text)
		if err != nil {
			return
		}
		printed := config.Print(d)
		if want := refPrint(d); printed != want {
			t.Fatalf("Print diverges from the reference for input %q:\n got:\n%s\nwant:\n%s", text, printed, want)
		}
		d2, err := config.Parse("fuzz", printed)
		if err != nil {
			t.Fatalf("the printed config does not parse: %v\ninput: %q\nprinted:\n%s", err, text, printed)
		}
		if again := config.Print(d2); again != printed {
			t.Fatalf("printing is not a fixed point for input %q:\n%s\nvs\n%s", text, printed, again)
		}
	})
}
