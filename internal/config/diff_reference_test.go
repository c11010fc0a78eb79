package config_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// refDiffDevice is the DiffDevice the merge walks and typed comparisons
// replaced: a map per ACL, a map of rendered route keys, reflect.DeepEqual
// for interfaces and routing processes. It is the oracle DiffDevice must
// match element for element, order included.
func refDiffDevice(old, new *netmodel.Device) []config.Change {
	var out []config.Change
	dev := old.Name

	// Interfaces.
	for _, name := range new.InterfaceNames() {
		ni := new.Interfaces[name]
		oi := old.Interfaces[name]
		if oi == nil {
			out = append(out, config.Change{Device: dev, Op: config.OpAddInterface, Interface: ni.Clone()})
			continue
		}
		if !reflect.DeepEqual(oi, ni) {
			out = append(out, config.Change{Device: dev, Op: config.OpSetInterface, Interface: ni.Clone()})
		}
	}

	// ACLs: entry-level diff; an ACL old lacks and new holds empty is made.
	for _, name := range new.ACLNames() {
		na, oa := new.ACLs[name], old.ACLs[name]
		if oa == nil && len(na.Entries) == 0 {
			out = append(out, config.Change{Device: dev, Op: config.OpAddACL, ACLName: name})
			continue
		}
		oldBySeq := make(map[int]netmodel.ACLEntry)
		if oa != nil {
			for _, e := range oa.Entries {
				oldBySeq[e.Seq] = e
			}
		}
		for _, e := range na.Entries {
			oe, ok := oldBySeq[e.Seq]
			delete(oldBySeq, e.Seq)
			if ok && oe == e {
				continue
			}
			op, ee := config.OpAddACLEntry, e
			if ok {
				op = config.OpSetACLEntry
			}
			out = append(out, config.Change{Device: dev, Op: op, ACLName: name, Entry: &ee})
		}
		var stale []int
		for seq := range oldBySeq {
			stale = append(stale, seq)
		}
		sort.Ints(stale)
		for _, seq := range stale {
			out = append(out, config.Change{Device: dev, Op: config.OpRemoveACLEntry, ACLName: name, Seq: seq})
		}
	}
	for _, name := range old.ACLNames() {
		if new.ACLs[name] == nil {
			out = append(out, config.Change{Device: dev, Op: config.OpRemoveACL, ACLName: name})
		}
	}

	// Static routes.
	routeKey := func(r netmodel.StaticRoute) string {
		return fmt.Sprintf("%s|%s|%d", r.Prefix, r.NextHop, r.Distance)
	}
	oldRoutes := make(map[string]netmodel.StaticRoute)
	for _, r := range old.StaticRoutes {
		oldRoutes[routeKey(r)] = r
	}
	for _, r := range new.StaticRoutes {
		if _, ok := oldRoutes[routeKey(r)]; ok {
			delete(oldRoutes, routeKey(r))
			continue
		}
		rr := r
		out = append(out, config.Change{Device: dev, Op: config.OpAddStaticRoute, Route: &rr})
	}
	var staleRoutes []string
	for k := range oldRoutes {
		staleRoutes = append(staleRoutes, k)
	}
	sort.Strings(staleRoutes)
	for _, k := range staleRoutes {
		rr := oldRoutes[k]
		out = append(out, config.Change{Device: dev, Op: config.OpRemoveStaticRoute, Route: &rr})
	}

	// OSPF.
	switch {
	case old.OSPF == nil && new.OSPF != nil:
		out = append(out, config.Change{Device: dev, Op: config.OpSetOSPF, OSPF: new.OSPF.Clone()})
	case old.OSPF != nil && new.OSPF == nil:
		out = append(out, config.Change{Device: dev, Op: config.OpRemoveOSPF})
	case old.OSPF != nil && !reflect.DeepEqual(old.OSPF, new.OSPF):
		out = append(out, config.Change{Device: dev, Op: config.OpSetOSPF, OSPF: new.OSPF.Clone()})
	}

	// BGP.
	switch {
	case old.BGP == nil && new.BGP != nil:
		out = append(out, config.Change{Device: dev, Op: config.OpSetBGP, BGP: new.BGP.Clone()})
	case old.BGP != nil && new.BGP == nil:
		out = append(out, config.Change{Device: dev, Op: config.OpRemoveBGP})
	case old.BGP != nil && !reflect.DeepEqual(old.BGP, new.BGP):
		out = append(out, config.Change{Device: dev, Op: config.OpSetBGP, BGP: new.BGP.Clone()})
	}

	// VLANs.
	for _, id := range new.VLANIDs() {
		nv, ov := new.VLANs[id], old.VLANs[id]
		if ov == nil || *ov != *nv {
			vv := *nv
			out = append(out, config.Change{Device: dev, Op: config.OpSetVLAN, VLAN: &vv})
		}
	}
	for _, id := range old.VLANIDs() {
		if new.VLANs[id] == nil {
			out = append(out, config.Change{Device: dev, Op: config.OpRemoveVLAN, VLANID: id})
		}
	}

	// Default gateway.
	if old.DefaultGateway != new.DefaultGateway {
		out = append(out, config.Change{Device: dev, Op: config.OpSetGateway, Gateway: new.DefaultGateway})
	}
	return out
}

// diffScenarios are the networks the diff oracle edits.
func diffScenarios() []*netmodel.Network {
	return []*netmodel.Network{
		scenarios.University().Network, scenarios.Enterprise().Network, scenarios.Provider().Network,
		generate.FatTree(generate.FatTreeParams{K: 4}).Network,
		generate.ISP(generate.ISPParams{}).Network, generate.WAN(generate.WANParams{}).Network,
	}
}

// diffEdits applies k random edits of every kind DiffDevice reports to d,
// through the calls the console and ApplyChange make: ACL entries by
// ACL.InsertEntry / RemoveEntry, and no static route entered twice.
func diffEdits(r *rand.Rand, d *netmodel.Device, k int) {
	pick := func(names []string) string { return names[r.Intn(len(names))] }
	prefix := func() netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 250, byte(r.Intn(4)), 0}), 24)
	}
	for ; k > 0; k-- {
		switch r.Intn(12) {
		case 0, 1: // add or set an entry: a new or an existing sequence number
			name := "EDIT"
			if names := d.ACLNames(); len(names) > 0 && r.Intn(3) > 0 {
				name = pick(names)
			}
			a := d.ACL(name, true)
			e := netmodel.ACLEntry{Seq: 10 * (1 + r.Intn(8)), Action: netmodel.ACLAction(r.Intn(2)), Proto: netmodel.TCP}
			if len(a.Entries) > 0 && r.Intn(2) == 0 {
				e = a.Entries[r.Intn(len(a.Entries))]
				e.DstPort = uint16(1 + r.Intn(4))
			}
			a.InsertEntry(e)
		case 2:
			if names := d.ACLNames(); len(names) > 0 {
				if a := d.ACLs[pick(names)]; len(a.Entries) > 0 {
					a.RemoveEntry(a.Entries[r.Intn(len(a.Entries))].Seq)
				}
			}
		case 3:
			if names := d.ACLNames(); len(names) > 0 && r.Intn(2) == 0 {
				delete(d.ACLs, pick(names))
				break
			}
			a := d.ACL(fmt.Sprintf("WHOLE-%d", r.Intn(3)), true)
			for seq := 10; seq <= 30; seq += 10 {
				a.InsertEntry(netmodel.ACLEntry{Seq: seq, Action: netmodel.Permit, Dst: prefix()})
			}
		case 4:
			if len(d.StaticRoutes) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(d.StaticRoutes))
				d.StaticRoutes = slices.Delete(d.StaticRoutes, i, i+1)
				break
			}
			rt := netmodel.StaticRoute{Prefix: prefix(), NextHop: netip.AddrFrom4([4]byte{10, 251, 0, byte(1 + r.Intn(3))}), Distance: r.Intn(2) * 200}
			if !slices.Contains(d.StaticRoutes, rt) {
				d.StaticRoutes = append(d.StaticRoutes, rt)
			}
		case 5:
			if names := d.InterfaceNames(); len(names) > 0 {
				itf := d.Interfaces[pick(names)]
				switch r.Intn(4) {
				case 0:
					itf.Shutdown = !itf.Shutdown
				case 1:
					itf.Description += "x"
				case 2:
					itf.Addr = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 252, byte(r.Intn(4)), 1}), 24)
				case 3:
					itf.Mode, itf.TrunkVLANs = netmodel.Trunk, [][]int{nil, {}, {10, 20}}[r.Intn(3)]
				}
			}
		case 6:
			d.AddInterface(fmt.Sprintf("Loopback%d", r.Intn(3))).OSPFCost = r.Intn(2)
		case 7:
			if id := 1 + r.Intn(40); d.VLANs[id] != nil && r.Intn(2) == 0 {
				delete(d.VLANs, id)
			} else {
				d.VLANs[id] = &netmodel.VLAN{ID: id, Name: fmt.Sprintf("v%d", r.Intn(3))}
			}
		case 8:
			d.DefaultGateway = netip.AddrFrom4([4]byte{10, 253, 0, byte(1 + r.Intn(3))})
		case 9:
			if d.OSPF != nil {
				if names := d.InterfaceNames(); len(names) > 0 {
					name := pick(names)
					d.OSPF.Passive[name] = !d.OSPF.Passive[name]
				}
			}
		case 10:
			if d.BGP != nil {
				if p := prefix(); !slices.Contains(d.BGP.Networks, p) {
					d.BGP.Networks = append(d.BGP.Networks, p)
				}
			}
		case 11: // a process dropped or reset to what Clone makes of it
			switch {
			case d.OSPF != nil && r.Intn(3) == 0:
				d.OSPF = nil
			case d.BGP != nil && r.Intn(3) == 0:
				d.BGP = nil
			case d.OSPF != nil:
				d.OSPF = d.OSPF.Clone()
			}
		}
	}
}

// diffMatches fails t unless DiffDevice(a, b) is refDiffDevice(a, b)
// element for element, and returns the diff.
func diffMatches(t *testing.T, a, b *netmodel.Device) []config.Change {
	t.Helper()
	got, want := config.DiffDevice(a, b), refDiffDevice(a, b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DiffDevice diverges from the reference:\n got %v\nwant %v", a.Name, got, want)
	}
	return got
}

// roundTrips fails t unless DiffDevice(a, b) applied to a prints as b: the
// change set carries every state b shows. b is a edited as the console
// edits (the reverse diff may need an interface removed, which no op does).
func roundTrips(t *testing.T, a, b *netmodel.Device) {
	t.Helper()
	changes, applied := config.DiffDevice(a, b), a
	for _, c := range changes {
		var err error
		if applied, err = config.ApplyChange(applied, c); err != nil {
			t.Fatalf("%s: applying %v: %v", a.Name, c, err)
		}
	}
	if got, want := config.Print(applied), config.Print(b); got != want {
		t.Fatalf("%s: the diff %v applied prints\n%s\nnot the edited device\n%s", a.Name, changes, got, want)
	}
}

// TestDiffDeviceMatchesReference: over every device of six scenario families,
// seeded random edits of every kind diff, both ways, element for element as
// the reference does, and the diff of each edit applied prints as the edited
// device (an ACL the edits leave empty included); so do hand-built pairs that differ only in a nil
// against an empty list or map. A new field on a compared struct fails it
// until the typed comparison reads it.
func TestDiffDeviceMatchesReference(t *testing.T) {
	for _, c := range []struct {
		v      any
		fields int
	}{{netmodel.Interface{}, 10}, {netmodel.OSPFProcess{}, 5}, {netmodel.BGPProcess{}, 5}} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.fields {
			t.Fatalf("%T has %d fields, DiffDevice compares %d", c.v, n, c.fields)
		}
	}
	r := rand.New(rand.NewSource(37))
	ops := map[config.Op]int{}
	for _, n := range diffScenarios() {
		for _, name := range n.DeviceNames() {
			a := n.Devices[name]
			for i, rt := range a.StaticRoutes {
				if slices.Contains(a.StaticRoutes[i+1:], rt) {
					t.Fatalf("%s holds %v twice", name, rt)
				}
			}
			diffMatches(t, a, a)
			for trial := 0; trial < 4; trial++ {
				b := a.Clone()
				diffEdits(r, b, 1+r.Intn(6))
				for _, c := range diffMatches(t, a, b) {
					ops[c.Op]++
				}
				roundTrips(t, a, b)
				diffMatches(t, b, a)
			}
		}
	}
	for op := config.OpAddInterface; op <= config.OpAddACL; op++ {
		if ops[op] == 0 {
			t.Errorf("no edit produced %v: %v", op, ops)
		}
	}
	t.Logf("changes by op: %v", ops)

	// nil against empty, one field at a time.
	type pair struct{ a, b *netmodel.Device }
	pairs := map[string]pair{}
	each := func(name string, set func(d *netmodel.Device, empty bool)) {
		a, b := netmodel.NewDevice("r", netmodel.Router), netmodel.NewDevice("r", netmodel.Router)
		set(a, false)
		set(b, true)
		pairs[name] = pair{a, b}
	}
	each("trunk", func(d *netmodel.Device, empty bool) {
		d.AddInterface("Gi0/0").Mode = netmodel.Trunk
		if empty {
			d.Interfaces["Gi0/0"].TrunkVLANs = []int{}
		}
	})
	ospf := func(set func(o *netmodel.OSPFProcess)) func(*netmodel.Device, bool) {
		return func(d *netmodel.Device, empty bool) {
			d.OSPF = &netmodel.OSPFProcess{ProcessID: 1}
			if empty {
				set(d.OSPF)
			}
		}
	}
	each("passive", ospf(func(o *netmodel.OSPFProcess) { o.Passive = map[string]bool{} }))
	each("ospf-networks", ospf(func(o *netmodel.OSPFProcess) { o.Networks = []netmodel.OSPFNetwork{} }))
	each("ranges", ospf(func(o *netmodel.OSPFProcess) { o.Ranges = []netmodel.OSPFNetwork{} }))
	bgp := func(set func(b *netmodel.BGPProcess)) func(*netmodel.Device, bool) {
		return func(d *netmodel.Device, empty bool) {
			d.BGP = &netmodel.BGPProcess{LocalAS: 65001}
			if empty {
				set(d.BGP)
			}
		}
	}
	each("neighbors", bgp(func(b *netmodel.BGPProcess) { b.Neighbors = []netmodel.BGPNeighbor{} }))
	each("bgp-networks", bgp(func(b *netmodel.BGPProcess) { b.Networks = []netip.Prefix{} }))
	each("acl", func(d *netmodel.Device, empty bool) {
		if empty {
			d.ACLs["E"] = &netmodel.ACL{Name: "E", Entries: []netmodel.ACLEntry{}}
		} else {
			d.ACLs["E"] = &netmodel.ACL{Name: "E"}
		}
	})
	each("routes", func(d *netmodel.Device, empty bool) {
		if empty {
			d.StaticRoutes = []netmodel.StaticRoute{}
		}
	})
	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := pairs[name]
		if got := diffMatches(t, p.a, p.b); (len(got) == 0) != (name == "acl" || name == "routes") {
			t.Errorf("%s: nil against empty diffs to %v", name, got)
		}
		diffMatches(t, p.b, p.a)
	}
}

// FuzzDiffDeviceMatchesReference is TestDiffDeviceMatchesReference's edits
// with the scenario, the device, the edits and their number fuzzed.
func FuzzDiffDeviceMatchesReference(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(uint8(i), int64(i), uint8(4))
	}
	nets := diffScenarios()
	f.Fuzz(func(t *testing.T, scen uint8, seed int64, k uint8) {
		n := nets[int(scen)%len(nets)]
		r := rand.New(rand.NewSource(seed))
		names := n.DeviceNames()
		a := n.Devices[names[r.Intn(len(names))]]
		b := a.Clone()
		diffEdits(r, b, int(k%16))
		diffMatches(t, a, b)
		roundTrips(t, a, b)
		diffMatches(t, b, a)
	})
}
