package console

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// execInPlace is the reference a console write is held to: the section
// editors the console ran before a write became a change set, editing d in
// place. line is a write line Parse accepts, so only what the editors
// checked when they ran is checked here. On an error d may be half-written:
// `router ospf` and `router bgp` create their process before the statement
// is refused.
func execInPlace(d *netmodel.Device, line string) error {
	f := strings.Fields(line)
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	switch {
	case f[0] == "interface":
		itf := d.Interface(f[1])
		if itf == nil {
			return fmt.Errorf("no interface %s", f[1])
		}
		sf := f[2:]
		switch {
		case len(sf) == 1:
			itf.Shutdown = true
		case sf[0] == "no" && sf[1] == "shutdown":
			itf.Shutdown = false
		case sf[0] == "ip" && sf[1] == "address":
			p, err := config.ParseAddrMask(sf[2], sf[3])
			if err != nil {
				return err
			}
			itf.Addr = p
		case sf[0] == "ip" && sf[1] == "access-group":
			if sf[3] == "in" {
				itf.ACLIn = sf[2]
			} else {
				itf.ACLOut = sf[2]
			}
		case sf[0] == "no" && sf[2] == "access-group":
			if sf[3] == "in" {
				itf.ACLIn = ""
			} else {
				itf.ACLOut = ""
			}
		case sf[0] == "ip" && sf[1] == "ospf":
			itf.OSPFCost = atoi(sf[3])
		case sf[0] == "switchport":
			itf.Mode, itf.AccessVLAN = netmodel.Access, atoi(sf[3])
		}
	case f[0] == "access-list":
		e, err := config.ParseACLEntry(f[2:])
		if err != nil {
			return err
		}
		d.ACL(f[1], true).InsertEntry(e)
	case f[0] == "no" && f[1] == "access-list":
		a := d.ACL(f[2], false)
		if a == nil || !a.RemoveEntry(atoi(f[3])) {
			return fmt.Errorf("no ACL entry %s seq %s", f[2], f[3])
		}
	case f[0] == "ip" && f[1] == "route", f[0] == "no" && f[1] == "ip":
		add := f[0] == "ip"
		if !add {
			f = f[1:]
		}
		p, err := config.ParseAddrMask(f[2], f[3])
		if err != nil {
			return err
		}
		nh, err := netip.ParseAddr(f[4])
		if err != nil {
			return err
		}
		if add {
			r := netmodel.StaticRoute{Prefix: p.Masked(), NextHop: nh}
			if len(f) == 6 {
				r.Distance = atoi(f[5])
			}
			if !slices.Contains(d.StaticRoutes, r) {
				d.StaticRoutes = append(d.StaticRoutes, r)
			}
			return nil
		}
		for i, r := range d.StaticRoutes {
			if r.Prefix == p.Masked() && r.NextHop == nh {
				d.StaticRoutes = append(d.StaticRoutes[:i], d.StaticRoutes[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("no route %s via %s", p.Masked(), nh)
	case f[0] == "ip" && f[1] == "default-gateway":
		gw, err := netip.ParseAddr(f[2])
		if err != nil {
			return err
		}
		d.DefaultGateway = gw
	case f[0] == "vlan":
		id := atoi(f[1])
		d.VLANs[id] = &netmodel.VLAN{ID: id, Name: f[3]}
	case f[0] == "no" && f[1] == "vlan":
		id := atoi(f[2])
		if _, ok := d.VLANs[id]; !ok {
			return fmt.Errorf("no vlan %d", id)
		}
		delete(d.VLANs, id)
	case f[0] == "router" && f[1] == "ospf":
		if d.OSPF == nil {
			d.OSPF = &netmodel.OSPFProcess{ProcessID: 1, Passive: make(map[string]bool)}
		}
		o, sf := d.OSPF, f[2:]
		switch sf[0] {
		case "passive-interface":
			o.Passive[sf[1]] = true
		case "no":
			delete(o.Passive, sf[2])
		case "network":
			p, err := config.ParseNetWildcard(sf[1], sf[2])
			if err != nil {
				return err
			}
			area, err := strconv.Atoi(sf[4])
			if err != nil || area < 0 {
				return fmt.Errorf("bad area %q", sf[4])
			}
			o.Networks = append(o.Networks, netmodel.OSPFNetwork{Prefix: p, Area: area})
		}
	case f[0] == "router" && f[1] == "bgp":
		asn := atoi(f[2])
		if d.BGP == nil {
			d.BGP = &netmodel.BGPProcess{LocalAS: asn}
		}
		g, sf := d.BGP, f[3:]
		if g.LocalAS != asn {
			return fmt.Errorf("runs AS %d, not %d", g.LocalAS, asn)
		}
		switch sf[0] {
		case "neighbor":
			addr, err := netip.ParseAddr(sf[1])
			if err != nil {
				return err
			}
			remote, err := strconv.Atoi(sf[3])
			if err != nil || remote <= 0 {
				return fmt.Errorf("bad remote-as %q", sf[3])
			}
			g.SetNeighbor(addr, remote)
		case "no":
			addr, err := netip.ParseAddr(sf[2])
			if err != nil {
				return err
			}
			i := slices.IndexFunc(g.Neighbors, func(nb netmodel.BGPNeighbor) bool { return nb.Addr == addr })
			if i < 0 {
				return fmt.Errorf("no neighbor %s", sf[2])
			}
			g.Neighbors = append(g.Neighbors[:i], g.Neighbors[i+1:]...)
		case "network":
			p, err := config.ParseAddrMask(sf[1], sf[3])
			if err != nil {
				return err
			}
			g.Networks = append(g.Networks, p.Masked())
		}
	default:
		return fmt.Errorf("execInPlace: not a write: %q", line)
	}
	return nil
}

// writeStep is one write line on one device.
type writeStep struct{ dev, line string }

// holdToInPlace runs each step through Execute on n and through execInPlace
// on a deep clone of the device the step starts from. Both fail or both
// succeed. A success prints as the reference and leaves the device it
// replaced as it was; a failure leaves that device in place, pointer for
// pointer. It returns the number of steps that failed.
func holdToInPlace(t *testing.T, name string, n *netmodel.Network, steps []writeStep) (failed int) {
	t.Helper()
	env := NewEnv(n)
	for _, s := range steps {
		cmd, err := New(s.dev, env).Parse(s.line)
		if err != nil || !cmd.Write {
			t.Fatalf("%s: %s %q is not a write (%v)", name, s.dev, s.line, err)
		}
		before := n.Devices[s.dev]
		ref, printed := before.Clone(), config.Print(before)
		refErr := execInPlace(ref, s.line)
		_, err = New(s.dev, env).Execute(cmd)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%s: %s %q: Execute error %v, reference error %v", name, s.dev, s.line, err, refErr)
		case err != nil:
			failed++
			if n.Devices[s.dev] != before {
				t.Fatalf("%s: %s %q failed (%v) and replaced the device", name, s.dev, s.line, err)
			}
		case config.Print(n.Devices[s.dev]) != config.Print(ref):
			t.Fatalf("%s: %s %q:\nExecute left\n%s\nthe reference left\n%s", name, s.dev, s.line,
				config.Print(n.Devices[s.dev]), config.Print(ref))
		case config.Print(before) != printed:
			t.Fatalf("%s: %s %q wrote the device it replaced", name, s.dev, s.line)
		}
	}
	return failed
}

// editDeck is what a technician types on each university ticket: a fix
// line and the line that undoes it, on the root-cause device.
var editDeck = map[string][]writeStep{
	"acl":  {{"r2", "no access-list SENSITIVE-15 5"}, {"r2", "access-list SENSITIVE-15 5 deny tcp any host 10.15.0.10 eq 22"}},
	"ospf": {{"r13", "router ospf no passive-interface Gi0/0"}, {"r13", "router ospf passive-interface Gi0/0"}},
}

// TestWritesMatchInPlace holds every console write to execInPlace: every
// write line of commandCorpus on testNet's r1, one at a time and in one
// sequence; each scenario family's issue fixes on its faulted network,
// after two rounds of university's fix-and-undo lines where it has them;
// and the corners the change sets must get right.
func TestWritesMatchInPlace(t *testing.T) {
	var corpus []writeStep
	for _, line := range commandCorpus {
		if cmd, err := New("r1", nil).Parse(line); err == nil && cmd.Write {
			corpus = append(corpus, writeStep{"r1", line})
		}
	}
	for _, s := range corpus {
		holdToInPlace(t, "corpus", testNet(), []writeStep{s})
	}
	holdToInPlace(t, "corpus sequence", testNet(), corpus)

	families := []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}), generate.ISP(generate.ISPParams{}), generate.WAN(generate.WANParams{}),
	}
	fixes := 0
	for _, scen := range families {
		for _, is := range scen.Issues {
			n := scen.Network.CloneCOW()
			if err := is.Fault.Inject(n); err != nil {
				t.Fatal(err)
			}
			var steps []writeStep
			if scen.Name == "university" {
				deck := editDeck[is.Name]
				if is.Name == "isp" { // a specific route through the fix's next hop
					f := strings.Fields(is.Fault.Fix[len(is.Fault.Fix)-1].Line)
					r := "ip route 192.0.2.0 255.255.255.0 " + f[len(f)-1]
					deck = []writeStep{{"r4", r}, {"r4", "no " + r}}
				}
				steps = append(append(steps, deck...), deck...)
			}
			for _, c := range is.Fault.Fix {
				if cmd, err := New(c.Device, nil).Parse(c.Line); err == nil && cmd.Write {
					steps = append(steps, writeStep{c.Device, c.Line})
					fixes++
				}
			}
			if failed := holdToInPlace(t, scen.Name+"/"+is.Name, n, steps); failed != 0 {
				t.Fatalf("%s/%s: %d fix lines failed", scen.Name, is.Name, failed)
			}
		}
	}
	if fixes == 0 {
		t.Fatal("no issue has a fix line")
	}

	t.Run("re-entered route", func(t *testing.T) {
		n := testNet()
		r := "ip route 192.168.0.0 255.255.0.0 10.2.0.10 5"
		holdToInPlace(t, "re-entry", n, []writeStep{{"r1", r}})
		cmd, _ := New("r1", nil).Parse(r)
		d, changes, err := cmd.Apply(n.Devices["r1"])
		if err != nil || len(changes) != 0 || d != n.Devices["r1"] {
			t.Fatalf("re-entered route: changes %v, err %v, device replaced %v", changes, err, d != n.Devices["r1"])
		}
	})
	t.Run("no ip route matches without the distance", func(t *testing.T) {
		n := testNet()
		holdToInPlace(t, "route", n, []writeStep{{"r1", "ip route 192.168.0.0 255.255.0.0 10.2.0.10 5"}})
		cmd, _ := New("r1", nil).Parse("no ip route 192.168.0.0 255.255.0.0 10.2.0.10")
		d, changes, err := cmd.Apply(n.Devices["r1"])
		want := netmodel.StaticRoute{Prefix: netip.MustParsePrefix("192.168.0.0/16"), NextHop: netip.MustParseAddr("10.2.0.10"), Distance: 5}
		if err != nil || len(changes) != 1 || changes[0].Op != config.OpRemoveStaticRoute || *changes[0].Route != want || len(d.StaticRoutes) != 0 {
			t.Fatalf("no ip route: changes %v, err %v, want one removing %v", changes, err, want)
		}
	})
	t.Run("an existing sequence number replaces its entry", func(t *testing.T) {
		n := testNet()
		line := "access-list EDGE 10 deny tcp any any eq 23"
		cmd, _ := New("r1", nil).Parse(line)
		if _, changes, err := cmd.Apply(n.Devices["r1"]); err != nil || len(changes) != 1 || changes[0].Op != config.OpSetACLEntry {
			t.Fatalf("%q: changes %v, err %v, want one set-acl-entry", line, changes, err)
		}
		holdToInPlace(t, "replace", n, []writeStep{{"r1", line}})
		if got := n.Devices["r1"].ACLs["EDGE"].Entries; len(got) != 1 || got[0].Action != netmodel.Deny {
			t.Fatalf("EDGE holds %v, want the one replaced entry", got)
		}
	})
	t.Run("router ospf and router bgp create the process", func(t *testing.T) {
		n := testNet()
		n.Devices["r1"].OSPF = nil
		holdToInPlace(t, "create", n, []writeStep{
			{"r1", "router ospf network 10.0.0.0 0.255.255.255 area 0"},
			{"r1", "router bgp 65001 network 10.1.0.0 mask 255.255.255.0"},
		})
		if d := n.Devices["r1"]; d.OSPF == nil || d.OSPF.ProcessID != 1 || d.BGP == nil || d.BGP.LocalAS != 65001 {
			t.Fatalf("processes not created: ospf %+v bgp %+v", d.OSPF, d.BGP)
		}
	})
	t.Run("failed writes", func(t *testing.T) {
		n := testNet()
		n.Devices["r1"].OSPF = nil
		// The reference half-applies the first two (it creates the
		// process, then fails); Execute must create nothing.
		steps := []writeStep{
			{"r1", "router bgp 65001 neighbor bogus remote-as 5"},
			{"r1", "router ospf network 10.0.0.0 bogus area 0"},
			{"r1", "router bgp 65001 network 10.1.0.0 mask 255.255.255.0"},
			{"r1", "router bgp 64999 network 10.1.0.0 mask 255.255.255.0"}, // an AS mismatch
			{"r1", "interface Gi0/9 shutdown"},
			{"r1", "no access-list NOPE 10"},
			{"r1", "no ip route 10.9.0.0 255.255.0.0 10.2.0.10"},
			{"r1", "no vlan 99"},
			{"r1", "interface Gi0/0 ip address 10.1.0.300 255.255.255.0"},
			{"r1", "ip default-gateway bogus"},
		}
		if failed := holdToInPlace(t, "failed", n, steps); failed != len(steps)-1 {
			t.Fatalf("%d of %d steps failed, want all but the third", failed, len(steps))
		}
	})
}
