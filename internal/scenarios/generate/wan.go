package generate

import (
	"fmt"

	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/spec"
	"heimdall/internal/ticket"
)

// WANParams sizes the multi-site enterprise WAN generator.
type WANParams struct {
	// Sites is the number of branch sites hanging off the HQ hubs
	// (clamped to [4, 14], default 6).
	Sites int
	// Seed varies the sampled cross-site slice of the mined policies.
	Seed int64
	// CrossSample overrides the cross-site mining rate (default 0.5).
	CrossSample float64
}

func (p *WANParams) normalize() {
	if p.Sites == 0 {
		p.Sites = 6
	}
	if p.Sites < 4 {
		p.Sites = 4
	}
	if p.Sites > 14 {
		p.Sites = 14
	}
	if p.CrossSample == 0 {
		p.CrossSample = 0.5
	}
}

// WAN builds a multi-site enterprise WAN scenario: two HQ hub routers in
// OSPF area 0 (each with a datacenter subnet), and per branch site a pair
// of site routers — the site's ABRs, one uplinked to each hub — plus an
// access switch serving two host VLANs. Site s is area s; the site-router
// pair is joined by TWO parallel equal-cost links, so losing either one
// changes no intra-site distance and no ABR summary — the change stays
// fingerprint-local to the site's area while every other area's SPF
// results are reused verbatim (the localization case PERFORMANCE.md §6
// measures).
//
// Addressing: WAN /30s under 10.250.0.0/16 (area 0), HQ datacenter
// subnets under 10.50.0.0/16, site s under 10.<100+s>.0.0/16.
func WAN(params WANParams) *scenarios.Scenario {
	params.normalize()
	sites := params.Sites
	n := netmodel.NewNetwork(fmt.Sprintf("wan-s%d", sites))

	hub := func(r int) string { return fmt.Sprintf("hub%d", r) }
	sr := func(s, r int) string { return fmt.Sprintf("sr%d-%d", s, r) }
	ar := func(s int) string { return fmt.Sprintf("ar%d", s) }
	host := func(s, j int) string { return fmt.Sprintf("hs%d-%d", s, j) }

	wanRange := prefix4(10, 250, 0, 0, 16)
	dcRange := prefix4(10, 50, 0, 0, 16)
	siteRange := func(s int) netmodel.OSPFNetwork {
		return netmodel.OSPFNetwork{Prefix: prefix4(10, byte(100+s), 0, 0, 16), Area: s}
	}

	for r := 0; r < 2; r++ {
		h := n.AddDevice(hub(r), netmodel.Router)
		h.OSPF = &netmodel.OSPFProcess{
			ProcessID: 1, RouterID: addr4(6, 0, byte(r), 1),
			Networks: []netmodel.OSPFNetwork{
				{Prefix: wanRange, Area: 0}, {Prefix: dcRange, Area: 0},
			},
			Passive: map[string]bool{"Gi2/0": true},
		}
		n.AddDevice(fmt.Sprintf("hq-%d", r), netmodel.Host)
		attach(n, fmt.Sprintf("hq-%d", r), hub(r), "Gi2/0", addr4(10, 50, byte(1+r), 0), 10)
	}
	// Redundant hub interconnect (two parallel equal-cost links).
	link30(n, hub(0), "Gi0/0", hub(1), "Gi0/0", addr4(10, 250, 0, 0))
	link30(n, hub(0), "Gi0/1", hub(1), "Gi0/1", addr4(10, 250, 0, 4))

	wl := 2 // WAN /30 link counter, 10.250.<wl>.0
	for s := 1; s < sites; s++ {
		blk := byte(100 + s)
		for r := 0; r < 2; r++ {
			d := n.AddDevice(sr(s, r), netmodel.Router)
			d.OSPF = &netmodel.OSPFProcess{
				ProcessID: 1, RouterID: addr4(6, byte(s), byte(r), 1),
				Networks: []netmodel.OSPFNetwork{siteRange(s), {Prefix: wanRange, Area: 0}},
				// ABR summaries: the site collapses to one aggregate toward
				// the backbone; the WAN core and the HQ datacenters collapse
				// to one aggregate each toward the site.
				Ranges: []netmodel.OSPFNetwork{
					{Prefix: prefix4(10, blk, 0, 0, 16), Area: s},
					{Prefix: wanRange, Area: 0},
					{Prefix: dcRange, Area: 0},
				},
				Passive: map[string]bool{},
			}
		}
		sw := n.AddDevice(ar(s), netmodel.Switch)
		sw.OSPF = &netmodel.OSPFProcess{
			ProcessID: 1, RouterID: addr4(6, byte(s), 9, 1),
			Networks: []netmodel.OSPFNetwork{siteRange(s)},
			Passive:  map[string]bool{"Vlan10": true, "Vlan20": true},
		}
		for vi, vlan := range []int{10, 20} {
			sw.VLANs[vlan] = &netmodel.VLAN{ID: vlan, Name: fmt.Sprintf("lan%d", vi+1)}
			svi := sw.AddInterface(fmt.Sprintf("Vlan%d", vlan))
			svi.Addr = prefix4(10, blk, byte(1+vi), 1, 24)
		}

		// WAN uplinks: one site router to each hub.
		link30(n, sr(s, 0), "Gi0/0", hub(0), fmt.Sprintf("Gi1/%d", s), addr4(10, 250, byte(wl), 0))
		wl++
		link30(n, sr(s, 1), "Gi0/0", hub(1), fmt.Sprintf("Gi1/%d", s), addr4(10, 250, byte(wl), 0))
		wl++
		// Intra-site: the parallel site-router pair, then the access switch
		// dual-homed to both site routers.
		link30(n, sr(s, 0), "Gi0/1", sr(s, 1), "Gi0/1", addr4(10, blk, 255, 0))
		link30(n, sr(s, 0), "Gi0/2", sr(s, 1), "Gi0/2", addr4(10, blk, 255, 4))
		link30(n, sr(s, 0), "Gi1/0", ar(s), "Gi0/0", addr4(10, blk, 255, 8))
		link30(n, sr(s, 1), "Gi1/0", ar(s), "Gi0/1", addr4(10, blk, 255, 12))

		for j := 0; j < 4; j++ {
			vlan := 10 + 10*(j/2)
			n.AddDevice(host(s, j), netmodel.Host)
			attachLAN(n, host(s, j), ar(s), fmt.Sprintf("Gi1/%d", j), vlan,
				sw.Interface(fmt.Sprintf("Vlan%d", vlan)).Addr, byte(10+j%2))
		}
	}

	// hq-0 is the sensitive records server: https from site 1 only.
	sensitive := map[string]bool{"hq-0": true}
	guard := n.Devices[hub(0)].ACL("RECORDS-GUARD", true)
	guard.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP,
		Src: prefix4(10, 101, 0, 0, 16), Dst: prefix4(10, 50, 1, 0, 24), DstPort: 443})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Deny, Proto: netmodel.AnyProto,
		Dst: prefix4(10, 50, 1, 0, 24)})
	guard.InsertEntry(netmodel.ACLEntry{Seq: 30, Action: netmodel.Permit})
	n.Devices[hub(0)].Interface("Gi2/0").ACLOut = "RECORDS-GUARD"

	partition := map[string]string{"hq-0": "hq", "hq-1": "hq"}
	for s := 1; s < sites; s++ {
		for j := 0; j < 4; j++ {
			partition[host(s, j)] = fmt.Sprintf("site%d", s)
		}
	}

	issues := wanIssues(hub, ar, host)
	return finish(n.Name, n, sensitive, spec.Options{
		Services:    []spec.Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 443}},
		Sensitive:   sensitive,
		MaxPolicies: 250,
		Partition:   partition,
		CrossSample: params.CrossSample,
		Seed:        params.Seed,
	}, issues)
}

// wanIssues scripts the scenario's three ticket classes.
func wanIssues(hub func(int) string, ar func(int) string, host func(s, j int) string) []scenarios.Issue {
	// Over-tight records guard at HQ.
	aclFault := ticket.ACLDeny(hub(0), "RECORDS-GUARD", 5, prefix4(10, 50, 1, 10, 32), 443)
	acl := scenarios.Issue{
		Name: "acl", Fault: aclFault,
		SrcHost: host(1, 0), DstHost: "hq-0", Proto: netmodel.TCP, DstPort: 443,
	}
	script(&acl,
		ticket.FixCommand{Device: hub(0), Line: "show access-lists RECORDS-GUARD"},
		ticket.FixCommand{Device: hub(0), Line: "show running-config"},
	)

	// A desk move left site 2's first access port shut down.
	ifFault := ticket.InterfaceDown(ar(2), "Gi1/0")
	iface := scenarios.Issue{
		Name: "interface", Fault: ifFault,
		SrcHost: host(1, 0), DstHost: host(2, 0), Proto: netmodel.ICMP,
	}
	script(&iface,
		ticket.FixCommand{Device: ar(2), Line: "show interfaces"},
	)

	// Botched passive-interface rollout on site 3's access switch: both
	// uplinks silenced, the site's LANs vanish from the WAN.
	ospfFault := passiveAllFault(ar(3), []string{"Gi0/0", "Gi0/1"}, "site 3")
	ospf := scenarios.Issue{
		Name: "ospf", Fault: ospfFault,
		SrcHost: host(1, 0), DstHost: host(3, 0), Proto: netmodel.ICMP,
	}
	script(&ospf,
		ticket.FixCommand{Device: ar(3), Line: "show ip ospf neighbor"},
		ticket.FixCommand{Device: ar(3), Line: "show running-config"},
	)

	return []scenarios.Issue{acl, iface, ospf}
}
