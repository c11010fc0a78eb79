package generate_test

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heimdall/internal/attacksurface"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/spec"
)

// serialize renders a scenario into one deterministic byte string: device
// configs in name order, the mined policy set, and the issue scripts.
func serialize(s *scenarios.Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s\n", s.Name)
	names := make([]string, 0, len(s.Configs))
	for name := range s.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, s.Configs[name])
	}
	for _, p := range s.Policies {
		fmt.Fprintf(&b, "policy %+v\n", p)
	}
	for _, is := range s.Issues {
		fmt.Fprintf(&b, "issue %s src=%s dst=%s proto=%d port=%d\n",
			is.Name, is.SrcHost, is.DstHost, is.Proto, is.DstPort)
		for _, cmd := range is.Script {
			fmt.Fprintf(&b, "  %s: %s\n", cmd.Device, cmd.Line)
		}
	}
	return b.String()
}

// TestGeneratorDeterminism pins the generators' core contract: the same
// parameters and seed always produce a byte-identical scenario.
func TestGeneratorDeterminism(t *testing.T) {
	builds := map[string]func() *scenarios.Scenario{
		"fattree": func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4, Seed: 7}) },
		"isp": func() *scenarios.Scenario {
			return generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2, Seed: 7})
		},
		"wan": func() *scenarios.Scenario { return generate.WAN(generate.WANParams{Sites: 4, Seed: 7}) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			a, b := serialize(build()), serialize(build())
			if a != b {
				t.Fatalf("two builds with identical params diverged (len %d vs %d)", len(a), len(b))
			}
			if len(a) == 0 {
				t.Fatal("empty serialization")
			}
		})
	}
}

// TestFatTreeECMP checks the fabric delivers every leaf pair and that
// cross-pod routes really are ECMP: each top-of-rack's route to a remote
// rack subnet must spread over all k/2 uplinks.
func TestFatTreeECMP(t *testing.T) {
	const k, half = 4, 2
	scen := generate.FatTree(generate.FatTreeParams{K: k})
	snap := dataplane.Compute(scen.Network)

	hosts := scen.Network.Hosts()
	if want := k * half * half; len(hosts) != want {
		t.Fatalf("host count = %d, want %d", len(hosts), want)
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			tr, err := snap.Reach(src, dst, netmodel.ICMP, 0)
			if err != nil {
				t.Fatalf("Reach(%s, %s): %v", src, dst, err)
			}
			if scen.Sensitive[dst] && !strings.HasPrefix(src, "h0-0-") {
				// The storage guard isolates the sensitive rack from
				// everything but admin-rack ssh.
				if tr.Delivered() {
					t.Errorf("%s -> %s delivered past the storage guard: %s", src, dst, tr)
				}
				continue
			}
			if !tr.Delivered() {
				t.Errorf("%s -> %s not delivered: %s", src, dst, tr)
			}
		}
	}
	// The one flow the guard admits: admin-rack ssh into storage.
	if tr, err := snap.Reach("h0-1-0", "h0-0-0", netmodel.TCP, 22); err != nil || !tr.Delivered() {
		t.Fatalf("admin ssh into storage not delivered: %v %s", err, tr)
	}

	// Remote pods arrive as the ABRs' summarized /16 (area ranges collapse
	// each pod's racks to one aggregate), and the summary must still carry
	// k/2 next hops on k/2 distinct uplink interfaces. Same-pod remote racks
	// stay intra-area per-prefix /24s, ECMP'd the same way.
	ecmp := func(tor, want string) {
		t.Helper()
		outIfs := map[string]bool{}
		for _, e := range snap.RIB(tor) {
			if e.Proto == dataplane.OSPF && e.Prefix.String() == want {
				outIfs[e.OutIf] = true
			}
		}
		if len(outIfs) != half {
			t.Fatalf("%s route to %s uses %d uplinks (%v), want %d",
				tor, want, len(outIfs), outIfs, half)
		}
	}
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			tor := fmt.Sprintf("e%d-%d", p, i)
			for rp := 0; rp < k; rp++ {
				if rp != p {
					ecmp(tor, fmt.Sprintf("10.%d.0.0/16", rp))
					continue
				}
				for ri := 0; ri < half; ri++ {
					if ri != i {
						ecmp(tor, fmt.Sprintf("10.%d.%d.0/24", rp, ri))
					}
				}
			}
		}
	}
}

// TestGeneratedDeriveOracle extends the Derive ≡ Compute oracle to a
// generated scenario: on the k=4 fat-tree, a derived snapshot must match a
// from-scratch compute for the mutation classes the scale benchmarks lean
// on — including the backbone link shutdown used as the derive_l3topo
// timing mutation.
func TestGeneratedDeriveOracle(t *testing.T) {
	scen := generate.FatTree(generate.FatTreeParams{K: 4})
	base := scen.Network
	snap := dataplane.Compute(base)

	cases := []struct {
		name   string
		device string
		kind   dataplane.ChangeKind
		apply  func(d *netmodel.Device)
	}{
		{
			// The scale-tier bench mutation: a core-agg backbone link down.
			name: "backbone-link-down", device: "c0-0", kind: dataplane.ChangeL3Topology,
			apply: func(d *netmodel.Device) { d.Interfaces["Gi0/0"].Shutdown = true },
		},
		{
			name: "pod-link-down", device: "a1-0", kind: dataplane.ChangeL3Topology,
			apply: func(d *netmodel.Device) { d.Interfaces["Gi1/0"].Shutdown = true },
		},
		{
			name: "tor-ospf-cost", device: "e2-1", kind: dataplane.ChangeOSPF,
			apply: func(d *netmodel.Device) { d.Interfaces["Gi0/0"].OSPFCost = 9 },
		},
		{
			name: "tor-acl-deny", device: "e0-0", kind: dataplane.ChangeACL,
			apply: func(d *netmodel.Device) {
				d.ACL("STORAGE-GUARD", false).InsertEntry(netmodel.ACLEntry{
					Seq: 1, Action: netmodel.Deny, Proto: netmodel.AnyProto,
				})
			},
		},
		{
			name: "rack-vlan-move", device: "e3-0", kind: dataplane.ChangeL2,
			apply: func(d *netmodel.Device) { d.Interfaces["Gi1/0"].AccessVLAN = 999 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := base.CloneCOW(tc.device)
			tc.apply(mutated.Devices[tc.device])
			derived := snap.Derive(mutated, dataplane.ChangeSet{{Device: tc.device, Kind: tc.kind}})
			full := dataplane.Compute(mutated)
			for _, dev := range mutated.DeviceNames() {
				if !reflect.DeepEqual(derived.RIB(dev), full.RIB(dev)) {
					t.Errorf("%s RIB diverged:\nderived:\n%s\nfull:\n%s",
						dev, derived.FormatRIB(dev), full.FormatRIB(dev))
				}
			}
			for _, src := range mutated.Hosts() {
				for _, dst := range mutated.Hosts() {
					if src == dst {
						continue
					}
					g, gerr := derived.Reach(src, dst, netmodel.ICMP, 0)
					w, werr := full.Reach(src, dst, netmodel.ICMP, 0)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s->%s errors diverged: %v vs %v", src, dst, gerr, werr)
					}
					if gerr != nil {
						continue
					}
					if !reflect.DeepEqual(g, w) {
						t.Errorf("%s->%s trace diverged:\nderived: %s\nfull:    %s", src, dst, g, w)
					}
				}
			}
		})
	}
}

// TestPartitionedMineOracle pins the partitioned miner's degenerate cases
// against the exhaustive baseline: a saturating sample rate (and a nil
// partition map) must reproduce the exact all-pairs policy set.
func TestPartitionedMineOracle(t *testing.T) {
	scen := generate.FatTree(generate.FatTreeParams{K: 4})
	n := scen.Network
	snap := dataplane.Compute(n)

	services := []spec.Service{{Proto: netmodel.ICMP}, {Proto: netmodel.TCP, Port: 22}}
	sensitive := map[string]bool{"h0-0-0": true, "h0-0-1": true}
	partition := make(map[string]string)
	for _, h := range n.Hosts() {
		partition[h] = h[:2] // pod prefix "h0", "h1", ...
	}

	exhaustive := spec.Mine(snap, n, spec.Options{Services: services, Sensitive: sensitive})
	saturated := spec.Mine(snap, n, spec.Options{
		Services: services, Sensitive: sensitive,
		Partition: partition, CrossSample: 1,
	})
	if !reflect.DeepEqual(exhaustive, saturated) {
		t.Fatalf("saturated partitioned mine diverged from exhaustive: %d vs %d policies",
			len(saturated), len(exhaustive))
	}

	// Sampling must shrink the cross-pod slice but keep every intra-pod
	// policy, and stay deterministic in the seed.
	sampled := func(seed int64) []string {
		got := spec.Mine(snap, n, spec.Options{
			Services: services, Sensitive: sensitive,
			Partition: partition, CrossSample: 0.2, Seed: seed,
		})
		keys := make([]string, len(got))
		for i, p := range got {
			keys[i] = fmt.Sprintf("%d|%s|%s|%d|%d", p.Kind, p.Src, p.Dst, p.Proto, p.DstPort)
		}
		return keys
	}
	a, b := sampled(3), sampled(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampled mining is not deterministic in the seed")
	}
	if len(a) >= len(exhaustive) {
		t.Fatalf("sampling did not shrink the policy set: %d vs %d", len(a), len(exhaustive))
	}
	seen := make(map[string]bool, len(a))
	for _, k := range a {
		seen[k] = true
	}
	for _, p := range exhaustive {
		if partition[p.Src] == partition[p.Dst] {
			k := fmt.Sprintf("%d|%s|%s|%d|%d", p.Kind, p.Src, p.Dst, p.Proto, p.DstPort)
			if !seen[k] {
				t.Fatalf("intra-pod policy %s missing from sampled set", k)
			}
		}
	}
}

// TestGeneratedIssuesBreak checks each scripted issue is genuinely
// ticketable: the baseline probe is delivered, and injecting the fault on a
// COW clone breaks it.
func TestGeneratedIssuesBreak(t *testing.T) {
	scens := []*scenarios.Scenario{
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2}),
		generate.WAN(generate.WANParams{Sites: 4}),
	}
	for _, scen := range scens {
		base := scen.Network
		snap := dataplane.Compute(base)
		for _, is := range scen.Issues {
			t.Run(scen.Name+"/"+is.Name, func(t *testing.T) {
				tr, err := snap.Reach(is.SrcHost, is.DstHost, is.Proto, is.DstPort)
				if err != nil {
					t.Fatalf("baseline Reach: %v", err)
				}
				if !tr.Delivered() {
					t.Fatalf("baseline probe %s -> %s already broken: %s", is.SrcHost, is.DstHost, tr)
				}
				mutated := base.CloneCOW()
				if err := is.Fault.Inject(mutated); err != nil {
					t.Fatalf("Inject: %v", err)
				}
				broken := dataplane.Compute(mutated)
				tr, err = broken.Reach(is.SrcHost, is.DstHost, is.Proto, is.DstPort)
				if err == nil && tr.Delivered() {
					t.Fatalf("fault %s did not break %s -> %s: %s",
						is.Fault.Name, is.SrcHost, is.DstHost, tr)
				}
			})
		}
	}
}

// TestFatTreeBoundedSweep runs a bounded attack-surface sweep over the
// generated fat-tree: all three techniques, a prefix of the interface
// faults, a small mutation budget. The parallel sweep must reproduce the
// serial samples exactly; CI runs this under the race detector, so the
// worker fan-out is exercised against a generated datacenter fabric on
// every push.
func TestFatTreeBoundedSweep(t *testing.T) {
	scen := generate.FatTree(generate.FatTreeParams{K: 4})
	cases := attacksurface.InterfaceFaults(scen.Network, nil)
	if len(cases) > 8 {
		cases = cases[:8]
	}
	if len(cases) == 0 {
		t.Fatal("no interface fault cases on the fat-tree")
	}
	for _, tech := range []attacksurface.Technique{attacksurface.All, attacksurface.Neighbor, attacksurface.Heimdall} {
		ev := &attacksurface.Evaluator{Base: scen.Network, Policies: scen.Policies,
			Sensitive: scen.Sensitive, MutationBudget: 2}
		serial := ev.Evaluate(tech, cases)
		if len(serial.Samples) != len(cases) {
			t.Fatalf("%s: %d samples for %d cases", tech.Name, len(serial.Samples), len(cases))
		}
		ev.Workers = 4
		par := ev.Evaluate(tech, cases)
		if !reflect.DeepEqual(serial.Samples, par.Samples) {
			t.Errorf("%s: parallel sweep diverged from serial\nserial:   %+v\nparallel: %+v",
				tech.Name, serial.Samples, par.Samples)
		}
	}
}

// TestFaultsWriteOnlyRootCause pins, for every fault a tenant can be handed
// — the three hand-built scenarios and the generated families — what
// enforcer.Enforcer.Inject and the attack-surface sweep rely on: a fault's
// change set is not empty, every change names its RootCause, Changes only
// reads the network it is given, and the set applied changes the device.
func TestFaultsWriteOnlyRootCause(t *testing.T) {
	scens := []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
		generate.FatTree(generate.FatTreeParams{K: 8}),
		generate.ISP(generate.ISPParams{Pops: 4, CustomersPerPop: 2}),
		generate.WAN(generate.WANParams{Sites: 4}),
	}
	for _, scen := range scens {
		if len(scen.Issues) == 0 {
			t.Fatalf("%s has no issues", scen.Name)
		}
		n := scen.Network
		for _, is := range scen.Issues {
			root := is.Fault.RootCause
			devices, printed := maps.Clone(n.Devices), config.Print(n.Devices[root])
			changes, err := is.Fault.Changes(n)
			if err != nil {
				t.Fatalf("%s/%s: Changes: %v", scen.Name, is.Name, err)
			}
			if len(changes) == 0 {
				t.Fatalf("%s/%s: the fault has no changes", scen.Name, is.Name)
			}
			for _, c := range changes {
				if c.Device != root {
					t.Fatalf("%s/%s: the fault writes %s, its RootCause is %s: %s", scen.Name, is.Name, c.Device, root, c)
				}
			}
			if !maps.Equal(n.Devices, devices) || config.Print(n.Devices[root]) != printed {
				t.Fatalf("%s/%s: Changes wrote the network it read", scen.Name, is.Name)
			}
			faulted := n.CloneCOW()
			if err := config.ApplyChanges(faulted, changes); err != nil {
				t.Fatalf("%s/%s: %v", scen.Name, is.Name, err)
			}
			if config.Print(faulted.Devices[root]) == printed {
				t.Fatalf("%s/%s: the fault's changes leave %s as it was", scen.Name, is.Name, root)
			}
		}
	}
}
