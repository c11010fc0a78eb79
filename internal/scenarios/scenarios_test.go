package scenarios

import (
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

func TestEnterpriseBaseline(t *testing.T) {
	s := Enterprise()
	if err := s.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	row := s.Row()
	if row.Routers != 9 || row.Hosts != 9 || row.Links != 22 {
		t.Fatalf("topology = %+v, want 9/9/22", row)
	}
	if row.Policies != 21 {
		t.Fatalf("policies = %d, want 21", row.Policies)
	}
	t.Logf("enterprise config lines: %d (paper: 1394)", row.ConfigLines)
	if row.ConfigLines < 1100 || row.ConfigLines > 1700 {
		t.Errorf("config lines = %d, want ≈1394 (±~20%%)", row.ConfigLines)
	}

	// All mined policies hold on the baseline.
	res := verify.Check(s.Snapshot(), s.Policies)
	if len(res.Violations) > 0 {
		t.Fatalf("baseline violates mined policies: %v", res.Violations)
	}

	// Key reachability facts.
	snap := s.Snapshot()
	mustReach := [][2]string{{"h1", "h3"}, {"h2", "h3"}, {"h5", "h6"}, {"h4", "ext-www"}, {"h1", "h4"}}
	for _, pair := range mustReach {
		tr, err := snap.Reach(pair[0], pair[1], netmodel.ICMP, 0)
		if err != nil || !tr.Delivered() {
			t.Errorf("%s -> %s should deliver: %v %v", pair[0], pair[1], tr, err)
		}
	}
	// The finance server is isolated from ordinary hosts...
	tr, _ := snap.Reach("h1", "h9", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Error("h1 should not reach finance h9")
	}
	// ...but the backup host reaches it on ssh.
	tr, _ = snap.Reach("h8", "h9", netmodel.TCP, 22)
	if !tr.Delivered() {
		t.Errorf("h8 should reach h9 on ssh: %s", tr)
	}

	// Configs parse back to the same semantics (round trip through text).
	for dev, text := range s.Configs {
		if _, err := config.Parse(dev, text); err != nil {
			t.Fatalf("config for %s does not parse: %v", dev, err)
		}
	}
}

func TestUniversityBaseline(t *testing.T) {
	s := University()
	if err := s.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	row := s.Row()
	if row.Routers != 13 || row.Hosts != 17 || row.Links != 92 {
		t.Fatalf("topology = %+v, want 13/17/92", row)
	}
	if row.Policies != 175 {
		t.Fatalf("policies = %d, want 175", row.Policies)
	}
	t.Logf("university config lines: %d (paper: 2146)", row.ConfigLines)
	if row.ConfigLines < 1700 || row.ConfigLines > 2600 {
		t.Errorf("config lines = %d, want ≈2146 (±~20%%)", row.ConfigLines)
	}
	res := verify.Check(s.Snapshot(), s.Policies)
	if len(res.Violations) > 0 {
		t.Fatalf("baseline violates mined policies: %v", res.Violations[0])
	}
	snap := s.Snapshot()
	tr, _ := snap.Reach("h1", "h15", netmodel.TCP, 22)
	if !tr.Delivered() {
		t.Errorf("IT host should reach registrar on ssh: %s", tr)
	}
	tr, _ = snap.Reach("h2", "h15", netmodel.ICMP, 0)
	if tr.Delivered() {
		t.Error("ordinary host reaches sensitive h15")
	}
	tr, _ = snap.Reach("h4", "h14", netmodel.ICMP, 0)
	if !tr.Delivered() {
		t.Errorf("default chain to external service broken: %s", tr)
	}
}

// TestIssuesBreakAndScriptsFix injects every issue of both scenarios,
// checks the symptom appears, replays the prepared command script on the
// faulted network, and checks the symptom is gone.
func TestIssuesBreakAndScriptsFix(t *testing.T) {
	for _, scen := range []*Scenario{Enterprise(), University()} {
		for _, issue := range scen.Issues {
			t.Run(scen.Name+"/"+issue.Name, func(t *testing.T) {
				n := scen.Network.Clone()
				// Baseline symptom-free.
				tr, err := dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
				if err != nil || !tr.Delivered() {
					t.Fatalf("baseline should deliver: %v %v", tr, err)
				}
				if err := issue.Fault.Inject(n); err != nil {
					t.Fatal(err)
				}
				tr, _ = dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
				if tr.Delivered() {
					t.Fatalf("fault did not create the symptom: %s", tr)
				}
				// Replay the prepared script directly (no mediation here;
				// twin-mediated replays are covered in the core package).
				env := console.NewEnv(n)
				for _, cmd := range issue.Script {
					if _, err := console.New(cmd.Device, env).Run(cmd.Line); err != nil {
						t.Fatalf("script command %q on %s failed: %v", cmd.Line, cmd.Device, err)
					}
				}
				tr, _ = dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
				if !tr.Delivered() {
					t.Fatalf("script did not fix the symptom: %s", tr)
				}
			})
		}
	}
}

func TestScenariosDeterministic(t *testing.T) {
	a, b := Enterprise(), Enterprise()
	if a.Row() != b.Row() {
		t.Fatal("enterprise not deterministic")
	}
	for dev := range a.Configs {
		if a.Configs[dev] != b.Configs[dev] {
			t.Fatalf("config for %s differs between runs", dev)
		}
	}
	for i := range a.Policies {
		if a.Policies[i] != b.Policies[i] {
			t.Fatalf("policy %d differs", i)
		}
	}
}

func TestProviderBaseline(t *testing.T) {
	s := Provider()
	if err := s.Network.Validate(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	// Cross-site reachability over the eBGP backbone, both ways.
	for _, pair := range [][2]string{{"hA1", "hB1"}, {"hB1", "hA1"}, {"hA2", "hB1"}} {
		tr, err := snap.Reach(pair[0], pair[1], netmodel.ICMP, 0)
		if err != nil || !tr.Delivered() {
			t.Errorf("%s -> %s: %v %v", pair[0], pair[1], tr, err)
		}
	}
	// Billing server: https from hA1 only.
	tr, _ := snap.Reach("hA1", "hB2", netmodel.TCP, 443)
	if !tr.Delivered() {
		t.Errorf("authorized billing access broken: %s", tr)
	}
	tr, _ = snap.Reach("hA2", "hB2", netmodel.TCP, 443)
	if tr.Delivered() {
		t.Error("unauthorized host reaches billing")
	}
	// Mined policies hold.
	if res := verify.Check(snap, s.Policies); len(res.Violations) > 0 {
		t.Fatalf("baseline violates policies: %v", res.Violations[0])
	}
	if len(s.Policies) == 0 {
		t.Fatal("no policies mined")
	}
	// Configs round-trip (BGP sections included).
	for dev, text := range s.Configs {
		if _, err := config.Parse(dev, text); err != nil {
			t.Fatalf("config for %s: %v", dev, err)
		}
	}
}

func TestProviderIssues(t *testing.T) {
	scen := Provider()
	for _, issue := range scen.Issues {
		t.Run(issue.Name, func(t *testing.T) {
			n := scen.Network.Clone()
			tr, err := dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if err != nil || !tr.Delivered() {
				t.Fatalf("baseline: %v %v", tr, err)
			}
			if err := issue.Fault.Inject(n); err != nil {
				t.Fatal(err)
			}
			tr, _ = dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if tr.Delivered() {
				t.Fatalf("no symptom: %s", tr)
			}
			env := console.NewEnv(n)
			for _, cmd := range issue.Script {
				if _, err := console.New(cmd.Device, env).Run(cmd.Line); err != nil {
					t.Fatalf("%q on %s: %v", cmd.Line, cmd.Device, err)
				}
			}
			tr, _ = dataplane.Compute(n).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
			if !tr.Delivered() {
				t.Fatalf("script did not fix: %s", tr)
			}
		})
	}
}
