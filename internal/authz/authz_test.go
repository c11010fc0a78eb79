package authz

import (
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
)

func aclChange() config.Change {
	return config.Change{Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 30, Action: netmodel.Permit, Proto: netmodel.TCP,
			Src: netip.MustParsePrefix("10.0.1.0/24"), Dst: netip.MustParsePrefix("10.0.2.0/24"), DstPort: 443}}
}

func vlanChange() config.Change {
	return config.Change{Device: "r1", Op: config.OpSetVLAN, VLAN: &netmodel.VLAN{ID: 30, Name: "guest"}}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name    string
		changes []config.Change
		want    Risk
	}{
		{"empty", nil, LowRisk},
		{"vlan-only", []config.Change{vlanChange()}, LowRisk},
		{"acl", []config.Change{aclChange()}, HighRisk},
		{"acl-replacement", []config.Change{{Device: "r1", Op: config.OpSetACLEntry, ACLName: "GUARD",
			Entry: &netmodel.ACLEntry{Seq: 30, Action: netmodel.Deny}}}, HighRisk},
		{"mixed", []config.Change{vlanChange(), aclChange()}, HighRisk},
		{"static-route", []config.Change{{Device: "r1", Op: config.OpAddStaticRoute}}, HighRisk},
		{"gateway", []config.Change{{Device: "r1", Op: config.OpSetGateway}}, HighRisk},
		{"ospf", []config.Change{{Device: "r1", Op: config.OpSetOSPF}}, HighRisk},
		{"bgp", []config.Change{{Device: "r1", Op: config.OpSetBGP}}, HighRisk},
		{"routed-interface", []config.Change{{Device: "r1", Op: config.OpSetInterface,
			Interface: &netmodel.Interface{Name: "ge-0/0/1", Addr: netip.MustParsePrefix("10.0.0.1/24")}}}, HighRisk},
		{"l2-interface", []config.Change{{Device: "sw1", Op: config.OpSetInterface,
			Interface: &netmodel.Interface{Name: "ge-0/0/2", Mode: netmodel.Access, AccessVLAN: 10}}}, LowRisk},
		{"unknown-op", []config.Change{{Device: "r1", Op: config.Op(99)}}, HighRisk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.changes); got != tc.want {
				t.Fatalf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

func testPolicy() (*Policy, *Signer, *Signer, *Signer) {
	p := NewPolicy(2, true)
	cust := p.Register("alice", RoleCustomer, []byte("alice-key"))
	msp := p.Register("bob", RoleMSP, []byte("bob-key"))
	msp2 := p.Register("carol", RoleMSP, []byte("carol-key"))
	return p, cust, msp, msp2
}

func TestVerifyMofN(t *testing.T) {
	changes := []config.Change{aclChange()}
	p, cust, msp, msp2 := testPolicy()

	// Happy path: customer + MSP.
	ok := []journal.Approval{cust.Approve("T-1", changes), msp.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, ok); err != nil {
		t.Fatalf("valid 2-of-N rejected: %v", err)
	}

	// Too few approvals.
	if err := p.Verify("T-1", changes, ok[:1]); err == nil || !strings.Contains(err.Error(), "need 2") {
		t.Fatalf("1 approval accepted, err=%v", err)
	}

	// Two MSP approvals but no customer: RequireBothParties trips.
	mspOnly := []journal.Approval{msp.Approve("T-1", changes), msp2.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, mspOnly); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("msp-only approvals accepted, err=%v", err)
	}

	// Same signer twice does not count twice.
	dup := []journal.Approval{cust.Approve("T-1", changes), cust.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, dup); err == nil {
		t.Fatal("duplicate signer counted as two approvals")
	}

	// Unknown signer is ignored.
	rogue := NewSigner("mallory", RoleMSP, []byte("mallory-key"))
	withRogue := []journal.Approval{cust.Approve("T-1", changes), rogue.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, withRogue); err == nil {
		t.Fatal("unregistered signer's approval counted")
	}
}

func TestVerifyBinding(t *testing.T) {
	changes := []config.Change{aclChange()}
	p, cust, msp, _ := testPolicy()

	// Approval over a different ticket must not verify.
	wrongTicket := []journal.Approval{cust.Approve("T-2", changes), msp.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, wrongTicket); err == nil {
		t.Fatal("approval for another ticket accepted")
	}

	// Approval over a different change set must not verify.
	other := []config.Change{vlanChange()}
	wrongChanges := []journal.Approval{cust.Approve("T-1", other), msp.Approve("T-1", changes)}
	if err := p.Verify("T-1", changes, wrongChanges); err == nil {
		t.Fatal("approval over different change set accepted")
	}

	// Tampered MAC must not verify.
	a := cust.Approve("T-1", changes)
	a.MAC = "00" + a.MAC[2:]
	if err := p.Verify("T-1", changes, []journal.Approval{a, msp.Approve("T-1", changes)}); err == nil {
		t.Fatal("tampered MAC accepted")
	}

	// Digest is deterministic and order-sensitive.
	if string(Digest("T-1", changes)) != string(Digest("T-1", changes)) {
		t.Fatal("Digest not deterministic")
	}
	two := []config.Change{aclChange(), vlanChange()}
	rev := []config.Change{vlanChange(), aclChange()}
	if string(Digest("T-1", two)) == string(Digest("T-1", rev)) {
		t.Fatal("Digest ignores change order")
	}
}
