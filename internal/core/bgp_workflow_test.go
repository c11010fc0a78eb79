package core

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// bgpProd builds h1 - edge(AS 65001) === isp(AS 65010) - ext with a healthy
// eBGP peering.
func bgpProd() *netmodel.Network {
	n := netmodel.NewNetwork("bgp-prod")
	edge := n.AddDevice("edge", netmodel.Router)
	isp := n.AddDevice("isp", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	ext := n.AddDevice("ext", netmodel.Host)
	n.MustConnect("h1", "eth0", "edge", "Gi0/0")
	n.MustConnect("edge", "Gi0/1", "isp", "Gi0/0")
	n.MustConnect("isp", "Gi0/1", "ext", "eth0")
	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	edge.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	edge.Interface("Gi0/1").Addr = netip.MustParsePrefix("203.0.113.1/30")
	isp.Interface("Gi0/0").Addr = netip.MustParsePrefix("203.0.113.2/30")
	isp.Interface("Gi0/1").Addr = netip.MustParsePrefix("198.51.100.1/24")
	ext.Interface("eth0").Addr = netip.MustParsePrefix("198.51.100.10/24")
	ext.DefaultGateway = netip.MustParseAddr("198.51.100.1")
	edge.BGP = &netmodel.BGPProcess{LocalAS: 65001,
		Networks: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}}
	edge.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.2"), 65010)
	isp.BGP = &netmodel.BGPProcess{LocalAS: 65010,
		Networks: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}}
	isp.BGP.SetNeighbor(netip.MustParseAddr("203.0.113.1"), 65001)
	return n
}

// TestBGPWorkflowEndToEnd runs the full ticket lifecycle for the BGP
// wrong-AS fault: twin diagnosis via show ip bgp, modal-terminal fix, a
// denied write inside configure terminal refused, enforcer commit,
// production repaired.
func TestBGPWorkflowEndToEnd(t *testing.T) {
	prod := bgpProd()
	fault := ticket.BGPWrongAS("edge", 65001, netip.MustParseAddr("203.0.113.2"), 65011, 65010)
	if err := fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Network: prod, PlatformSeed: "bgp", Sensitive: nil})
	if err != nil {
		t.Fatal(err)
	}
	// Policies were mined from the broken state (session down), so state
	// the intended behaviour explicitly — as the quickstart does.
	sys.policies = sys.policies[:0]
	tk := sys.Tickets.Create(ticket.Ticket{
		Summary: fault.Description, Kind: fault.Kind,
		SrcHost: "h1", DstHost: "ext", Proto: netmodel.ICMP,
		Suspects: []string{"edge"}, CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "dana")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Console("edge")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Exec("show ip bgp")
	if err != nil || !strings.Contains(out, "Idle") {
		t.Fatalf("diagnosis = %q %v", out, err)
	}
	// Fix through the modal terminal over the mediated session.
	term := console.NewTerminal(sess.Exec)
	if err := feed(term, `
configure terminal
router bgp 65001
neighbor 203.0.113.2 remote-as 65010
end
`); err != nil {
		t.Fatal(err)
	}
	// The reference monitor still applies inside config mode: an ISP
	// ticket grants no ACL write.
	err = feed(term, "configure terminal\nip access-list extended EVIL\n10 permit ip any any\nend\n")
	var denied *twin.ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("denied write through the terminal = %v, want ErrDenied", err)
	}
	if ok, _ := eng.SymptomResolved(); !ok {
		t.Fatal("BGP fix did not resolve the symptom in the twin")
	}
	decision, err := eng.Commit()
	if err != nil || !decision.Accepted {
		t.Fatalf("commit: %v %+v", err, decision)
	}
	tr, err := dataplane.Compute(sys.view()).Reach("h1", "ext", netmodel.ICMP, 0)
	if err != nil || !tr.Delivered() {
		t.Fatalf("production: %v %v", tr, err)
	}
}

// feed types each non-blank line of text into the terminal, stopping at the
// first error.
func feed(term *console.Terminal, text string) error {
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			if _, err := term.Input(line); err != nil {
				return err
			}
		}
	}
	return nil
}
