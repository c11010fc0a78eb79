package heimdall_test

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"heimdall"
	"heimdall/internal/console"
)

// terminalNet is h1 - r1 - web with an EDGE ACL on r1 that blocks HTTP to
// web at seq 10.
func terminalNet(t *testing.T) *heimdall.Network {
	t.Helper()
	n := heimdall.NewNetwork("api-test")
	r1 := n.AddDevice("r1", heimdall.Router)
	h1 := n.AddDevice("h1", heimdall.Host)
	web := n.AddDevice("web", heimdall.Host)
	if err := n.Connect("h1", "eth0", "r1", "Gi0/0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("r1", "Gi0/1", "web", "eth0"); err != nil {
		t.Fatal(err)
	}
	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.2.0.1/24")
	web.Interface("eth0").Addr = netip.MustParsePrefix("10.2.0.10/24")
	web.DefaultGateway = netip.MustParseAddr("10.2.0.1")
	edge := r1.ACL("EDGE", true)
	edge.InsertEntry(heimdall.ACLEntry{Seq: 10, Action: heimdall.ACLDeny, Proto: heimdall.TCP,
		Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 80})
	edge.InsertEntry(heimdall.ACLEntry{Seq: 20, Action: heimdall.ACLPermit})
	r1.Interface("Gi0/0").ACLIn = "EDGE"
	return n
}

// TestPublicTerminalOverTwin drives modal editing through a mediated
// console: the ACL fix inside configure terminal is one change the
// enforcer commits, a write the ACL ticket does not grant is refused even
// in config mode, and the trail summarizes into one per-ticket report.
func TestPublicTerminalOverTwin(t *testing.T) {
	prod := terminalNet(t)
	policies := []heimdall.Policy{
		{ID: "P001", Kind: heimdall.Reachability, Src: "h1", Dst: "web", Proto: heimdall.TCP, DstPort: 80},
	}
	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: "web down", Kind: heimdall.TaskACL,
		SrcHost: "h1", DstHost: "web", Proto: heimdall.TCP, DstPort: 80,
		CreatedBy: "admin",
	})
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Console("r1")
	if err != nil {
		t.Fatal(err)
	}
	// Modal editing over the mediated session.
	term := console.NewTerminal(sess.Exec)
	if err := feed(term, `
show access-lists EDGE
configure terminal
ip access-list extended EDGE
no 10
end
`); err != nil {
		t.Fatal(err)
	}
	// The reference monitor still applies inside config mode.
	err = feed(term, "configure terminal\ninterface Gi0/0\nshutdown\n")
	var denied *heimdall.ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("denied write through the terminal = %v, want ErrDenied", err)
	}
	if changes := eng.Twin.Changes(); len(changes) != 1 {
		t.Fatalf("twin changes = %v, want the one ACL entry removal", changes)
	}
	decision, err := eng.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !decision.Accepted {
		t.Fatalf("decision = %+v, want accepted", decision)
	}
	live, _ := sys.Enforcer.View(false)
	for _, e := range live.Devices["r1"].ACLs["EDGE"].Entries {
		if e.Seq == 10 {
			t.Fatalf("production EDGE still holds seq 10: %+v", e)
		}
	}

	// Per-ticket audit report through the facade.
	reports := heimdall.SummarizeAuditTrail(sys.Enforcer.Trail().Links())
	if len(reports) != 1 || reports[0].Commands == 0 {
		t.Fatalf("reports = %+v", reports)
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
