package heimdall_test

import (
	"fmt"
	"net/netip"

	"heimdall"
)

// Example_quickstart walks through the complete Heimdall workflow on a
// small network: a misconfigured ACL blocks a web server; a technician
// diagnoses and fixes it inside a twin network, and the policy enforcer
// imports the verified change into production.
func Example_quickstart() {
	// ── Build a production network: h1 - r1 - h2 (a web server). ──────
	prod := heimdall.NewNetwork("acme-corp")
	r1 := prod.AddDevice("r1", heimdall.Router)
	h1 := prod.AddDevice("h1", heimdall.Host)
	web := prod.AddDevice("web", heimdall.Host)
	must(prod.Connect("h1", "eth0", "r1", "Gi0/0"))
	must(prod.Connect("r1", "Gi0/1", "web", "eth0"))

	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.2.0.1/24")
	web.Interface("eth0").Addr = netip.MustParsePrefix("10.2.0.10/24")
	web.DefaultGateway = netip.MustParseAddr("10.2.0.1")

	// The misconfiguration: an edge ACL denies tcp/80 to the web server.
	edge := r1.ACL("EDGE", true)
	edge.InsertEntry(heimdall.ACLEntry{Seq: 10, Action: heimdall.ACLDeny, Proto: heimdall.TCP,
		Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 80})
	edge.InsertEntry(heimdall.ACLEntry{Seq: 20, Action: heimdall.ACLPermit})
	r1.Interface("Gi0/0").ACLIn = "EDGE"

	// ── Stand up Heimdall around it. ───────────────────────────────────
	// Mining policies from a network that is already broken would pin the
	// breakage as intended behaviour, so state the intended policies
	// explicitly here.
	policies := []heimdall.Policy{
		{ID: "P001", Kind: heimdall.Reachability, Src: "h1", Dst: "web", Proto: heimdall.TCP, DstPort: 80},
		{ID: "P002", Kind: heimdall.Reachability, Src: "h1", Dst: "web", Proto: heimdall.ICMP},
	}
	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod, Policies: policies})
	must(err)

	// ── Step 0: the admin files a ticket. ──────────────────────────────
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary:   "web service on 'web' cannot receive packets",
		Kind:      heimdall.TaskACL,
		SrcHost:   "h1",
		DstHost:   "web",
		Proto:     heimdall.TCP,
		DstPort:   80,
		CreatedBy: "netadmin",
	})
	fmt.Printf("ticket filed: %s %q\n", tk.ID, tk.Summary)

	// ── Steps 1+2: privileges are generated, the twin comes up. ────────
	eng, err := sys.StartWork(tk.ID, "alice")
	must(err)
	fmt.Printf("twin ready; visible devices: %v\n", eng.Twin.VisibleDevices())
	fmt.Printf("generated Privilegemsp:\n%s", eng.Spec)

	// The technician reproduces and diagnoses the issue in the twin.
	h1c, err := eng.Console("h1")
	must(err)
	out, _ := h1c.Exec("ping web tcp 80")
	fmt.Printf("twin> h1: ping web tcp 80 -> %s\n", out)

	r1c, err := eng.Console("r1")
	must(err)
	out, _ = r1c.Exec("show access-lists EDGE")
	fmt.Printf("twin> r1: show access-lists EDGE ->\n%s\n", out)

	// The fix: remove the offending deny.
	_, err = r1c.Exec("no access-list EDGE 10")
	must(err)
	out, _ = h1c.Exec("ping web tcp 80")
	fmt.Printf("twin> h1: ping web tcp 80 -> %s\n", out)

	// ── Step 3: the enforcer verifies and imports the change. ──────────
	decision, err := eng.Commit()
	must(err)
	fmt.Printf("enforcer: %s (%d policies checked); ticket -> %s\n",
		decision.Reason(), decision.Checked, sys.Tickets.Get(tk.ID).Status)

	tr := heimdall.ComputeSnapshot(prod).TraceFrom("h1", heimdall.Flow{
		Proto:   heimdall.TCP,
		Src:     netip.MustParseAddr("10.1.0.10"),
		Dst:     netip.MustParseAddr("10.2.0.10"),
		DstPort: 80, SrcPort: 40000,
	})
	fmt.Printf("production: %s\n", tr)

	// The audit trail documents everything and is tamper-evident.
	trail := sys.Enforcer.Trail()
	must(trail.Verify())
	fmt.Printf("audit trail: %d entries, chain verified\n", trail.Len())

	// Output:
	// ticket filed: T-0001 "web service on 'web' cannot receive packets"
	// twin ready; visible devices: [h1 r1 web]
	// generated Privilegemsp:
	// # Privilegemsp ticket=T-0001 technician=alice
	// allow(show.*, device:h1)
	// allow(diag.*, device:h1)
	// allow(show.*, device:r1)
	// allow(diag.*, device:r1)
	// allow(show.*, device:web)
	// allow(diag.*, device:web)
	// allow(config.acl.*, device:r1)
	// twin> h1: ping web tcp 80 -> ..... failed (acl-deny at r1) tcp 10.1.0.10:40000 -> 10.2.0.10:80
	// twin> r1: show access-lists EDGE ->
	// Extended IP access list EDGE
	//     10 deny tcp any host 10.2.0.10 eq 80
	//     20 permit ip any any
	// twin> h1: ping web tcp 80 -> !!!!! success: tcp 10.1.0.10:40000 -> 10.2.0.10:80
	// enforcer: accepted (2 policies checked); ticket -> resolved
	// production: tcp 10.1.0.10:40000 -> 10.2.0.10:80: delivered path=[h1 r1 web]
	// audit trail: 14 entries, chain verified
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
