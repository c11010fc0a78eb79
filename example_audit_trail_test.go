package heimdall_test

import (
	"crypto/rand"
	"fmt"
	"strings"

	"heimdall"
)

// Example_auditTrail demonstrates Heimdall's trust machinery: remote
// attestation of the enclave-hosted policy enforcer, the tamper-evident
// audit chain every technician action lands on, and detection of a
// post-hoc tampering attempt on an exported trail.
func Example_auditTrail() {
	scen := heimdall.EnterpriseScenario()
	issue := scen.Issues[2] // isp
	must(issue.Fault.Inject(scen.Network))
	sys, err := heimdall.NewSystem(heimdall.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
	})
	must(err)

	// ── Attestation: the customer verifies WHO is enforcing. ───────────
	nonce := make([]byte, 16)
	_, err = rand.Read(nonce)
	must(err)
	report, err := sys.Attest(nonce)
	must(err)
	fmt.Printf("attested enforcer measurement: %s...\n", report.Measurement[:16])

	// ── Work a ticket; everything is audited. ──────────────────────────
	tk := sys.Tickets.Create(heimdall.Ticket{
		Summary: issue.Fault.Description, Kind: heimdall.TaskISP,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects: []string{"r3"}, CreatedBy: "netadmin",
	})
	eng, err := sys.StartWork(tk.ID, "alice")
	must(err)
	_, err = eng.RunScript(issue.Script)
	must(err)
	// One denied probe, for the record.
	if sess, err := eng.Console("r3"); err == nil {
		_, _ = sess.Exec("access-list X 10 permit ip any any") // denied: ISP ticket
	}
	_, err = eng.Commit()
	must(err)

	trail := sys.Enforcer.Trail()
	fmt.Printf("\naudit trail (%d entries):\n", trail.Len())
	for _, e := range trail.Links() {
		verdict := "ALLOW"
		if !e.Allowed {
			verdict = "DENY "
		}
		fmt.Printf("  #%02d %-10s %s %s\n", e.Index, e.Kind, verdict, e.Detail)
	}
	must(trail.Verify())
	fmt.Println("\nchain verification: OK")

	// The customer's auditor holds the trail key material via the secure
	// channel established at attestation; the example reuses the
	// enforcer's.
	export, err := trail.Export()
	must(err)
	var imported *heimdall.AuditTrail
	imported, err = heimdall.ImportAuditTrail(sys.Enforcer.TrailKey(), export)
	must(err)
	fmt.Printf("export re-imported under the trail key: %d entries\n", imported.Len())

	// ── Tampering attempt on the exported trail. ────────────────────────
	doctored := strings.Replace(string(export), "alice", "nobody", 1)
	fmt.Println("\nattacker rewrites the technician name in the exported log...")
	_, err = heimdall.ImportAuditTrail(sys.Enforcer.TrailKey(), []byte(doctored))
	if err == nil {
		panic("BUG: doctored trail accepted")
	}
	fmt.Printf("tamper detected on import: %v\n", err)

	// Output:
	// attested enforcer measurement: 91984656c2ed2b7a...
	//
	// audit trail (23 entries):
	//   #00 session    ALLOW twin created (18 devices, 8 visible)
	//   #01 session    ALLOW console opened on h4
	//   #02 command    ALLOW [h4] ping ext-www tcp 80
	//   #03 decision   ALLOW allow diag.ping on device:h4
	//   #04 session    ALLOW console opened on r5
	//   #05 command    ALLOW [r5] show ip route
	//   #06 decision   ALLOW allow show.ip.route on device:r5
	//   #07 session    ALLOW console opened on r3
	//   #08 command    ALLOW [r3] show ip route
	//   #09 decision   ALLOW allow show.ip.route on device:r3
	//   #10 command    ALLOW [r3] no ip route 0.0.0.0 0.0.0.0 10.0.6.9
	//   #11 decision   ALLOW allow config.route.remove on device:r3:route:0.0.0.0
	//   #12 command    ALLOW [r3] ip route 0.0.0.0 0.0.0.0 10.0.2.1
	//   #13 decision   ALLOW allow config.route.add on device:r3:route:0.0.0.0
	//   #14 command    ALLOW [h4] ping ext-www tcp 80
	//   #15 decision   ALLOW allow diag.ping on device:h4
	//   #16 session    ALLOW console opened on r3
	//   #17 command    ALLOW [r3] access-list X 10 permit ip any any
	//   #18 decision   DENY  deny config.acl.add on device:r3:acl:X
	//   #19 verify     ALLOW review: 2 changes, 21 policies checked, 0 violations
	//   #20 change     ALLOW r3 add-static-route: 0.0.0.0/0 via 10.0.2.1
	//   #21 change     ALLOW r3 remove-static-route: 0.0.0.0/0 via 10.0.6.9
	//   #22 session    ALLOW committed 2 changes to production (from=review)
	//
	// chain verification: OK
	// export re-imported under the trail key: 23 entries
	//
	// attacker rewrites the technician name in the exported log...
	// tamper detected on import: chain: link 0 content hash mismatch (tampered)
}
