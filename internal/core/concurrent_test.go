package core

import (
	"strings"
	"sync"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/ticket"
)

// TestConcurrentEngagements runs two technicians on two different tickets
// against the same deployment at once: both work their own twins in
// parallel, both commits land (serialized by the enforcer), production
// ends up fixed for both issues, and the shared audit trail stays intact.
func TestConcurrentEngagements(t *testing.T) {
	scen := scenarios.Enterprise()
	prod := scen.Network.Clone()
	var issueA, issueB scenarios.Issue
	for _, is := range scen.Issues {
		switch is.Name {
		case "isp":
			issueA = is
		case "ospf":
			issueB = is
		}
	}
	// Two independent faults at once.
	if err := issueA.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	if err := issueB.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{
		Network: prod, Policies: scen.Policies,
		Sensitive: scen.Sensitive, PlatformSeed: "conc",
	})
	if err != nil {
		t.Fatal(err)
	}

	work := func(issue scenarios.Issue, tech string) error {
		tk := sys.Tickets.Create(ticket.Ticket{
			Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
			SrcHost: issue.SrcHost, DstHost: issue.DstHost,
			Proto: issue.Proto, DstPort: issue.DstPort,
			Suspects: []string{issue.Fault.RootCause}, CreatedBy: "netadmin",
		})
		eng, err := sys.StartWork(tk.ID, tech)
		if err != nil {
			return err
		}
		if _, err := eng.RunScript(issue.Script); err != nil {
			return err
		}
		_, err = eng.Commit()
		return err
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, job := range []struct {
		issue scenarios.Issue
		tech  string
	}{{issueA, "alice"}, {issueB, "bob"}} {
		wg.Add(1)
		go func(issue scenarios.Issue, tech string) {
			defer wg.Done()
			if err := work(issue, tech); err != nil {
				errs <- err
			}
		}(job.issue, job.tech)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Both symptoms fixed in production.
	snap := dataplane.Compute(sys.view())
	for _, issue := range []scenarios.Issue{issueA, issueB} {
		tr, err := snap.Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
		if err != nil || !tr.Delivered() {
			t.Fatalf("%s not fixed: %v %v", issue.Name, tr, err)
		}
	}
	// The shared trail survived concurrent writers and summarizes both
	// tickets.
	if err := sys.Enforcer.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
	reports := audit.Summarize(sys.Enforcer.Trail().Links())
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if len(r.Changes) == 0 {
			t.Fatalf("ticket %s has no committed changes in its report", r.Ticket)
		}
	}
}

// drifted reports whether production has a device the engagement's twin
// baseline lacks, or one whose sanitized configuration is not its
// baseline's: whether the twin still reproduces production.
func drifted(e *Engagement) bool {
	base := e.Twin.Baseline()
	for name, d := range e.sys.view().Devices {
		b := base.Devices[name]
		if b == nil || len(config.DiffDevice(config.Sanitize(d), b)) != 0 {
			return true
		}
	}
	return false
}

// TestDriftDetection: a second engagement's commit makes the first
// engagement's twin stale, and drifted reports it.
func TestDriftDetection(t *testing.T) {
	scen := scenarios.Enterprise()
	prod := scen.Network.Clone()
	var issueA, issueB scenarios.Issue
	for _, is := range scen.Issues {
		switch is.Name {
		case "isp":
			issueA = is
		case "ospf":
			issueB = is
		}
	}
	if err := issueA.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	if err := issueB.Fault.Inject(prod); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Network: prod, Policies: scen.Policies,
		Sensitive: scen.Sensitive, PlatformSeed: "drift"})
	if err != nil {
		t.Fatal(err)
	}
	file := func(issue scenarios.Issue) *Engagement {
		tk := sys.Tickets.Create(ticket.Ticket{
			Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
			SrcHost: issue.SrcHost, DstHost: issue.DstHost,
			Proto: issue.Proto, DstPort: issue.DstPort,
			Suspects: []string{issue.Fault.RootCause}, CreatedBy: "netadmin",
		})
		eng, err := sys.StartWork(tk.ID, "tech-"+issue.Name)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	engA := file(issueA)
	engB := file(issueB)
	if drifted(engA) || drifted(engB) {
		t.Fatal("fresh twins report drift")
	}
	// A commits; B's twin is now stale.
	if _, err := engA.RunScript(issueA.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := engA.Commit(); err != nil {
		t.Fatal(err)
	}
	if !drifted(engB) {
		t.Fatal("B's twin should report drift after A's commit")
	}
	// B can still resolve and commit: the enforcer verifies against the
	// CURRENT production state.
	if _, err := engB.RunScript(issueB.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := engB.Commit(); err != nil {
		t.Fatal(err)
	}
	// The commit note landed on the ticket.
	found := false
	for _, tk := range sys.Tickets.List() {
		for _, note := range tk.Notes {
			if strings.Contains(note, "enforcer accepted") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("commit note missing from tickets")
	}
}
