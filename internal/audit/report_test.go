package audit

import (
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	tr := testTrail()
	tr.Append("T-0001", "alice", KindSession, "twin created", true)
	tr.Append("T-0001", "alice", KindCommand, "[r1] show ip route", true)
	tr.Append("T-0001", "alice", KindDecision, "allow show.ip.route on device:r1", true)
	tr.Append("T-0001", "alice", KindCommand, "[r1] access-list X 10 permit ip any any", true)
	tr.Append("T-0001", "alice", KindDecision, "deny config.acl.add on device:r1:acl:X", false)
	tr.Append("T-0001", "alice", KindEscalation, "requested allow(config.acl.*, device:r1)", true)
	tr.Append("T-0001", "alice", KindVerify, "review: 1 changes, 21 policies checked, 0 violations", true)
	tr.Append("T-0001", "alice", KindChange, "r1 add-acl-entry: 10 permit ip any any", true)
	tr.Append("T-0002", "bob", KindSession, "EMERGENCY mode enabled (approved by admin)", true)
	tr.Append("T-0002", "bob", KindChange, "ROLLBACK: post-apply verification failed", false)

	reports := Summarize(tr.Links())
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	r1 := reports[0]
	if r1.Ticket != "T-0001" || r1.Commands != 2 || len(r1.Denials) != 1 ||
		len(r1.Changes) != 1 || r1.VerifyRuns != 1 || len(r1.Escalations) != 1 {
		t.Fatalf("T-0001 report = %+v", r1)
	}
	if r1.Emergency || r1.Rollbacks != 0 {
		t.Fatalf("T-0001 flags wrong: %+v", r1)
	}
	if !strings.Contains(r1.String(), "DENIED:") || !strings.Contains(r1.String(), "CHANGE:") {
		t.Fatalf("report text:\n%s", r1)
	}
	r2 := reports[1]
	if !r2.Emergency || r2.Rollbacks != 1 {
		t.Fatalf("T-0002 report = %+v", r2)
	}
	if r2.Technicians[0] != "bob" {
		t.Fatalf("technicians = %v", r2.Technicians)
	}
	if !r2.Last.After(r2.First) && r2.Last != r2.First {
		t.Fatal("time window wrong")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Fatalf("Summarize(nil) = %v", got)
	}
}
