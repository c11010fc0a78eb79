package enforcer

import (
	"testing"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
	"heimdall/internal/twin"
)

// TestWritersLeaveReaders: production's devices are immutable once
// published, because every writer replaces the device it writes (a
// review's shadow and a commit's push through config.ApplyChange, a
// rollback with the backup's device, Recover on a clone). So every reader
// taken along the way prints as it did when it was taken, across a review,
// a commit, a rolled-back push, a push whose rollback fails, and the
// Recover that repairs it: each View(false), each review's kept shadow, an
// open twin's emulation layer and baseline, and each commit's backup, whose
// devices a rollback puts back where the view taken before it held them.
func TestWritersLeaveReaders(t *testing.T) {
	n := prod()
	e := newEnforcer(n)
	var sleeps []time.Duration
	e.Retry = fastRetry(&sleeps)
	type reader struct {
		what  string
		net   *netmodel.Network
		print string
	}
	var readers []reader
	hold := func(what string, net *netmodel.Network) {
		readers = append(readers, reader{what, net, fingerprint(net)})
	}
	view := func(what string) *netmodel.Network {
		v, _ := e.View(false)
		hold("the view "+what, v)
		return v
	}
	step := func(what string) {
		t.Helper()
		for _, r := range readers {
			if fingerprint(r.net) != r.print {
				t.Fatalf("%s wrote %s", what, r.what)
			}
		}
		if k := e.kept.Load(); k != nil {
			hold("the shadow kept after "+what, k.net)
		}
	}
	open, _ := e.SanitizedView()
	tw, err := twin.FromView(twin.Config{Ticket: "T1", Technician: "alice", Production: open, Spec: aclSpec()})
	if err != nil {
		t.Fatal(err)
	}
	hold("the open twin", tw.Network())
	hold("the open twin's baseline", tw.Baseline())
	push := func(seq int) []config.Change {
		return []config.Change{benignChange(seq, 443), benignChange(seq+1, 8443)}
	}

	view("before the review")
	if d := e.check(push(15), aclSpec()); !d.Accepted {
		t.Fatalf("review rejected: %s", d.Reason())
	}
	if e.kept.Load() == nil {
		t.Fatal("the accepted review kept no shadow")
	}
	step("a review")

	view("before the commit")
	if _, err := e.submit(push(15), aclSpec()); err != nil {
		t.Fatal(err)
	}
	step("a commit")

	for _, c := range []struct {
		what  string
		rules []faultinject.Rule
	}{
		{"a rolled-back push", []faultinject.Rule{{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent}}},
		{"a push whose rollback failed", []faultinject.Rule{
			{Scope: "r1", Op: "apply", FailNth: 2, Class: faultinject.Permanent},
			{Scope: "r1", Op: "restore", Outage: true},
		}},
	} {
		backup := view("before " + c.what)
		e.SetInjector(faultinject.New(faultinject.Plan{Rules: c.rules}))
		if _, err := e.submit(push(17), aclSpec()); err == nil {
			t.Fatalf("%s: the commit succeeded", c.what)
		}
		e.SetInjector(nil)
		step(c.what)
		if q, _ := e.Quarantined(); !q {
			after, _ := e.View(false)
			for name, d := range after.Devices {
				if backup.Devices[name] != d {
					t.Fatalf("%s: production's %s is not the device the backup held", c.what, name)
				}
			}
		}
	}
	if rep, err := e.Recover(); err != nil || rep.Action != "committed" {
		t.Fatalf("Recover = %+v, %v, want committed", rep, err)
	}
	step("Recover")
}
