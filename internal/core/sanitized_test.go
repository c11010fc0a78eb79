package core

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
)

// heldViewRun is one seeded sequence of TestHeldSanitizedView.
type heldViewRun struct {
	t       *testing.T
	sys     *System
	acl     scenarios.Issue
	secrets []string // every secret production's devices hold
	seq     int      // the next ACL entry a twin or emergency write adds
	// The last open's emulation layer as it opened, and production then.
	opened, seen map[string]*netmodel.Device
}

// open opens a twin on a fresh ticket for the issue and holds its emulation
// layer to production sanitized: every device prints as
// config.Print(config.Sanitize(production's)), with no production secret in
// it, and is the very copy the last open took wherever production's device
// is the one that open saw (held, not sanitized again).
func (r *heldViewRun) open(step string, is scenarios.Issue) *Engagement {
	r.t.Helper()
	prod := r.sys.view()
	eng, err := r.sys.StartWork(fileIssue(r.sys, is).ID, "tech")
	if err != nil {
		r.t.Fatalf("%s: open: %v", step, err)
	}
	emul := eng.Twin.Network()
	if len(emul.Devices) != len(prod.Devices) {
		r.t.Fatalf("%s: the open holds %d devices, production %d", step, len(emul.Devices), len(prod.Devices))
	}
	for name, d := range prod.Devices {
		got := emul.Devices[name]
		printed := config.Print(got)
		if want := config.Print(config.Sanitize(d)); printed != want {
			r.t.Fatalf("%s: the open's %s is not production's sanitized:\n%s\nwant:\n%s", step, name, printed, want)
		}
		for _, secret := range r.secrets {
			if strings.Contains(printed, secret) {
				r.t.Fatalf("%s: the open's %s prints production's secret %q", step, name, secret)
			}
		}
		if r.seen != nil && r.seen[name] == d && r.opened[name] != got {
			r.t.Fatalf("%s: %s was sanitized again, though production's device did not move", step, name)
		}
	}
	r.opened, r.seen = maps.Clone(emul.Devices), prod.Devices
	return eng
}

// twinWrite adds an entry to an unbound ACL on the ACL issue's root cause in
// eng's twin.
func (r *heldViewRun) twinWrite(step string, eng *Engagement) {
	r.t.Helper()
	sess, err := eng.Console(r.acl.Fault.RootCause)
	if err == nil {
		_, err = sess.Exec(r.denyLine())
	}
	if err != nil {
		r.t.Fatalf("%s: twin write: %v", step, err)
	}
}

func (r *heldViewRun) denyLine() string {
	r.seq++
	return fmt.Sprintf("access-list HELD %d deny tcp any any eq %d", r.seq, 9000+r.seq)
}

// push commits two twin writes through a fault injector that fails the
// second: rolled back, or quarantined when the restore fails too.
func (r *heldViewRun) push(step string, rules []faultinject.Rule, outcome string) {
	r.t.Helper()
	eng := r.open(step+": its twin", r.acl)
	r.twinWrite(step, eng)
	r.twinWrite(step, eng)
	r.sys.Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: rules}))
	defer r.sys.Enforcer.SetInjector(nil)
	if _, err := eng.CommitChanges(eng.Twin.Changes()); err == nil || !strings.Contains(err.Error(), outcome) {
		r.t.Fatalf("%s: err = %v, want %q", step, err, outcome)
	}
}

// TestHeldSanitizedView: an open's emulation layer is production sanitized
// whichever writer moved production since the last open, though the
// enforcer sanitizes only the devices a write replaced (SanitizedView). On
// university and the k=4 fat-tree, seeded random orders of production
// writes — each issue's fault injected and its fix committed, with an
// emergency write or a twin's writes at random between the two, a push
// rolled back, and one quarantined and then recovered — are each followed
// by a fresh open (open's checks). A twin's writes never reach the held
// copies: the next open still takes them, printing as production does.
func TestHeldSanitizedView(t *testing.T) {
	for _, build := range []func() *scenarios.Scenario{
		scenarios.University,
		func() *scenarios.Scenario { return generate.FatTree(generate.FatTreeParams{K: 4}) },
	} {
		for seed := int64(1); seed <= 2; seed++ {
			scen := build()
			t.Run(fmt.Sprintf("%s/%d", scen.Name, seed), func(t *testing.T) { testHeldSanitizedView(t, scen, seed) })
		}
	}
}

func testHeldSanitizedView(t *testing.T, scen *scenarios.Scenario, seed int64) {
	sys, err := NewSystem(Options{Network: scen.Network, Policies: scen.Policies,
		Sensitive: scen.Sensitive, PlatformSeed: "held-view"})
	if err != nil {
		t.Fatal(err)
	}
	r := &heldViewRun{t: t, sys: sys}
	for _, d := range sys.view().Devices {
		for _, secret := range d.Secrets {
			r.secrets = append(r.secrets, secret)
		}
	}
	for _, is := range scen.Issues {
		if is.Fault.Kind == privilege.TaskACL {
			r.acl = is
		}
	}
	if len(r.secrets) == 0 || r.acl.Name == "" {
		t.Fatal("the scenario holds no secret or no ACL issue")
	}
	rng := rand.New(rand.NewSource(seed))
	between := func(step string) {
		switch rng.Intn(3) {
		case 0: // an emergency write
			eng := r.open(step+": emergency", r.acl)
			eng.EnableEmergency("admin")
			con, err := eng.EmergencyConsole(r.acl.Fault.RootCause)
			if err == nil {
				_, err = con.Exec(r.denyLine())
			}
			if err != nil {
				t.Fatalf("%s: emergency write: %v", step, err)
			}
			r.open(step+": after the emergency write", r.acl)
		case 1: // a twin's writes, which production never sees
			r.twinWrite(step, r.open(step+": a twin", r.acl))
			r.open(step+": after a twin's write", r.acl)
		}
	}
	var steps []func()
	for _, is := range scen.Issues {
		steps = append(steps, func() {
			if err := sys.Enforcer.Inject(is.Fault.Name, is.Fault.Changes); err != nil {
				t.Fatal(err)
			}
			fixer := r.open("inject "+is.Name, is)
			between("with " + is.Name + " in production")
			for _, row := range is.Script {
				sess, err := fixer.Console(row.Device)
				if err == nil {
					_, err = sess.Exec(row.Line)
				}
				if err != nil {
					t.Fatalf("%s: [%s] %s: %v", is.Name, row.Device, row.Line, err)
				}
			}
			r.open("the fix of "+is.Name+" in its twin", is)
			if _, err := fixer.CommitChanges(fixer.Twin.Changes()); err != nil {
				t.Fatalf("commit %s: %v", is.Name, err)
			}
			r.open("commit "+is.Name, is)
		})
	}
	dev := r.acl.Fault.RootCause
	fail := faultinject.Rule{Scope: dev, Op: "apply", FailNth: 2, Class: faultinject.Permanent}
	steps = append(steps, func() {
		r.push("rollback", []faultinject.Rule{fail}, "(rolled back)")
		r.open("rollback", r.acl)
	}, func() {
		r.push("quarantine", []faultinject.Rule{fail, {Scope: dev, Op: "restore", Outage: true, Class: faultinject.Permanent}},
			"production quarantined")
		r.open("quarantine", r.acl)
		if rep, err := sys.Enforcer.Recover(); err != nil || rep.Action != "committed" {
			t.Fatalf("recover: %+v, %v", rep, err)
		}
		r.open("recover", r.acl)
	})
	r.open("start", r.acl)
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	for _, step := range steps {
		step()
	}
}
