package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/faultinject"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/ticket"
)

// printAll renders every device of n, by name.
func printAll(n *netmodel.Network) map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = config.Print(d)
	}
	return out
}

// firstDiff names the first device, in name order, on which two renderings
// differ, or "" when they are equal.
func firstDiff(got, want map[string]string) string {
	for _, name := range sortedNames(got, want) {
		if got[name] != want[name] {
			return name
		}
	}
	return ""
}

func sortedNames(ms ...map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// isolationWatcher is one open twin and what it must print: its emulation
// layer is mirror — production sanitized and deep-copied at the open, with
// only the twin's own writes replayed onto it by a bare console — and its
// baseline is base, production as the open saw it, for ever.
type isolationWatcher struct {
	name   string
	eng    *Engagement
	mirror *netmodel.Network
	base   map[string]string
	rows   []ticket.FixCommand // console lines still to interleave
}

// isolationRun is one scenario's isolation oracle (TestTwinIsolation).
type isolationRun struct {
	t        *testing.T
	sys      *System
	want     *netmodel.Network // production as its own writes made it, kept apart
	watchers []*isolationWatcher
	turn     int
}

// open starts work on a fresh ticket for the issue and watches its twin.
func (r *isolationRun) open(is scenarios.Issue, tech string, rows []ticket.FixCommand) *isolationWatcher {
	r.t.Helper()
	eng, err := r.sys.StartWork(fileIssue(r.sys, is).ID, tech)
	if err != nil {
		r.t.Fatal(err)
	}
	mirror := r.sys.view().Clone()
	for name, d := range mirror.Devices {
		mirror.Devices[name] = config.Sanitize(d)
	}
	w := &isolationWatcher{name: tech, eng: eng, mirror: mirror, base: printAll(mirror), rows: rows}
	r.watchers = append(r.watchers, w)
	r.check("open " + tech)
	return w
}

// exec runs one console line in w's twin, replays it onto the mirror when it
// is a write, and checks every network.
func (r *isolationRun) exec(w *isolationWatcher, dev, line string) {
	r.t.Helper()
	sess, err := w.eng.Console(dev)
	if err == nil {
		_, err = sess.Exec(line)
	}
	if err != nil {
		r.t.Fatalf("%s: [%s] %s: %v", w.name, dev, line, err)
	}
	if cmd, _ := console.New(dev, nil).Parse(line); cmd.Write {
		if _, err := console.New(dev, console.NewEnv(w.mirror)).Run(line); err != nil {
			r.t.Fatalf("%s mirror: [%s] %s: %v", w.name, dev, line, err)
		}
	}
	r.check(fmt.Sprintf("%s [%s] %s", w.name, dev, line))
}

// check holds every network to what its own writes made it: production to
// want, each twin's emulation layer to its mirror and its baseline to what
// the open recorded, with every secret redacted in both.
func (r *isolationRun) check(step string) {
	r.t.Helper()
	prod := r.sys.view()
	if dev := firstDiff(printAll(prod), printAll(r.want)); dev != "" {
		r.t.Fatalf("after %s: production %s is not what its own writes made it:\n%s\nwant:\n%s",
			step, dev, config.Print(prod.Devices[dev]), config.Print(r.want.Devices[dev]))
	}
	for _, w := range r.watchers {
		emul, base := w.eng.Twin.Network(), w.eng.Twin.Baseline()
		if dev := firstDiff(printAll(emul), printAll(w.mirror)); dev != "" {
			r.t.Fatalf("after %s: twin %s's %s is not what its own writes made it:\n%s\nwant:\n%s",
				step, w.name, dev, config.Print(emul.Devices[dev]), config.Print(w.mirror.Devices[dev]))
		}
		if dev := firstDiff(printAll(base), w.base); dev != "" {
			r.t.Fatalf("after %s: twin %s's baseline moved on %s", step, w.name, dev)
		}
		for _, n := range []*netmodel.Network{emul, base} {
			for name, d := range n.Devices {
				for kind, v := range d.Secrets {
					if v != "<redacted>" {
						r.t.Fatalf("after %s: twin %s holds %s's %s secret", step, w.name, name, kind)
					}
				}
			}
		}
	}
}

// step checks every network after a production writer, then lets the next
// watcher with a line left write it: twins write between production
// writes, and production must not see it.
func (r *isolationRun) step(what string) {
	r.t.Helper()
	r.check(what)
	for range r.watchers {
		w := r.watchers[r.turn%len(r.watchers)]
		r.turn++
		if len(w.rows) > 0 {
			row := w.rows[0]
			w.rows = w.rows[1:]
			r.exec(w, row.Device, row.Line)
			return
		}
	}
}

// TestTwinIsolation is the isolation oracle, both directions, for every
// production writer. Twins are opened on every catalog ticket of university
// and the k=4 fat-tree, each while its fault is in production; then a fault
// injection, a ticket commit, a closure write through the benchmark shim
// MutateProduction, a push a fault injector fails into a rollback, one whose
// rollback fails too, followed by Recover, and an emergency write each
// drive production.
// After every one, each open twin prints exactly what it printed before
// plus its own writes (replayed onto a private copy), its baseline never
// moves, and production prints exactly its own writes (replayed onto a
// second copy). Between production writes the twins write, and production
// never changes. Secrets are redacted in every twin and intact in
// production. CI runs it twenty times under the race detector: one run
// missed a race on the twin's device map about 19 times in 20.
func TestTwinIsolation(t *testing.T) {
	for _, scen := range []*scenarios.Scenario{scenarios.University(), generate.FatTree(generate.FatTreeParams{K: 4})} {
		t.Run(scen.Name, func(t *testing.T) { testTwinIsolation(t, scen) })
	}
}

func testTwinIsolation(t *testing.T, scen *scenarios.Scenario) {
	sys, err := NewSystem(Options{Network: scen.Network.Clone(), Policies: scen.Policies,
		Sensitive: scen.Sensitive, PlatformSeed: "isolation"})
	if err != nil {
		t.Fatal(err)
	}
	r := &isolationRun{t: t, sys: sys, want: scen.Network.Clone()}
	var aclIssue scenarios.Issue
	for _, is := range scen.Issues {
		if is.Fault.Kind == privilege.TaskACL {
			aclIssue = is
		}
		// An injection, a twin opened on it that will write the fix in turns,
		// and the fix committed from a second twin.
		if err := sys.Enforcer.Inject(is.Fault.Name, is.Fault.Changes); err != nil {
			t.Fatal(err)
		}
		if err := is.Fault.Inject(r.want); err != nil {
			t.Fatal(err)
		}
		r.step("inject " + is.Name)
		r.open(is, "watch-"+is.Name, is.Fault.Fix)
		fixer := r.open(is, "fix-"+is.Name, nil)
		for _, row := range is.Script {
			r.exec(fixer, row.Device, row.Line)
		}
		changes := fixer.eng.Twin.Changes()
		if _, err := fixer.eng.CommitChanges(changes); err != nil {
			t.Fatalf("commit %s: %v", is.Name, err)
		}
		if err := config.ApplyChanges(r.want, changes); err != nil {
			t.Fatal(err)
		}
		r.step("commit " + is.Name)
	}
	if aclIssue.Name == "" {
		t.Fatal("no ACL issue in the catalog")
	}
	dev := aclIssue.Fault.RootCause
	deny := func(seq, port int) string {
		return fmt.Sprintf("access-list ISOLATION %d deny tcp any any eq %d", seq, port)
	}

	// A closure write through MutateProduction: an unbound ACL, so no
	// policy moves.
	entry := netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.TCP,
		Src: netip.MustParsePrefix("0.0.0.0/0"), Dst: netip.MustParsePrefix("0.0.0.0/0"), DstPort: 9990}
	write := func(n *netmodel.Network) error {
		n.Devices[dev].ACL("ISOLATION", true).InsertEntry(entry)
		return nil
	}
	if err := sys.MutateProduction(write); err != nil {
		t.Fatal(err)
	}
	_ = write(r.want)
	r.step("closure write")

	// A two-change push onto dev whose second change fails: rolled back.
	// Then the same with the restore failing too: quarantined, production
	// partial exactly by the first change, until Recover replays the rest.
	pushes := []struct {
		name, outcome string
		rules         []faultinject.Rule
	}{
		{"rollback", "(rolled back)", []faultinject.Rule{{Scope: dev, Op: "apply", FailNth: 2, Class: faultinject.Permanent}}},
		{"quarantine", "production quarantined", []faultinject.Rule{{Scope: dev, Op: "apply", FailNth: 2, Class: faultinject.Permanent},
			{Scope: dev, Op: "restore", Outage: true, Class: faultinject.Permanent}}},
	}
	for i, push := range pushes {
		w := r.open(aclIssue, "push-"+push.name, nil)
		r.exec(w, dev, deny(20+2*i, 9991+2*i))
		r.exec(w, dev, deny(21+2*i, 9992+2*i))
		changes := w.eng.Twin.Changes()
		sys.Enforcer.SetInjector(faultinject.New(faultinject.Plan{Rules: push.rules}))
		if _, err := w.eng.CommitChanges(changes); err == nil || !strings.Contains(err.Error(), push.outcome) {
			t.Fatalf("%s push: err = %v", push.name, err)
		}
		sys.Enforcer.SetInjector(nil)
		if push.name == "rollback" {
			r.step("rolled-back push")
			continue
		}
		if q, _ := sys.Enforcer.Quarantined(); !q {
			t.Fatal("a failed rollback did not quarantine")
		}
		pre := r.want
		r.want = pre.Clone()
		if err := config.ApplyChanges(r.want, changes[:1]); err != nil {
			t.Fatal(err)
		}
		r.step("quarantined push")
		rep, err := sys.Enforcer.Recover()
		if err != nil || rep.Action != "committed" {
			t.Fatalf("recover: %+v, %v", rep, err)
		}
		r.want = pre
		if err := config.ApplyChanges(r.want, changes); err != nil {
			t.Fatal(err)
		}
		r.step("recover")
	}

	// An emergency write: a one-device commit from a console on production.
	w := r.open(aclIssue, "emergency", nil)
	w.eng.EnableEmergency("admin")
	con, err := w.eng.EmergencyConsole(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := con.Exec(deny(30, 9995)); err != nil {
		t.Fatal(err)
	}
	if _, err := console.New(dev, console.NewEnv(r.want)).Run(deny(30, 9995)); err != nil {
		t.Fatal(err)
	}
	r.step("emergency write")

	// Every twin writes what it has left; production never moves.
	for _, w := range r.watchers {
		for _, row := range w.rows {
			r.exec(w, row.Device, row.Line)
		}
		w.rows = nil
	}
}
