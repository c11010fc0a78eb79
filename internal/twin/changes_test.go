package twin

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/scenarios/generate"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

// oracleTicket is one scenario issue opened the way core.StartWork opens
// it: production with the fault injected, its snapshot, the task-driven
// slice and the generated Privilegemsp. Twins built from it never mutate
// any of the four, so one fixture serves every script.
type oracleTicket struct {
	name string
	prod *netmodel.Network
	// printed is every device of prod rendered when the fixture was built:
	// what prod must print after every row of every script.
	printed map[string]string
	// base is prod sanitized: what every twin of the ticket starts from,
	// copied apart from any twin.
	base  *netmodel.Network
	snap  *dataplane.Snapshot
	slice map[string]bool
	spec  *privilege.Spec
	// seeds are the ticket's seed scripts, one "DEVICE LINE" per row.
	seeds []string
}

var oracleTickets = sync.OnceValue(func() [][]oracleTicket {
	var out [][]oracleTicket
	for _, scen := range []*scenarios.Scenario{
		scenarios.University(), scenarios.Enterprise(), scenarios.Provider(),
		generate.FatTree(generate.FatTreeParams{K: 4}),
	} {
		var tickets []oracleTicket
		for _, is := range scen.Issues {
			tickets = append(tickets, newOracleTicket(scen, is))
		}
		out = append(out, tickets)
	}
	return out
})

func newOracleTicket(scen *scenarios.Scenario, is scenarios.Issue) oracleTicket {
	prod := scen.Network.Clone()
	if err := is.Fault.Inject(prod); err != nil {
		panic(err)
	}
	snap := dataplane.Compute(prod)
	slice := ComputeSlice(prod, snap, SliceTaskDriven, is.SrcHost, is.DstHost, []string{is.Fault.RootCause})
	var scope, suspects []string
	for dev := range slice {
		scope = append(scope, dev)
		if prod.Devices[dev].Kind != netmodel.Host {
			suspects = append(suspects, dev)
		}
	}
	spec, err := privilege.Generate(privilege.TemplateInput{
		Ticket: "T-ORACLE", Technician: "fuzz", Kind: is.Fault.Kind, Scope: scope, Suspects: suspects,
	})
	if err != nil {
		panic(err)
	}
	tk := oracleTicket{name: scen.Name + "/" + is.Name, prod: prod, printed: printNet(prod), base: sanitized(prod),
		snap: snap, slice: slice, spec: spec}

	rows := func(cmds []ticket.FixCommand) string {
		var b strings.Builder
		for _, c := range cmds {
			fmt.Fprintf(&b, "%s %s\n", c.Device, c.Line)
		}
		return b.String()
	}
	// The fix undone line by line, last first.
	var undo []ticket.FixCommand
	for i := len(is.Fault.Fix) - 1; i >= 0; i-- {
		undo = append(undo, ticket.FixCommand{Device: is.Fault.Fix[i].Device, Line: inverseLine(prod, is.Fault.Fix[i])})
	}
	// One write the ticket's kind does not grant, on the root cause.
	root := is.Fault.RootCause
	beyond := "access-list FUZZ 10 permit ip any any"
	if is.Fault.Kind == privilege.TaskACL {
		beyond = "interface " + prod.Devices[root].InterfaceNames()[0] + " shutdown"
	}
	// Writes that fail on a device without the routing process they name:
	// the process must not be created for a statement that is refused.
	// Aimed at every suspect without the process, so one lands where
	// nothing else wrote.
	var halfway []ticket.FixCommand
	for _, dev := range prod.RoutersAndSwitches() {
		if !slice[dev] {
			continue
		}
		if prod.Devices[dev].BGP == nil {
			halfway = append(halfway, ticket.FixCommand{Device: dev, Line: "router bgp 65099 neighbor bogus remote-as 1"})
		}
		if prod.Devices[dev].OSPF == nil {
			halfway = append(halfway, ticket.FixCommand{Device: dev, Line: "router ospf network bogus 0.0.0.255 area 0"})
		}
	}
	garbage := "nosuch show vlan\n" + root + " \n" + root + " frobnicate\n\n" + root + " no access-list NOPE 5\n" +
		root + " interface Nope0 shutdown\n"
	tk.seeds = []string{
		rows(is.Script),
		rows(is.Fault.Fix),
		rows(is.Fault.Fix) + rows(undo),
		rows(is.Fault.Fix) + root + " " + beyond + "\n" + garbage + rows(undo),
		rows(halfway) + rows(is.Fault.Fix),
	}
	return tk
}

// sanitized is a deep copy of n with every device sanitized, as a twin of n
// starts — the twin's baseline, built apart from the twin.
func sanitized(n *netmodel.Network) *netmodel.Network {
	c := n.Clone()
	for name, d := range c.Devices {
		c.Devices[name] = config.Sanitize(d)
	}
	return c
}

// printNet renders every device of n, by name.
func printNet(n *netmodel.Network) map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = config.Print(d)
	}
	return out
}

// inverseLine is the console line that undoes a scripted fix line on the
// faulty network n.
func inverseLine(n *netmodel.Network, c ticket.FixCommand) string {
	d, f := n.Devices[c.Device], strings.Fields(c.Line)
	switch {
	case len(f) == 4 && f[0] == "no" && f[1] == "access-list":
		for _, e := range d.ACLs[f[2]].Entries {
			if fmt.Sprint(e.Seq) == f[3] {
				return "access-list " + f[2] + " " + config.FormatACLEntry(&e)
			}
		}
	case f[0] == "no":
		return strings.TrimPrefix(c.Line, "no ")
	case f[0] == "ip" && f[1] == "route":
		return "no " + strings.Join(f[:5], " ")
	case strings.Contains(c.Line, " no "):
		return strings.Replace(c.Line, " no ", " ", 1)
	case f[0] == "interface" && f[2] == "switchport":
		return fmt.Sprintf("interface %s switchport access vlan %d", f[1], d.Interfaces[f[1]].AccessVLAN)
	case f[0] == "router" && f[1] == "bgp":
		for _, nb := range d.BGP.Neighbors {
			if nb.Addr.String() == f[4] {
				return fmt.Sprintf("router bgp %s neighbor %s remote-as %d", f[2], f[4], nb.RemoteAS)
			}
		}
	}
	panic("no inverse for " + c.Line)
}

// replayScript runs a script of "DEVICE LINE" rows through a fresh twin of
// the ticket and holds Changes to its oracle after every row:
//
//   - Changes() deep-equals config.DiffNetwork of the sanitized production
//     (copied apart from the twin) and Network(), and their
//     verify.ChangeSetDigest (what addresses a review) is equal;
//   - Baseline() still equals the sanitized production: the pre-images are
//     pristine, and no device the twin shares with its emulation layer was
//     written;
//   - production prints byte for byte what it printed before the fixture's
//     first twin opened: the twin shares every device it has not written
//     with production, so a console line of any class — a read included —
//     that wrote a device it did not clone first would show here;
//   - the change set, applied to each written device's baseline, prints as
//     the twin shows it (Mismatch);
//   - a second read — a memo hit by construction — returns the same, after
//     the first returned slice was overwritten (the memo is not aliased);
//   - a row that was denied, failed to parse, opened no console, is
//     read-class or failed in Execute leaves the oracle's diff where it was.
//
// It reports how many rows were allowed writes that failed in Execute.
func replayScript(t *testing.T, tk oracleTicket, script string) (failedWrites int) {
	t.Helper()
	tw, err := New(Config{Ticket: "T-ORACLE", Technician: "fuzz", Production: tk.prod,
		Snapshot: tk.snap, Spec: tk.spec, Slice: tk.slice})
	if err != nil {
		t.Fatal(err)
	}
	check := func(row string) []config.Change {
		t.Helper()
		if !maps.Equal(printNet(tk.prod), tk.printed) {
			t.Fatalf("%s after %q: the twin wrote production", tk.name, row)
		}
		if moved := config.DiffNetwork(tk.base, tw.Baseline()); len(moved) != 0 {
			t.Fatalf("%s after %q: the baseline moved: %v", tk.name, row, moved)
		}
		want := config.DiffNetwork(tk.base, tw.Network())
		for read := 0; read < 2; read++ {
			got := tw.Changes()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %q (read %d): Changes() = %v, DiffNetwork = %v", tk.name, row, read, got, want)
			}
			if g, w := verify.ChangeSetDigest(got), verify.ChangeSetDigest(want); g != w {
				t.Fatalf("%s after %q (read %d): digest %s, oracle %s", tk.name, row, read, g, w)
			}
			for i := range got {
				got[i] = config.Change{Device: "scribbled"}
			}
			if err := tw.Mismatch(); err != nil {
				t.Fatalf("%s after %q: %v", tk.name, row, err)
			}
		}
		return want
	}
	prev := check("open")
	rows := strings.Split(script, "\n")
	if len(rows) > 48 {
		rows = rows[:48]
	}
	for _, row := range rows {
		dev, line, _ := strings.Cut(row, " ")
		// What the row may do, judged apart from the monitor: only a line
		// that parses as a write, on a console that opens, and is allowed,
		// is dispatched.
		cmd, perr := console.New(dev, nil).Parse(line)
		inert, failed := perr != nil || !cmd.Write, false
		if sess, err := tw.OpenConsole(dev); err != nil {
			inert = true
		} else if _, err := sess.Exec(line); err != nil {
			var denied *ErrDenied
			inert, failed = inert || errors.As(err, &denied), true
		}
		now := check(row)
		if moved := !reflect.DeepEqual(now, prev); (inert || failed) && moved {
			t.Fatalf("%s: %q changed nothing it may change, yet the diff moved: %v -> %v", tk.name, row, prev, now)
		}
		if failed && !inert {
			failedWrites++
		}
		prev = now
	}
	return failedWrites
}

// TestChangesMatchesDiffNetwork replays the fuzz target's seed corpus —
// every issue of university, enterprise, provider and the k=4 fat-tree:
// the whole script, the fix, the fix undone, the fix with an
// out-of-privilege write and garbage in between, and allowed writes that
// fail — against the whole-network diff Changes used to be.
//
// Leaving the memo in place on a write (drop `tw.stale = true` in Exec)
// fails all 12 tickets at their first fix line. The isp tickets grant
// config.bgp.* on routers that run no BGP, and "r1 router bgp 65099
// neighbor bogus remote-as 1" is such a row: `router bgp` and `router
// ospf` once created the routing process before refusing a malformed
// statement, so the failed row moved the diff. The count below keeps
// failing writes in the corpus.
func TestChangesMatchesDiffNetwork(t *testing.T) {
	failedWrites := 0
	for _, tickets := range oracleTickets() {
		for _, tk := range tickets {
			t.Run(tk.name, func(t *testing.T) {
				for _, script := range tk.seeds {
					failedWrites += replayScript(t, tk, script)
				}
			})
		}
	}
	if failedWrites == 0 {
		t.Fatal("no seed row was an allowed write that failed in Execute; the corpus no longer covers failed writes")
	}
}

// FuzzTwinChanges hands replayScript to the fuzzer: scenario, ticket and
// the script rows are all inputs. Run it from this directory:
//
//	go test -run '^$' -fuzz FuzzTwinChanges -fuzztime 60s -fuzzminimizetime 1x .
func FuzzTwinChanges(f *testing.F) {
	for s, tickets := range oracleTickets() {
		for i, tk := range tickets {
			for _, script := range tk.seeds {
				f.Add(uint8(s), uint8(i), script)
			}
		}
	}
	f.Fuzz(func(t *testing.T, scen, issue uint8, script string) {
		tickets := oracleTickets()[int(scen)%len(oracleTickets())]
		replayScript(t, tickets[int(issue)%len(tickets)], script)
	})
}

// TestChangesCarryEmptyACL: an ACL a technician creates and empties, then
// binds on r2's way to h2, denies every flow it sees in the twin. The change
// set carries the empty ACL (config.OpAddACL), not just the binding to an
// undefined ACL, which would deny nothing: production with the change set
// applied denies h1 -> h2 as the twin does.
func TestChangesCarryEmptyACL(t *testing.T) {
	prod := prodNet()
	if tr, _ := dataplane.Compute(prod).Reach("h1", "h2", netmodel.TCP, 80); !tr.Delivered() {
		t.Fatalf("baseline h1 -> h2 not delivered: %s", tr)
	}
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tw.OpenConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"access-list EDIT 10 permit tcp any any eq 80", "no access-list EDIT 10", "interface Gi0/1 ip access-group EDIT out"} {
		if _, err := sess.Exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	changes := tw.Changes()
	if err := tw.Mismatch(); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(changes, func(c config.Change) bool { return c.Op == config.OpAddACL && c.ACLName == "EDIT" }) {
		t.Fatalf("the change set does not create the empty ACL: %v", changes)
	}
	landed := prod.CloneCOW()
	if err := config.ApplyChanges(landed, changes); err != nil {
		t.Fatal(err)
	}
	inTwin, _ := tw.Snapshot().Reach("h1", "h2", netmodel.TCP, 80)
	inProd, _ := dataplane.Compute(landed).Reach("h1", "h2", netmodel.TCP, 80)
	if inTwin.Delivered() || inProd.Delivered() {
		t.Fatalf("the empty ACL let h1 -> h2 through: twin %s, production %s", inTwin, inProd)
	}
}

// TestMismatchNamesDevice plants on a written device what no change
// carries — a secret, which DiffDevice leaves to production — and Mismatch
// names that device, where before the plant it found nothing.
func TestMismatchNamesDevice(t *testing.T) {
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(), Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tw.OpenConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
		t.Fatal(err)
	}
	tw.Changes()
	if err := tw.Mismatch(); err != nil {
		t.Fatal(err)
	}
	tw.Network().Devices["r2"].Secrets = map[string]string{"enable": "planted"}
	if _, err := sess.Exec("interface Gi0/1 no shutdown"); err != nil {
		t.Fatal(err)
	}
	tw.Changes()
	if err := tw.Mismatch(); err == nil || !strings.Contains(err.Error(), "r2") {
		t.Fatalf("Mismatch() = %v, want one naming r2", err)
	}
}

// TestFailedWriteLeavesTwin: a write that fails after the monitor allowed
// it — an argument that does not parse, a process in another AS, an
// interface, ACL entry or process statement that is not there — applies
// nothing, so the twin has no change, no mismatch and still holds the
// device it opened with. The BGP and OSPF lines once created their process
// before the subcommand failed, so a review would have pushed one.
func TestFailedWriteLeavesTwin(t *testing.T) {
	prod := prodNet()
	prod.Devices["r4"].OSPF = nil
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	opened := maps.Clone(tw.Network().Devices)
	for _, step := range []struct{ dev, line string }{
		{"r2", "router bgp 65001 neighbor bogus remote-as 5"},
		{"r2", "router bgp 65001 network bogus mask 255.255.255.0"},
		{"r4", "router ospf network 10.0.0.0 bogus area 0"},
		{"r2", "interface Gi0/9 shutdown"},
		{"r2", "no access-list NOPE 10"},
	} {
		sess, err := tw.OpenConsole(step.dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(step.line); err == nil {
			t.Fatalf("%s %q: no error", step.dev, step.line)
		}
		if changes := tw.Changes(); len(changes) != 0 {
			t.Fatalf("%s %q: Changes() = %v, want none", step.dev, step.line, changes)
		}
		if err := tw.Mismatch(); err != nil {
			t.Fatalf("%s %q: %v", step.dev, step.line, err)
		}
		if tw.Network().Devices[step.dev] != opened[step.dev] {
			t.Fatalf("%s %q: the twin replaced the device", step.dev, step.line)
		}
	}
}
