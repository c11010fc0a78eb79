package twin

import (
	"errors"
	"fmt"
	"reflect"
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
	name  string
	prod  *netmodel.Network
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
	tk := oracleTicket{name: scen.Name + "/" + is.Name, prod: prod, snap: snap, slice: slice, spec: spec}

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
	// Writes that fail after they mutated: a routing process is created
	// before its first, malformed, statement is refused. Aimed at every
	// suspect without the process, so one lands where nothing else wrote.
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
//   - Changes() deep-equals config.DiffNetwork(Baseline(), Network()), and
//     their verify.ChangeSetDigest (what addresses a review) is equal;
//   - a second read — a memo hit by construction — returns the same, after
//     the first returned slice was overwritten (the memo is not aliased);
//   - a row that was denied, failed to parse, opened no console or is
//     read-class leaves the oracle's diff where it was.
//
// It reports how many rows failed in Execute and moved the diff anyway.
func replayScript(t *testing.T, tk oracleTicket, script string) (halfway int) {
	t.Helper()
	tw, err := New(Config{Ticket: "T-ORACLE", Technician: "fuzz", Production: tk.prod,
		Snapshot: tk.snap, Spec: tk.spec, Slice: tk.slice})
	if err != nil {
		t.Fatal(err)
	}
	check := func(row string) []config.Change {
		t.Helper()
		want := config.DiffNetwork(tw.Baseline(), tw.Network())
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
		if moved := !reflect.DeepEqual(now, prev); inert && moved {
			t.Fatalf("%s: %q changed nothing it may change, yet the diff moved: %v -> %v", tk.name, row, prev, now)
		} else if failed && moved {
			halfway++
		}
		prev = now
	}
	return halfway
}

// TestChangesMatchesDiffNetwork replays the fuzz target's seed corpus —
// every issue of university, enterprise, provider and the k=4 fat-tree:
// the whole script, the fix, the fix undone, the fix with an
// out-of-privilege write and garbage in between, and writes that fail
// halfway — against the whole-network diff Changes used to be.
//
// Two seeded mutants fail it. Leaving the memo in place on a write (drop
// `tw.stale = true` in Exec) fails all 12 tickets at their first fix line.
// Recording the device only once Execute returned nil fails university/isp
// and enterprise/isp at "r1 router bgp 65099 neighbor bogus remote-as 1":
// a write that errors after it mutated does exist — `router bgp` and
// `router ospf` create the routing process, then refuse a malformed
// statement — and the isp tickets grant config.bgp.* on routers that run
// no BGP. The count below keeps such a row in the corpus.
func TestChangesMatchesDiffNetwork(t *testing.T) {
	halfway := 0
	for _, tickets := range oracleTickets() {
		for _, tk := range tickets {
			t.Run(tk.name, func(t *testing.T) {
				for _, script := range tk.seeds {
					halfway += replayScript(t, tk, script)
				}
			})
		}
	}
	if halfway == 0 {
		t.Fatal("no seed row failed in Execute after mutating its device; the corpus no longer covers invalidate-on-dispatch")
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
