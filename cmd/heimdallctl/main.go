// Command heimdallctl drives a Heimdall deployment on one of the built-in
// evaluation networks from the command line:
//
//	heimdallctl topology  -scenario enterprise            # print the network
//	heimdallctl configs   -scenario enterprise -device r3 # print configs
//	heimdallctl policies  -scenario university            # print the policy set
//	heimdallctl workflow  -scenario enterprise -issue vlan # run a full ticket
//	heimdallctl exec      -scenario enterprise -device r1 -line "show ip route"
//	heimdallctl terminal  -scenario enterprise -device r1  # interactive modal shell
//	heimdallctl metrics   -scenario enterprise -issue vlan # workflow + Prometheus dump
//	heimdallctl journal dump -in commit.journal            # inspect a journal export
//	heimdallctl journal diff -a coord.journal -b rep.journal
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/enforcer"
	"heimdall/internal/faultinject"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

// pushFlags tunes the enforcer's production-push pipeline for the
// workflow/metrics subcommands (see docs/ROBUSTNESS.md).
type pushFlags struct {
	retries   int
	backoff   time.Duration
	faultSeed int64
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "journal" {
		// journal has its own sub-subcommands and flag shape.
		runJournal(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scenName := fs.String("scenario", "enterprise", "enterprise, university or provider")
	device := fs.String("device", "", "restrict output to one device")
	issueName := fs.String("issue", "", "issue to run (vlan/ospf/isp for enterprise; acl/ospf/isp for university)")
	line := fs.String("line", "", "console command for the exec subcommand")
	server := fs.String("server", "", "heimdalld base URL; switches the subcommand to remote mode")
	tenant := fs.String("tenant", "", "tenant ID for remote subcommands")
	session := fs.String("session", "", "session ID for remote exec")
	token := fs.String("token", "", "session attach token for remote exec")
	technician := fs.String("technician", "operator", "technician name for the remote workflow")
	pushRetries := fs.Int("push-retries", 0, "max attempts per production push (0 = pipeline default)")
	pushBackoff := fs.Duration("push-backoff", 0, "base backoff between push retries (0 = pipeline default)")
	faultSeed := fs.Int64("fault-seed", 0, "inject a seeded fault schedule into the production push (0 = off)")
	exportJournal := fs.String("export-journal", "", "write the commit journal export to this file after a workflow")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	pf := pushFlags{retries: *pushRetries, backoff: *pushBackoff, faultSeed: *faultSeed}

	if *server != "" {
		c := newRemoteClient(*server)
		switch cmd {
		case "tenants":
			remoteTenants(c)
		case "sessions":
			remoteSessions(c, *tenant)
		case "tickets":
			remoteTickets(c, *tenant)
		case "exec":
			remoteExec(c, *tenant, *session, *token, *device, *line)
		case "workflow":
			remoteWorkflow(c, *tenant, *scenName, *issueName, *technician)
		case "metrics":
			remoteMetrics(c)
		case "pool":
			remotePool(c)
		default:
			log.Fatalf("subcommand %q has no remote mode (remote: tenants, sessions, tickets, exec, workflow, metrics, pool)", cmd)
		}
		return
	}
	switch cmd {
	case "tenants", "sessions", "tickets", "pool":
		log.Fatalf("subcommand %q needs -server (it talks to a running heimdalld)", cmd)
	}

	scen := loadScenario(*scenName)
	switch cmd {
	case "topology":
		printTopology(scen)
	case "configs":
		printConfigs(scen, *device)
	case "policies":
		printPolicies(scen)
	case "workflow":
		runWorkflow(scen, *issueName, nil, pf, *exportJournal)
	case "metrics":
		runMetrics(scen, *issueName, pf)
	case "exec":
		runExec(scen, *device, *line)
	case "terminal":
		runTerminal(scen, *device)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: heimdallctl {topology|configs|policies|workflow|exec|terminal|metrics} [flags]")
	fmt.Fprintln(os.Stderr, "       heimdallctl journal {dump|verify|diff} [flags]")
	fmt.Fprintln(os.Stderr, "       heimdallctl {tenants|sessions|tickets|exec|workflow|metrics|pool} -server http://host:port [flags]")
	os.Exit(2)
}

// findIssue resolves a named issue in a scenario or exits.
func findIssue(scen *scenarios.Scenario, name string) *scenarios.Issue {
	for i := range scen.Issues {
		if scen.Issues[i].Name == name {
			return &scen.Issues[i]
		}
	}
	log.Fatalf("no issue %q in %s", name, scen.Name)
	return nil
}

func loadScenario(name string) *scenarios.Scenario {
	switch name {
	case "enterprise":
		return scenarios.Enterprise()
	case "university":
		return scenarios.University()
	case "provider":
		return scenarios.Provider()
	}
	log.Fatalf("unknown scenario %q (want enterprise, university or provider)", name)
	return nil
}

func printTopology(scen *scenarios.Scenario) {
	row := scen.Row()
	fmt.Printf("%s: %d routers/switches, %d hosts, %d links, %d policies, %d config lines\n",
		row.Network, row.Routers, row.Hosts, row.Links, row.Policies, row.ConfigLines)
	for _, l := range scen.Network.Links {
		fmt.Printf("  %-22s <-> %s\n", l.A, l.B)
	}
}

func printConfigs(scen *scenarios.Scenario, device string) {
	if device != "" {
		text, ok := scen.Configs[device]
		if !ok {
			log.Fatalf("no device %q", device)
		}
		fmt.Print(text)
		return
	}
	for _, dev := range scen.Network.DeviceNames() {
		fmt.Printf("!===== %s =====\n%s\n", dev, scen.Configs[dev])
	}
}

func printPolicies(scen *scenarios.Scenario) {
	data, err := verify.MarshalPolicies(scen.Policies)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
}

func runWorkflow(scen *scenarios.Scenario, issueName string, meter telemetry.Meter, pf pushFlags, exportJournal string) {
	if issueName == "" {
		log.Fatal("workflow needs -issue")
	}
	issue := findIssue(scen, issueName)
	if err := issue.Fault.Inject(scen.Network); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault injected: %s\n", issue.Fault.Description)

	sys, err := core.NewSystem(core.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
		Meter: meter,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.Enforcer.Retry = enforcer.RetryPolicy{MaxAttempts: pf.retries, BaseBackoff: pf.backoff}
	if pf.faultSeed != 0 {
		prod, _ := sys.Enforcer.View(false)
		plan := faultinject.RandomPlan(pf.faultSeed, prod.RoutersAndSwitches(),
			[]string{"apply", "restore"})
		inj := faultinject.New(plan)
		if meter != nil {
			inj.SetMeter(meter)
		}
		sys.Enforcer.SetInjector(inj)
		fmt.Printf("fault injection armed: seed %d, %d rules\n", pf.faultSeed, len(plan.Rules))
	}
	tk := sys.Tickets.Create(ticket.Ticket{
		Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects: []string{issue.Fault.RootCause}, CreatedBy: "heimdallctl",
	})
	eng, err := sys.StartWork(tk.ID, "operator")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ticket %s assigned; twin slice: %v\n", tk.ID, eng.Twin.VisibleDevices())
	for _, cmd := range issue.Script {
		out, err := func() (string, error) {
			sess, err := eng.Console(cmd.Device)
			if err != nil {
				return "", err
			}
			return sess.Exec(cmd.Line)
		}()
		if err != nil {
			log.Fatalf("%s on %s: %v", cmd.Line, cmd.Device, err)
		}
		fmt.Printf("twin %s> %s\n", cmd.Device, cmd.Line)
		if out != "" {
			fmt.Println(indent(out))
		}
	}
	decision, err := eng.Commit()
	if err != nil {
		// Under an armed fault schedule a failed push is an outcome, not a
		// crash: report what the pipeline did and, if rollback itself was
		// defeated, run recovery.
		if pf.faultSeed != 0 {
			fmt.Printf("commit failed under faults: %v\n", err)
			if q, why := sys.Enforcer.Quarantined(); q {
				fmt.Printf("production quarantined: %s\n", why)
				rep, rerr := sys.Enforcer.Recover()
				if rerr != nil {
					log.Fatalf("recovery: %v", rerr)
				}
				fmt.Printf("recovery: commit %s %s (%d changes)\n", rep.Commit, rep.Action, rep.Changes)
			}
			fmt.Printf("commit journal: %d records\n", sys.Enforcer.Journal().Len())
			return
		}
		log.Fatalf("commit refused: %v", err)
	}
	fmt.Printf("enforcer: %s (%d policies checked); ticket -> %s\n",
		decision.Reason(), decision.Checked, sys.Tickets.Get(tk.ID).Status)
	fmt.Printf("audit trail: %d entries\n", sys.Enforcer.Trail().Len())
	if exportJournal != "" {
		data, err := sys.Enforcer.Journal().Export()
		if err != nil {
			log.Fatalf("journal export: %v", err)
		}
		if err := os.WriteFile(exportJournal, data, 0o600); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal exported to %s (verify with: heimdallctl journal verify -in %s -key %x)\n",
			exportJournal, exportJournal, sys.Enforcer.JournalKey())
	}
}

// runMetrics runs the full mediated workflow for an issue (the scenario's
// first issue when -issue is omitted) with a telemetry registry wired
// through the whole mediation path, then prints the Prometheus text dump.
func runMetrics(scen *scenarios.Scenario, issueName string, pf pushFlags) {
	if issueName == "" {
		if len(scen.Issues) == 0 {
			log.Fatalf("scenario %s has no issues", scen.Name)
		}
		issueName = scen.Issues[0].Name
	}
	reg := telemetry.NewRegistry()
	runWorkflow(scen, issueName, reg, pf, "")
	fmt.Println("\n# telemetry after the workflow:")
	fmt.Print(reg.Dump())
}

// runExec runs one console command directly on a scenario device — handy
// for poking at the built-in networks without a ticket.
func runExec(scen *scenarios.Scenario, device, line string) {
	if device == "" || line == "" {
		log.Fatal("exec needs -device and -line")
	}
	if scen.Network.Devices[device] == nil {
		log.Fatalf("no device %q", device)
	}
	out, err := console.New(device, console.NewEnv(scen.Network)).Run(line)
	if err != nil {
		log.Fatal(err)
	}
	if out != "" {
		fmt.Println(out)
	}
}

// runTerminal opens an interactive IOS-style modal shell on a device.
func runTerminal(scen *scenarios.Scenario, device string) {
	if device == "" {
		log.Fatal("terminal needs -device")
	}
	if scen.Network.Devices[device] == nil {
		log.Fatalf("no device %q", device)
	}
	term := console.NewTerminal(console.New(device, console.NewEnv(scen.Network)).Run)
	fmt.Printf("connected to %s; 'configure terminal' for config mode, ctrl-D to quit\n", device)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("%s%s ", device, term.Prompt())
		if !sc.Scan() {
			fmt.Println()
			return
		}
		out, err := term.Input(sc.Text())
		if err != nil {
			fmt.Printf("%% %v\n", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n")
}
