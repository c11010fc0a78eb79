package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/journal"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// loadScale returns the acceptance scale — 50 tenants × 20 sessions =
// 1,000 concurrent technicians — shrunk under -race (5-10x slowdown) and
// -short so those runs stay fast while the plain run keeps the
// acceptance numbers.
func loadScale() (tenants, perTenant int) {
	if raceEnabled || testing.Short() {
		return 8, 5
	}
	return 50, 20
}

// loadSession is one scripted technician session of the load run.
type loadSession struct {
	tenant, id, token string
	script            []ticket.FixCommand
	commit            bool // the tenant's first session lands the fix
}

// runLoad drives the load run on svc: tenants customer networks,
// round-robin over university and enterprise, each with one scripted issue
// injected and per technician sessions open on it, each under its own
// ticket. Every session is live before the first command; all of them then
// replay the issue's script through the mediated Exec path at once. Behind
// a barrier every session submits its change set for review and each
// tenant's first session commits — all replayed the same fix, so this is
// the cache and coalescing worst case the MSP workload looks like:
// near-duplicate change sets arriving together. Any failed call fails the
// test.
func runLoad(t *testing.T, svc *Service, tenants, per int) []loadSession {
	t.Helper()
	sessions := make([]loadSession, 0, tenants*per)
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("t-%03d", ti)
		if _, err := svc.CreateTenant(id, []string{"university", "enterprise"}[ti%2]); err != nil {
			t.Fatal(err)
		}
		tn, err := svc.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		issues := tn.ScenarioData().Issues
		issue := issues[ti%len(issues)]
		// One fault per tenant; every session diagnoses and fixes it in its
		// own twin.
		tk, err := svc.InjectIssue(id, issue.Name, "loadgen")
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < per; si++ {
			if si > 0 {
				tk, err = svc.CreateTicket(id, ticket.Ticket{
					Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
					SrcHost: issue.SrcHost, DstHost: issue.DstHost,
					Proto: issue.Proto, DstPort: issue.DstPort,
					Suspects:  []string{issue.Fault.RootCause},
					CreatedBy: "loadgen",
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			info, err := svc.CreateSession(id, fmt.Sprintf("tech-%03d-%02d", ti, si), tk.ID)
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, loadSession{
				tenant: id, id: info.Session, token: info.Token,
				script: issue.Script, commit: si == 0,
			})
		}
	}

	// each runs fn on every session concurrently and returns when all are done.
	each := func(fn func(ls *loadSession) error) {
		var wg sync.WaitGroup
		for i := range sessions {
			ls := &sessions[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(ls); err != nil {
					t.Errorf("%s/%s: %v", ls.tenant, ls.id, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	each(func(ls *loadSession) error {
		for _, cmd := range ls.script {
			if _, err := svc.Exec(ls.tenant, ls.id, ls.token, cmd.Device, cmd.Line); err != nil {
				// Every technician replays the issue's prepared script inside
				// their ticket's privilege slice: nothing may be denied.
				return fmt.Errorf("exec %q on %s: %w", cmd.Line, cmd.Device, err)
			}
		}
		return nil
	})
	each(func(ls *loadSession) error {
		if _, err := svc.Review(ls.tenant, ls.id, ls.token); err != nil {
			return fmt.Errorf("review: %w", err)
		}
		if ls.commit {
			if _, err := svc.Commit(ls.tenant, ls.id, ls.token); err != nil {
				return fmt.Errorf("commit: %w", err)
			}
		}
		return nil
	})
	for _, ls := range sessions {
		if err := svc.CloseSession(ls.tenant, ls.id, ls.token); err != nil {
			t.Fatal(err)
		}
	}
	return sessions
}

// TestLoadGeneratorAcceptance is the service's acceptance test: it
// sustains >= 1,000 concurrent scripted technician sessions across >= 50
// tenants on the university+enterprise scenarios with zero mediation
// denials, zero cross-tenant audit/state leakage, and an audit trail that
// accounts for every answered review — whatever mix of fresh, cached and
// coalesced reviews the run produced.
func TestLoadGeneratorAcceptance(t *testing.T) {
	tenants, per := loadScale()
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, VerifyQueue: 4096, PlatformSeed: "loadgen"})
	defer svc.Close()

	sessions := runLoad(t, svc, tenants, per)
	// What the driver's calls predict per tenant: one KindVerify entry per
	// answered review plus one per commit's pre-push review, and one count
	// on the tenant's command counter per Exec.
	verifies := make(map[string]int)
	commands := make(map[string]int)
	total := 0
	for _, ls := range sessions {
		verifies[ls.tenant]++
		if ls.commit {
			verifies[ls.tenant]++
		}
		commands[ls.tenant] += len(ls.script)
		total += len(ls.script)
	}
	if total == 0 {
		t.Fatal("no mediated command ran")
	}
	hits, coalesced := svc.ReviewStats()
	t.Logf("%d tenants, %d concurrent sessions: %d mediated commands; of the reviews, %d answered from the cache, %d coalesced",
		tenants, len(sessions), total, hits, coalesced)

	// --- Zero cross-tenant leakage ---

	// 1. No device pointer is reachable from two tenants.
	owner := make(map[any]string)
	for _, ti := range svc.Tenants() {
		tn, err := svc.Tenant(ti.ID)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range tn.System().Production().Devices {
			if prev, ok := owner[d]; ok && prev != ti.ID {
				t.Fatalf("device %s aliased between tenants %s and %s", name, prev, ti.ID)
			}
			owner[d] = ti.ID
		}
	}

	// 2. Every audit record in tenant i's trail names a technician of
	// tenant i (technicians are globally unique: tech-<tenant>-<session>),
	// and every trail verifies end-to-end.
	// 3. The trail holds exactly the KindVerify entries the driver predicts
	// and the journal exactly one committed commit.
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t-%03d", i)
		tn, err := svc.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		trail := tn.System().Enforcer.Trail()
		if err := trail.Verify(); err != nil {
			t.Fatalf("tenant %s: audit trail broken: %v", id, err)
		}
		prefix := fmt.Sprintf("tech-%03d-", i)
		entries := trail.Entries()
		if len(entries) == 0 {
			t.Fatalf("tenant %s: empty audit trail", id)
		}
		verified := 0
		for _, e := range entries {
			if e.Technician != "" && !strings.HasPrefix(e.Technician, prefix) {
				t.Fatalf("tenant %s: audit entry names foreign technician %q", id, e.Technician)
			}
			if e.Kind == audit.KindVerify {
				verified++
			}
		}
		if verified != verifies[id] {
			t.Fatalf("tenant %s: %d verify entries on the trail, the driver's calls predict %d", id, verified, verifies[id])
		}
		committed := 0
		for _, r := range tn.System().Enforcer.Journal().Records() {
			if r.Kind == journal.KindCommitted {
				committed++
			}
		}
		if committed != 1 {
			t.Fatalf("tenant %s: journal holds %d committed commits, want 1", id, committed)
		}
	}

	// 4. Per-tenant metric series stayed separate and account for every
	// mediated command.
	for id, want := range commands {
		if got := reg.CounterValue("heimdall_service_commands_total", telemetry.L("tenant", id)); int(got) != want {
			t.Fatalf("tenant %s: command counter = %v, the driver made %d calls", id, got, want)
		}
	}
	if got := reg.GaugeValue("heimdall_service_tenants"); int(got) != tenants {
		t.Fatalf("tenants gauge = %v, want %d", got, tenants)
	}
}

// TestMediationByteIdentical asserts the acceptance criterion that the
// service's mediated path is byte-identical to driving the same steps
// directly on an equivalently-seeded single-tenant deployment: the service
// adds lifecycle and metering around mediation without altering a single
// output byte.
//
// Every university issue runs as a whole ticket — inject, open, script, a
// review after each write (so sets are reviewed that the next write
// replaces, the isp ticket's first of them rejected), a repeated review,
// commit. The direct side takes every change set from config.DiffNetwork
// rather than Twin.Changes, so command outputs, ReviewResult JSON, audit
// trail and commit journal equal between the two also pin the set the twin
// records to the whole-network diff.
func TestMediationByteIdentical(t *testing.T) {
	const seed = "byte-ident"
	epoch := func() time.Time { return time.Unix(1_700_000_000, 0).UTC() }
	pin := func(sys *core.System) {
		sys.Enforcer.Trail().SetClock(epoch)
		sys.Enforcer.Journal().SetClock(epoch)
	}
	render := func(res ReviewResult, err error) string {
		b, jerr := json.Marshal(res)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s %v", b, err)
	}
	isWrite := func(cmd ticket.FixCommand) bool {
		c, err := console.New(cmd.Device, nil).Parse(cmd.Line)
		return err == nil && c.Write
	}

	// Service-side transcript.
	svc := New(Config{PlatformSeed: seed})
	defer svc.Close()
	if _, err := svc.CreateTenant("solo", "university"); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	pin(tn.System())
	var viaService []string
	for _, issue := range tn.ScenarioData().Issues {
		tk, err := svc.InjectIssue("solo", issue.Name, "reporter")
		if err != nil {
			t.Fatal(err)
		}
		info, err := svc.CreateSession("solo", "alice", tk.ID)
		if err != nil {
			t.Fatal(err)
		}
		review := func() {
			viaService = append(viaService, render(svc.Review("solo", info.Session, info.Token)))
		}
		review() // nothing written yet: "nothing to review"
		for _, cmd := range issue.Script {
			out, err := svc.Exec("solo", info.Session, info.Token, cmd.Device, cmd.Line)
			if err != nil {
				t.Fatalf("service exec %q on %s: %v", cmd.Line, cmd.Device, err)
			}
			viaService = append(viaService, out)
			if isWrite(cmd) {
				review()
			}
		}
		review()
		viaService = append(viaService, render(svc.Commit("solo", info.Session, info.Token)))
	}

	// Direct transcript: same scenario constructor, same platform seed
	// derivation, same ticket fields, same technician.
	scen := scenarios.University().Clone()
	sys, err := core.NewSystem(core.Options{
		Network:      scen.Network,
		Policies:     scen.Policies,
		Sensitive:    scen.Sensitive,
		PlatformSeed: seed + "/solo",
	})
	if err != nil {
		t.Fatal(err)
	}
	pin(sys)
	var viaTwin []string
	for _, ref := range scen.Issues {
		if err := sys.MutateProduction(ref.Fault.Inject); err != nil {
			t.Fatal(err)
		}
		dtk := sys.Tickets.Create(ticket.Ticket{
			Summary: ref.Fault.Description, Kind: ref.Fault.Kind,
			SrcHost: ref.SrcHost, DstHost: ref.DstHost,
			Proto: ref.Proto, DstPort: ref.DstPort,
			Suspects:  []string{ref.Fault.RootCause},
			CreatedBy: "reporter",
		})
		eng, err := sys.StartWork(dtk.ID, "alice")
		if err != nil {
			t.Fatal(err)
		}
		oracle := func() []config.Change {
			return config.DiffNetwork(eng.Twin.Baseline(), eng.Twin.Network())
		}
		review := func() {
			var res ReviewResult
			changes := oracle()
			d, _, err := eng.ReviewChanges(changes)
			if d != nil {
				res = decisionResult(d, len(changes))
			}
			viaTwin = append(viaTwin, render(res, err))
		}
		review()
		// One console per device, as the service keeps them.
		consoles := make(map[string]*twin.Session)
		for _, cmd := range ref.Script {
			sess := consoles[cmd.Device]
			if sess == nil {
				if sess, err = eng.Console(cmd.Device); err != nil {
					t.Fatalf("direct console %s: %v", cmd.Device, err)
				}
				consoles[cmd.Device] = sess
			}
			out, err := sess.Exec(cmd.Line)
			if err != nil {
				t.Fatalf("direct exec %q on %s: %v", cmd.Line, cmd.Device, err)
			}
			viaTwin = append(viaTwin, out)
			if isWrite(cmd) {
				review()
			}
		}
		review()
		changes := oracle()
		d, err := eng.CommitChanges(changes)
		res := decisionResult(d, len(changes))
		res.Committed, res.Ticket, res.Status = err == nil, dtk.ID, sys.Tickets.Get(dtk.ID).Status.String()
		viaTwin = append(viaTwin, render(res, err))
	}

	if len(viaService) != len(viaTwin) {
		t.Fatalf("transcript lengths differ: service %d, twin %d", len(viaService), len(viaTwin))
	}
	var accepted, rejected, empty bool
	for i := range viaService {
		if viaService[i] != viaTwin[i] {
			t.Fatalf("step %d differs:\nservice: %q\ntwin:    %q", i, viaService[i], viaTwin[i])
		}
		accepted = accepted || strings.Contains(viaService[i], `"accepted":true`)
		rejected = rejected || strings.Contains(viaService[i], `"violations":[`)
		empty = empty || strings.Contains(viaService[i], "nothing to review")
	}
	if !accepted || !rejected || !empty {
		t.Fatalf("lifecycles lost a case: accepted %v, rejected %v, empty %v", accepted, rejected, empty)
	}
	for name, export := range map[string][2]func() ([]byte, error){
		"audit trail":    {tn.System().Enforcer.Trail().Export, sys.Enforcer.Trail().Export},
		"commit journal": {tn.System().Enforcer.Journal().Export, sys.Enforcer.Journal().Export},
	} {
		got, err := export[0]()
		if err != nil {
			t.Fatal(err)
		}
		want, err := export[1]()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the service and the direct deployment:\nservice %s\ndirect  %s", name, got, want)
		}
	}
}
