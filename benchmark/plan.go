package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"heimdall/internal/scenarios"
	"heimdall/internal/service"
)

// The op stream. Every workload is a set of slots (a pre-opened session,
// or for ticket-churn a tenant), each with a cyclic deck of ops; the client
// serves one unit op from a slot, then moves to the next slot in a seeded
// order. Only the seed, the slot and the deck position decide what is
// sent: the daemon sees requests, never the seed.

type opKind uint8

const (
	opExec opKind = iota
	opReview
	opCommit
	opInject
	opOpen
	opClose
)

var kindNames = [...]string{"exec", "review", "commit", "inject", "open", "close"}

type op struct {
	kind   opKind
	class  string // latency class the op is reported under
	device string // opExec
	line   string // opExec; "%d" takes the slot's iteration port (review-fresh)
	issue  string // opInject
	status int    // expected HTTP status
	keyed  bool   // opExec: the reply must be byte-identical to the oracle's for this deck position
	accept int    // opReview, opCommit: +1 must be accepted, -1 must be rejected with a violation
	last   bool   // completes a unit op
}

type cmd struct{ device, line string }

// workload is one traffic mix.
type workload struct {
	name     string
	why      string
	scenario string
	tenants  int
	// preopen lists the scripted issues each tenant gets one ticket and
	// one session for during set-up; empty means sessions open in the run.
	preopen []string
	// prime returns the commands a pre-opened session runs once in set-up.
	prime func(is *scenarios.Issue) []cmd
	// deck builds one slot's cycle. issue is the slot's pre-opened issue
	// ("" for ticket-churn, whose slots are tenants).
	deck func(rng *rand.Rand, scen *scenarios.Scenario, issue string) []op
	// light and heavy name the two classes reported end to end.
	light, heavy string
	// checked is the policy count an accepted review must report.
	checked int
}

var workloads = []*workload{
	{
		name:     "console-read",
		why:      "reads only, twin snapshot stays cached: transport, JSON, session auth, monitor and audit do the work, dataplane and enforcer almost none",
		scenario: "university",
		tenants:  4,
		preopen:  []string{"acl", "ospf", "isp", "acl"},
		deck:     readDeck,
		light:    "small", heavy: "large",
		checked: 175,
	},
	{
		name:     "console-edit",
		why:      "write, symptom ping, inverse write, ping: every reread pays the console's incremental snapshot derive, so dataplane-via-console dominates",
		scenario: "university",
		tenants:  4,
		preopen:  []string{"acl", "ospf", "isp", "acl"},
		deck:     editDeck,
		light:    "write", heavy: "reread",
		checked: 175,
	},
	{
		name:     "review-fresh",
		why:      "never-repeating ACL change sets reviewed against 400 fat-tree policies: enforcer shadow build, dataplane compute and verify dominate, HTTP is noise",
		scenario: "fattree",
		tenants:  4,
		preopen:  []string{"acl"},
		prime: func(is *scenarios.Issue) []cmd {
			var out []cmd
			for _, f := range is.Fault.Fix {
				out = append(out, cmd{f.Device, f.Line})
			}
			return out
		},
		deck:  reviewDeck,
		light: "write", heavy: "review",
		checked: 400,
	},
	{
		name:     "ticket-churn",
		why:      "whole tickets (inject, open, script, review miss, review hit, commit, close) on 175-policy tenants: session open, commit, cache invalidation, journal and trail",
		scenario: "university",
		tenants:  2,
		deck:     ticketDeck,
		light:    "open", heavy: "commit",
		checked: 175,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func findIssue(scen *scenarios.Scenario, name string) *scenarios.Issue {
	for i := range scen.Issues {
		if scen.Issues[i].Name == name {
			return &scen.Issues[i]
		}
	}
	panic("benchmark: scenario " + scen.Name + " has no issue " + name)
}

// consoleDeck is what a technician on one university ticket class types:
// the diagnosis half of the issue script split by reply size, one command
// the ticket's Privilegemsp does not grant, and a fix line with its inverse.
type consoleDeck struct {
	ping         cmd
	small, large []cmd
	probe        cmd
	fix, inverse cmd
}

func universityDeck(scen *scenarios.Scenario, issue string) consoleDeck {
	switch issue {
	case "acl":
		return consoleDeck{
			ping: cmd{"h1", "ping h15 tcp 22"},
			small: []cmd{{"r2", "show access-lists SENSITIVE-15"}, {"r2", "show interfaces Gi0/0"},
				{"h1", "ping h15 tcp 22"}, {"h1", "traceroute h15"}},
			large:   []cmd{{"r2", "show running-config"}, {"r2", "show ip route"}},
			probe:   cmd{"r2", "interface Gi0/0 shutdown"},
			fix:     cmd{"r2", "no access-list SENSITIVE-15 5"},
			inverse: cmd{"r2", "access-list SENSITIVE-15 5 deny tcp any host 10.15.0.10 eq 22"},
		}
	case "ospf":
		return consoleDeck{
			ping: cmd{"h2", "ping h13"},
			small: []cmd{{"r13", "show ip ospf neighbor"}, {"r13", "show interfaces Gi0/0"},
				{"h2", "ping h13"}, {"h2", "traceroute h13"}},
			large:   []cmd{{"r13", "show running-config"}, {"r2", "show ip route"}},
			probe:   cmd{"r13", "no access-list MGMT-PLANE 10"},
			fix:     cmd{"r13", "router ospf no passive-interface Gi0/0"},
			inverse: cmd{"r13", "router ospf passive-interface Gi0/0"},
		}
	case "isp":
		// The scripted fix swaps r4's default; the edit cycle instead adds
		// and removes a specific route to the external subnet through the
		// same next hop, so the symptom ping flips on every write.
		fixes := findIssue(scen, "isp").Fault.Fix
		f := strings.Fields(fixes[len(fixes)-1].Line)
		nh := f[len(f)-1]
		return consoleDeck{
			ping: cmd{"h4", "ping h14"},
			small: []cmd{{"r4", "show ip ospf neighbor"}, {"r4", "show interfaces Gi0/0"},
				{"h4", "ping h14"}, {"h4", "traceroute h14"}},
			large:   []cmd{{"r4", "show running-config"}, {"r4", "show ip route"}},
			probe:   cmd{"r4", "router ospf passive-interface Gi0/0"},
			fix:     cmd{"r4", "ip route 192.0.2.0 255.255.255.0 " + nh},
			inverse: cmd{"r4", "no ip route 192.0.2.0 255.255.255.0 " + nh},
		}
	}
	panic("benchmark: no console deck for issue " + issue)
}

func execOp(class string, c cmd) op {
	return op{kind: opExec, class: class, device: c.device, line: c.line, status: 200, keyed: true, last: true}
}

// readDeck: 16 reads per cycle — 8 small, 7 large, 1 out-of-privilege
// probe that must come back 403 — in a seeded order.
func readDeck(rng *rand.Rand, scen *scenarios.Scenario, issue string) []op {
	d := universityDeck(scen, issue)
	var deck []op
	for i := 0; i < 8; i++ {
		deck = append(deck, execOp("small", d.small[i%len(d.small)]))
	}
	for i := 0; i < 7; i++ {
		deck = append(deck, execOp("large", d.large[i%len(d.large)]))
	}
	probe := execOp("probe", d.probe)
	probe.status, probe.keyed = 403, false
	deck = append(deck, probe)
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// editDeck: fix line, symptom ping, inverse line, symptom ping. The twin
// is back where it started after every cycle, so replies repeat exactly.
func editDeck(_ *rand.Rand, scen *scenarios.Scenario, issue string) []op {
	d := universityDeck(scen, issue)
	return []op{execOp("write", d.fix), execOp("reread", d.ping),
		execOp("write", d.inverse), execOp("reread", d.ping)}
}

// reviewDeck: eight iterations of rewrite-two-entries-then-review on the
// fat-tree storage guard. Entry 15 carries the iteration's port, so no
// pending set ever repeats and no review is answered from the verdict
// cache; entry 16 is harmless except in one seeded iteration of the eight,
// where it opens the storage rack to everyone and the review must fail.
func reviewDeck(rng *rand.Rand, _ *scenarios.Scenario, _ string) []op {
	const dev, acl = "e0-0", "access-list STORAGE-GUARD "
	write := func(line string) op {
		return op{kind: opExec, class: "write", device: dev, line: line, status: 200}
	}
	bad := rng.Intn(8)
	var deck []op
	for i := 0; i < 8; i++ {
		deck = append(deck, write(acl+"15 permit tcp 10.0.1.0 0.0.0.255 10.0.0.0 0.0.0.255 eq %d"))
		review := op{kind: opReview, class: "review", status: 200, accept: +1, last: true}
		if i == bad {
			deck = append(deck, write(acl+"16 permit tcp any 10.0.0.0 0.0.0.255 eq 22"))
			review.accept = -1
		} else {
			deck = append(deck, write(acl+"16 permit tcp 10.0.1.0 0.0.0.255 10.0.0.0 0.0.0.255 eq 8022"))
		}
		deck = append(deck, review)
	}
	return deck
}

// ticketDeck: the three university issues, each once per cycle in a seeded
// order, each as a whole ticket.
func ticketDeck(rng *rand.Rand, scen *scenarios.Scenario, _ string) []op {
	var deck []op
	for _, i := range rng.Perm(len(scen.Issues)) {
		is := &scen.Issues[i]
		deck = append(deck,
			op{kind: opInject, class: "inject", issue: is.Name, status: 201},
			op{kind: opOpen, class: "open", status: 201})
		for _, c := range is.Script {
			e := execOp("script", cmd{c.Device, c.Line})
			e.last = false
			deck = append(deck, e)
		}
		deck = append(deck,
			op{kind: opReview, class: "review_miss", status: 200, accept: +1},
			op{kind: opReview, class: "review_hit", status: 200, accept: +1},
			op{kind: opCommit, class: "commit", status: 200, accept: +1},
			op{kind: opClose, class: "close", status: 200, last: true})
	}
	return deck
}

// slot is one deck owner: a pre-opened session or a ticket-churn tenant.
// id is its index in the whole workload (tenant-major), which with the
// deck position keys the oracle's expected replies.
type slot struct {
	id     int
	tenant string
	issue  string
	deck   []op
	pos    int
	iter   int // completed unit ops, numbers review-fresh's ports
	port0  int
	ticket string   // ticket-churn: the ticket the last inject filed
	sess   *session // current session on the target being driven
}

// plan is a seeded workload instance: the client's op source.
type plan struct {
	w      *workload
	seed   int64
	scen   *scenarios.Scenario
	slots  []*slot
	order  []int // the seeded order slots take turns in
	turn   int
	cur    *slot
	played int // ops played so far; numbers the spans
}

// scenarioFor builds the workload's scenario from heimdalld's own catalog,
// so decks read the same issues the daemon will inject.
func scenarioFor(w *workload) *scenarios.Scenario {
	return service.BuiltinCatalog()[w.scenario]()
}

func tenantName(i int) string { return fmt.Sprintf("t-%02d", i) }

// newPlan lays slots out tenant-major.
func newPlan(w *workload, scen *scenarios.Scenario, seed int64) *plan {
	p := &plan{w: w, seed: seed, scen: scen}
	issues := w.preopen
	if len(issues) == 0 {
		issues = []string{""}
	}
	for t := 0; t < w.tenants; t++ {
		for _, issue := range issues {
			id := len(p.slots)
			rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
			p.slots = append(p.slots, &slot{
				id: id, tenant: tenantName(t), issue: issue,
				deck:  w.deck(rng, scen, issue),
				port0: rng.Intn(60000),
			})
		}
	}
	p.order = rand.New(rand.NewSource(seed * 7919)).Perm(len(p.slots))
	return p
}

func (p *plan) technician() string { return fmt.Sprintf("tech-%d", p.seed) }

// next returns the next op and the slot it belongs to. The op's line is
// final: review-fresh's port is already substituted.
func (p *plan) next() (op, *slot, int) {
	if p.cur == nil {
		p.cur = p.slots[p.order[p.turn%len(p.order)]]
		p.turn++
	}
	s := p.cur
	pos := s.pos
	o := s.deck[pos]
	s.pos = (s.pos + 1) % len(s.deck)
	if strings.Contains(o.line, "%d") {
		o.line = fmt.Sprintf(o.line, 1024+(s.port0+s.iter)%60000)
	}
	if o.last {
		s.iter++
		p.cur = nil
	}
	return o, s, pos
}

// period is the number of ops after which the plan has played every deck
// position of every slot once.
func (p *plan) period() int {
	n := 0
	for _, s := range p.slots {
		n += len(s.deck)
	}
	return n
}

// planDigest hashes the first two periods of the op stream and counts
// their classes. Same seed, same digest; another seed, other arguments
// and order but — whole cycles being counted — the same mix.
func planDigest(w *workload, scen *scenarios.Scenario, seed int64) (digest string, mix map[string]int) {
	p := newPlan(w, scen, seed)
	h := sha256.New()
	mix = make(map[string]int)
	for i, n := 0, 2*p.period(); i < n; i++ {
		o, s, _ := p.next()
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%s\n", p.technician(), s.tenant,
			kindNames[o.kind], o.class, o.device, o.line, o.issue)
		mix[o.class]++
	}
	return hex.EncodeToString(h.Sum(nil))[:16], mix
}
