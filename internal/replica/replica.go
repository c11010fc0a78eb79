// Package replica turns the single-node enforcer into a replicated one:
// N replicas each hold an independent copy of the production network and
// of the HMAC-chained commit journal, and every commit runs a
// deterministic quorum protocol driven through the enforcer's existing
// push pipeline (enforcer.ReplicationHooks):
//
//	propose   — the journaled intent record is sent to every live replica;
//	vote      — each replica independently verifies the record (HMAC under
//	            the shared enclave-derived key, chain continuity, and the
//	            M-of-N approvals for high-risk change sets) and ACKs by
//	            appending it verbatim;
//	commit    — the coordinator pushes only if ACKs reach the quorum;
//	            otherwise it aborts pre-push and a rollback record closes
//	            the commit on every copy that opened it.
//
// Replicas that miss a message (crash, partition — modelled by the
// deterministic fault injector on link scopes) drop out of the commit and
// are healed later by authenticated state transfer. Honest replica
// journals are bit-identical to the coordinator's by construction: records
// are mirrored verbatim, never re-stamped.
//
// The second half of the package is the Byzantine cross-audit (paper
// threat model: the watchman itself is compromised). Replicas exchange
// journal heads and chains; a replica that forged a record (even an
// insider re-chaining with the key), truncated its chain, or equivocates
// — reporting different heads to different peers — is detected by
// majority cross-verification and quarantined.
package replica

import (
	"fmt"
	"sort"
	"sync"

	"heimdall/internal/authz"
	"heimdall/internal/chain"
	"heimdall/internal/config"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// State is a replica's membership state.
type State int

const (
	// Live replicas vote on and mirror every commit.
	Live State = iota
	// Lagging replicas missed a message (crash/partition) and sit out
	// until healed by state transfer.
	Lagging
	// Quarantined replicas were caught lying by cross-audit. They are
	// excluded from quorum and are not healed automatically.
	Quarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case Lagging:
		return "lagging"
	case Quarantined:
		return "quarantined"
	default:
		return "live"
	}
}

// Lie selects a Byzantine behaviour a drill arms on one replica. Lies
// surface at cross-audit time: the replica's commit-path behaviour stays
// honest (a subverted replica wants to stay under the radar), but the
// chain it shows auditors is not the chain it holds.
type Lie int

const (
	// LieNone: honest replica.
	LieNone Lie = iota
	// LieForge: the replica rewrites one record's payload and re-chains
	// its copy with the journal key — the insider forgery chain
	// verification alone cannot catch.
	LieForge
	// LieTruncate: the replica drops the tail of its chain and presents
	// the prefix as current — hiding the most recent commit.
	LieTruncate
	// LieEquivocate: the replica reports different heads to different
	// peers.
	LieEquivocate
)

// String names the lie.
func (l Lie) String() string {
	switch l {
	case LieForge:
		return "forge"
	case LieTruncate:
		return "truncate"
	case LieEquivocate:
		return "equivocate"
	default:
		return "none"
	}
}

// Replica is one enforcer replica: an independent copy of production and
// of the commit journal.
type Replica struct {
	Name    string
	coord   string // the coordinator's name (the equivocation target)
	net     *netmodel.Network
	journal *journal.Journal
	state   State
	// verdict is why the replica was quarantined ("forged-chain",
	// "truncated-chain", "equivocating-heads").
	verdict string
	lie     Lie
}

// State returns the replica's membership state.
func (r *Replica) State() State { return r.state }

// Verdict returns the cross-audit verdict that quarantined the replica.
func (r *Replica) Verdict() string { return r.verdict }

// Journal returns the replica's journal copy.
func (r *Replica) Journal() *journal.Journal { return r.journal }

// Net returns the replica's copy of the production network.
func (r *Replica) Net() *netmodel.Network { return r.net }

// chainFor returns the record chain the replica presents to auditors,
// with its armed lie applied.
func (r *Replica) chainFor(key []byte) []journal.Record {
	records := r.journal.Records()
	switch r.lie {
	case LieForge:
		if len(records) > 0 {
			records[len(records)/2].Detail += " [forged]"
			chain.Rechain(records, key)
		}
	case LieTruncate:
		if len(records) > 0 {
			records = records[:len(records)-1]
		}
	}
	return records
}

// headFor returns the head the replica claims to the named peer. An
// equivocating replica tells the coordinator a stale head and its peers
// the truth — the classic attack of showing the auditor a different
// history than the group, and deterministic, so the same schedule always
// produces the same lie. Because the coordinator and at least one peer
// both collect claims, the conflicting pair is always observable.
func (r *Replica) headFor(peer string, key []byte) chain.Head {
	records := r.journal.Records()
	if r.lie == LieEquivocate && peer == r.coord && len(records) > 0 {
		return chain.HeadOf(records[:len(records)-1])
	}
	return chain.HeadOf(r.chainFor(key))
}

// QuorumError is the permanent (never retried) error the group returns
// when a commit cannot reach quorum.
type QuorumError struct {
	Acks, Quorum, Members int
	Phase                 string
}

// Error implements the error interface.
func (e *QuorumError) Error() string {
	return fmt.Sprintf("replica: quorum not reached at %s: %d/%d acks (quorum %d)",
		e.Phase, e.Acks, e.Members, e.Quorum)
}

// Config parameterises a replica group.
type Config struct {
	// Coordinator is the coordinator's scope name for link faults
	// (default "coord").
	Coordinator string
	// Replicas names the replicas, e.g. ["r-a", "r-b", "r-c"].
	Replicas []string
	// Quorum is the number of group members (replicas + coordinator)
	// that must hold a commit for it to proceed; 0 means a strict
	// majority of the group.
	Quorum int
	// Key is the journal HMAC key shared by every copy (in deployment,
	// derived inside each replica's enclave from the same sealed secret).
	Key []byte
	// Auth, when set, makes every replica re-verify the M-of-N approvals
	// in high-risk intents before ACKing — a coordinator that skips its
	// own check cannot reach quorum.
	Auth *authz.Policy
	// Injector gates every inter-replica message on the canonical link
	// scope (faultinject.LinkScope) with ops "propose", "apply",
	// "restore", "finish" and "head". Nil means a perfect network.
	Injector *faultinject.Injector
	// Meter receives group telemetry.
	Meter telemetry.Meter
}

// Group is a set of enforcer replicas mirroring one coordinator. It
// implements enforcer.Target and enforcer.ReplicationHooks; install it
// with Enforcer.SetTarget to replicate the commit pipeline.
type Group struct {
	mu       sync.Mutex
	coord    string
	prod     *netmodel.Network
	journal  *journal.Journal // the coordinator's journal
	replicas []*Replica
	quorum   int
	key      []byte
	auth     *authz.Policy
	inj      *faultinject.Injector
	meter    telemetry.Meter
}

// NewGroup builds a replica group around the coordinator's production
// network and journal. Each replica starts Live with a deep clone of
// production and a copy of the coordinator's current chain, so a group
// can be installed on an enforcer that has already committed.
func NewGroup(prod *netmodel.Network, coordJournal *journal.Journal, cfg Config) (*Group, error) {
	if cfg.Coordinator == "" {
		cfg.Coordinator = "coord"
	}
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("replica: group needs at least one replica")
	}
	members := len(cfg.Replicas) + 1
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = members/2 + 1
	}
	if quorum < 1 || quorum > members {
		return nil, fmt.Errorf("replica: quorum %d out of range for %d members", quorum, members)
	}
	meter := cfg.Meter
	if meter == nil {
		meter = telemetry.Nop()
	}
	g := &Group{
		coord:   cfg.Coordinator,
		prod:    prod,
		journal: coordJournal,
		quorum:  quorum,
		key:     append([]byte(nil), cfg.Key...),
		auth:    cfg.Auth,
		inj:     cfg.Injector,
		meter:   meter,
	}
	seed := coordJournal.Records()
	for _, name := range cfg.Replicas {
		j, err := journal.FromRecords(g.key, seed)
		if err != nil {
			return nil, fmt.Errorf("replica: seeding %s: %w", name, err)
		}
		g.replicas = append(g.replicas, &Replica{Name: name, coord: g.coord, net: prod.Clone(), journal: j})
	}
	return g, nil
}

// SetInjector replaces the link fault injector (sweeps clear faults
// before the final audit round).
func (g *Group) SetInjector(inj *faultinject.Injector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inj = inj
}

// Quorum returns the configured quorum over replicas + coordinator.
func (g *Group) Quorum() int { return g.quorum }

// Replicas returns the group members in configuration order.
func (g *Group) Replicas() []*Replica {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Replica(nil), g.replicas...)
}

// Replica returns the named member, or nil.
func (g *Group) Replica(name string) *Replica {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.replicas {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// MakeByzantine arms a lie on the named replica (drills and sweeps).
func (g *Group) MakeByzantine(name string, lie Lie) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.replicas {
		if r.Name == name {
			r.lie = lie
		}
	}
}

// visit consults the injector on the coordinator→replica link.
func (g *Group) visit(r *Replica, op string) error {
	if g.inj == nil {
		return nil
	}
	return g.inj.Visit(faultinject.LinkScope(g.coord, r.Name), op)
}

// dropOut marks a replica lagging mid-commit: it missed a message and
// sits out until healed.
func (g *Group) dropOut(r *Replica, why string) {
	if r.state != Live {
		return
	}
	r.state = Lagging
	g.meter.Counter("heimdall_replica_dropouts_total", telemetry.L("replica", r.Name)).Inc()
}

// liveCount counts members currently able to hold the commit: the
// coordinator plus Live replicas.
func (g *Group) liveCount() int {
	n := 1
	for _, r := range g.replicas {
		if r.state == Live {
			n++
		}
	}
	return n
}

// BeginCommit implements enforcer.ReplicationHooks: propose the intent,
// gather verify votes, and veto the commit when ACKs (plus the
// coordinator's own) miss the quorum.
func (g *Group) BeginCommit(intent journal.Record) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	acks := 1 // the coordinator journaled the intent
	for _, r := range g.replicas {
		if r.state != Live {
			continue
		}
		if err := g.visit(r, "propose"); err != nil {
			g.dropOut(r, "unreachable at propose")
			continue
		}
		if err := g.vote(r, intent); err != nil {
			// A NACK is not a crash, but the replica now refuses this
			// commit's records; it sits out until healed.
			g.dropOut(r, "nacked intent")
			g.meter.Counter("heimdall_replica_nacks_total", telemetry.L("replica", r.Name)).Inc()
			continue
		}
		acks++
	}
	if acks < g.quorum {
		g.meter.Counter("heimdall_replica_quorum_aborts_total").Inc()
		return &QuorumError{Acks: acks, Quorum: g.quorum, Members: len(g.replicas) + 1, Phase: "propose"}
	}
	return nil
}

// vote is one replica's independent verification of a proposed intent:
// approvals for high-risk change sets, then record authenticity and chain
// continuity via the verbatim append (the ACK).
func (g *Group) vote(r *Replica, intent journal.Record) error {
	if g.auth != nil && authz.Classify(intent.Changes) == authz.HighRisk {
		if err := g.auth.Verify(intent.Ticket, intent.Changes, intent.Approvals); err != nil {
			return fmt.Errorf("replica %s: %w", r.Name, err)
		}
	}
	return r.journal.AppendVerbatim(intent)
}

// MirrorRecord implements enforcer.ReplicationHooks: distribute one
// post-intent record. Applied records ride the apply message (no separate
// fault point); terminal records cross the link as their own "finish"
// message, so a replica can crash between the last apply and the close —
// exactly the journal-boundary crash the sweep must cover.
func (g *Group) MirrorRecord(rec journal.Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	terminal := rec.Kind != journal.KindApplied
	for _, r := range g.replicas {
		if r.state != Live {
			continue
		}
		if terminal {
			if err := g.visit(r, "finish"); err != nil {
				g.dropOut(r, "unreachable at finish")
				continue
			}
		}
		if err := r.journal.AppendVerbatim(rec); err != nil {
			g.dropOut(r, "chain mismatch on mirror")
		}
	}
}

// Apply implements enforcer.Target: push one change to the coordinator's
// production network (gated per device, like the in-memory target) and to
// every live replica's copy (gated per link). Losing a replica is not an
// error — it drops out and heals later — unless the group as a whole
// falls below quorum, which aborts the commit with a permanent error so
// the pipeline rolls back immediately.
func (g *Group) Apply(c config.Change) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inj != nil {
		if err := g.inj.Visit(c.Device, "apply"); err != nil {
			return err
		}
	}
	d := g.prod.Devices[c.Device]
	if d == nil {
		return fmt.Errorf("replica: no production device %q", c.Device)
	}
	if err := config.ApplyChange(d, c); err != nil {
		return err
	}
	for _, r := range g.replicas {
		if r.state != Live {
			continue
		}
		if err := g.visit(r, "apply"); err != nil {
			g.dropOut(r, "unreachable at apply")
			continue
		}
		if rd := r.net.Devices[c.Device]; rd != nil {
			// Same change on same state cannot fail differently; if it
			// somehow does, the replica is inconsistent — drop it out.
			if err := config.ApplyChange(rd, c); err != nil {
				g.dropOut(r, "apply diverged")
			}
		}
	}
	if n := g.liveCount(); n < g.quorum {
		g.meter.Counter("heimdall_replica_quorum_aborts_total").Inc()
		return &QuorumError{Acks: n, Quorum: g.quorum, Members: len(g.replicas) + 1, Phase: "apply"}
	}
	return nil
}

// RestoreDevice implements enforcer.Target: rollback restores the
// coordinator's device and every live replica's copy.
func (g *Group) RestoreDevice(name string, d *netmodel.Device) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inj != nil {
		if err := g.inj.Visit(name, "restore"); err != nil {
			return err
		}
	}
	g.prod.Devices[name] = d
	for _, r := range g.replicas {
		if r.state != Live {
			continue
		}
		if err := g.visit(r, "restore"); err != nil {
			g.dropOut(r, "unreachable at restore")
			continue
		}
		r.net.Devices[name] = d.Clone()
	}
	return nil
}

// Verdicts a cross-audit can assign.
const (
	VerdictOK          = "ok"
	VerdictLagging     = "lagging"
	VerdictForged      = "forged-chain"
	VerdictTruncated   = "truncated-chain"
	VerdictEquivocated = "equivocating-heads"
	VerdictUnreachable = "unreachable"
)

// AuditReport is the outcome of one cross-audit round.
type AuditReport struct {
	// Conclusive is false when the canonical chain could not be
	// corroborated by a quorum (too many members partitioned away, or
	// the coordinator's chain conflicts with its replicas); nothing is
	// quarantined or healed in that case.
	Conclusive bool
	// CoordinatorSuspect is set when enough members were reachable to
	// form a quorum and they still failed to corroborate the
	// coordinator's chain — the watchman itself is the outlier.
	CoordinatorSuspect bool
	// Canonical is the head of the corroborated canonical chain.
	Canonical chain.Head
	// Verdicts maps every replica to its audit verdict.
	Verdicts map[string]string
	// NewlyQuarantined lists replicas this round caught lying.
	NewlyQuarantined []string
	// Healed lists lagging replicas brought back by state transfer.
	Healed []string
}

// CrossAudit runs one audit round: exchange heads pairwise (catching
// equivocation), collect chains, establish the canonical chain, quarantine
// liars, and heal honest laggards by authenticated state transfer.
//
// The canonical chain is the coordinator's, but never by fiat: it counts
// as canonical only when a quorum of members (itself included) hold a
// chain equal to it or a clean prefix of it. Prefix-holders corroborate —
// the hash chain makes a prefix an exact commitment to the longer chain's
// history — which matters because a crash can leave the newest record on
// fewer members than the quorum that ACKed the intent. If a quorum of
// reachable members does NOT corroborate, the audit is inconclusive and
// flags the coordinator as suspect: a rewritten coordinator chain makes
// every honest replica diverge, and that majority disagreement is
// precisely the signal. A replica claiming records beyond the canonical
// head fabricated them (no quorum ever saw them) and is quarantined just
// like a diverging one.
func (g *Group) CrossAudit() *AuditReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := &AuditReport{Verdicts: make(map[string]string)}

	// Reachability and head exchange. Peers are the coordinator plus all
	// non-quarantined replicas; every reachable pair exchanges heads.
	type claim struct {
		asker string
		head  chain.Head
	}
	reachable := map[string]bool{}
	heads := map[string][]claim{}
	var audited []*Replica
	for _, r := range g.replicas {
		if r.state == Quarantined {
			rep.Verdicts[r.Name] = r.verdict
			continue
		}
		if err := g.visit(r, "head"); err != nil {
			rep.Verdicts[r.Name] = VerdictUnreachable
			continue
		}
		reachable[r.Name] = true
		audited = append(audited, r)
		heads[r.Name] = append(heads[r.Name], claim{g.coord, r.headFor(g.coord, g.key)})
	}
	for _, asker := range audited {
		for _, r := range audited {
			if asker == r {
				continue
			}
			if g.inj != nil && g.inj.Visit(faultinject.LinkScope(asker.Name, r.Name), "head") != nil {
				continue
			}
			heads[r.Name] = append(heads[r.Name], claim{asker.Name, r.headFor(asker.Name, g.key)})
		}
	}

	// Equivocation: two peers got different heads from the same replica.
	for _, r := range audited {
		claims := heads[r.Name]
		for i := 1; i < len(claims); i++ {
			if claims[i].head != claims[0].head {
				g.quarantine(r, VerdictEquivocated, rep)
				break
			}
		}
	}

	// Chain collection and quorum agreement. A chain's fingerprint is its
	// (length, head hash): hash-chaining makes an equal head imply an
	// equal chain, given per-chain validity.
	type vc struct {
		records []journal.Record
		valid   bool
	}
	chains := map[string]vc{}
	coordRecords := g.journal.Records()
	chains[g.coord] = vc{coordRecords, chain.Verify(coordRecords, g.key) == nil}
	for _, r := range audited {
		if r.state == Quarantined {
			continue
		}
		recs := r.chainFor(g.key)
		chains[r.Name] = vc{recs, chain.Verify(recs, g.key) == nil}
	}
	coord := chains[g.coord]
	if !coord.valid {
		rep.CoordinatorSuspect = true
		return rep
	}
	canonRecords := coord.records
	corroborating := 0
	for _, c := range chains {
		if !c.valid {
			continue
		}
		switch journal.Diff(c.records, canonRecords).Relation {
		case journal.RelEqual, journal.RelPrefix:
			corroborating++
		}
	}
	if corroborating < g.quorum {
		// Either too few members reachable to judge, or — if a quorum
		// was reachable and still disagrees — the coordinator itself is
		// the outlier.
		rep.CoordinatorSuspect = len(chains) >= g.quorum
		return rep
	}
	rep.Conclusive = true
	rep.Canonical = chain.HeadOf(canonRecords)

	// Verdict per audited replica.
	for _, r := range audited {
		if r.state == Quarantined { // equivocator caught above
			continue
		}
		c := chains[r.Name]
		if !c.valid {
			g.quarantine(r, VerdictForged, rep)
			continue
		}
		switch diff := journal.Diff(c.records, canonRecords); diff.Relation {
		case journal.RelEqual:
			if r.state == Lagging {
				g.heal(r, canonRecords, rep)
			} else {
				rep.Verdicts[r.Name] = VerdictOK
			}
		case journal.RelPrefix:
			if r.state == Lagging {
				// Honest laggard: it dropped out mid-commit and its
				// prefix chain says so. State transfer brings it back.
				g.heal(r, canonRecords, rep)
			} else {
				// A live replica ACKed these records; showing a prefix
				// means it hid them.
				g.quarantine(r, VerdictTruncated, rep)
			}
		default: // diverged, or claims records the majority never saw
			g.quarantine(r, VerdictForged, rep)
		}
	}
	return rep
}

// quarantine marks a replica Byzantine with the given verdict.
func (g *Group) quarantine(r *Replica, verdict string, rep *AuditReport) {
	r.state = Quarantined
	r.verdict = verdict
	rep.Verdicts[r.Name] = verdict
	rep.NewlyQuarantined = append(rep.NewlyQuarantined, r.Name)
	g.meter.Counter("heimdall_replica_byzantine_detected_total",
		telemetry.L("verdict", verdict)).Inc()
}

// heal brings a lagging replica back by authenticated state transfer:
// the canonical chain is adopted (verifying every record under the key)
// and the network copy is refreshed from the coordinator's production
// state, which the canonical chain fully determines.
func (g *Group) heal(r *Replica, canonical []journal.Record, rep *AuditReport) {
	j, err := journal.FromRecords(g.key, canonical)
	if err != nil {
		return
	}
	r.journal = j
	r.net = g.prod.Clone()
	r.state = Live
	r.verdict = ""
	rep.Verdicts[r.Name] = VerdictLagging
	rep.Healed = append(rep.Healed, r.Name)
	g.meter.Counter("heimdall_replica_heals_total", telemetry.L("replica", r.Name)).Inc()
}

// sortedNames returns the names of the replicas in a state.
func (g *Group) sortedNames(s State) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, r := range g.replicas {
		if r.state == s {
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out
}

// LiveNames returns the live replicas' names, sorted.
func (g *Group) LiveNames() []string { return g.sortedNames(Live) }
