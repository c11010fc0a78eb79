// Package enforcer implements Heimdall's policy enforcer (paper §4.3): the
// trusted component between the twin network and the production network.
// It has three modules:
//
//   - a verifier that checks the technician's changes against the
//     customer's network policies before anything touches production;
//   - a scheduler that orders accepted changes so that applying them never
//     transits through an obviously unsafe intermediate state (additive
//     changes first, subtractive last; a replaced ACL entry is one change,
//     so no push leaves its seq missing);
//   - auditing: every review, application and rollback lands on the
//     tamper-evident trail.
//
// The enforcer runs inside a (simulated) TEE: its audit HMAC key is derived
// inside the enclave and the customer can attest the enforcer's identity.
package enforcer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/authz"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// Enforcer gates changes from twin networks into one production network,
// which it owns: nothing else writes it, every reader gets a View, and every
// write is a journaled change set (Submit, Inject; journal.Replay).
// Commits are serialized: concurrent engagements may review in parallel,
// but only one change set at a time is verified-against and applied to
// production, so a commit's verification always reflects the state it
// lands on.
//
// The enforcer tracks production: it holds one dataplane snapshot and the
// review verdicts of the current production version (snapshot.go,
// cache.go). Every production writer is an enforcer method that holds the
// write lock and moves the held snapshot on before it unlocks.
type Enforcer struct {
	encl     *enclave.Enclave
	trail    *audit.Trail
	journal  *journal.Journal
	policies []verify.Policy
	meter    telemetry.Meter
	// reviewed and committed are heimdall_enforcer_{reviews,commits}_total,
	// looked up on meter once per value of their accepted label, handedOver
	// and retried heimdall_enforcer_commit_handover_total and
	// heimdall_enforcer_push_retries_total once per from and phase.
	reviewed, committed map[bool]telemetry.Counter
	handedOver, retried map[string]telemetry.Counter
	// The instruments every review or commit reaches, looked up once too:
	// the verify and per-change push latencies, the changes applied, the
	// production snapshot's hits, misses and derivations, the verdict
	// cache's hits and misses, and verify.CheckCarried's.
	verifyTime, pushTime                telemetry.Histogram
	applied, snapHits, snapMisses       telemetry.Counter
	snapDerived, cacheHits, cacheMisses telemetry.Counter
	checks                              *verify.Instruments
	// mu guards prod's device map and everything that changes with it.
	// Reviews, views and Quarantined read under mu.RLock; a commit and an
	// injection (end to end), Recover and the Set* seams write under
	// mu.Lock. Unexported helpers assume it is held: it is not reentrant.
	mu   sync.RWMutex
	prod *netmodel.Network
	// target, when set, replaces the in-memory production push path
	// (SetTarget); injector gates the default path (SetInjector).
	target   Target
	injector *faultinject.Injector
	// commitSeq numbers commits within this enforcer for journal ids.
	commitSeq int
	// quarantined is the degraded state entered when a rollback fails:
	// production is partial, the journal says exactly how, and new
	// commits are refused until Recover restores consistency.
	quarantined bool
	quarReason  string
	// Retry is the push retry/backoff policy; the zero value means the
	// defaults (3 attempts, 50ms base backoff doubling to 1s, 5s per-op
	// budget, seeded jitter).
	Retry RetryPolicy
	// Auth, when set, enforces M-of-N multi-party authorization: commits
	// whose scheduled change set classifies high-risk (authz.Classify)
	// are refused unless the request carries approvals the policy
	// verifies. Low-risk changes pass without approvals.
	Auth *authz.Policy
	// reviews memoizes review verdicts by content: privilege digest ×
	// change-set digest. Every production write empties it; compiled, the
	// compiled specs by privilege digest, outlives them. See cache.go.
	reviews  *fifo[*Decision]
	compiled *fifo[*privilege.CompiledSpec]
	// prodSnap is the production dataplane snapshot held for production
	// as it is, with the policy verdicts known on it; snapMu serializes its
	// lazy fill under the read lock; kept is the latest accepted review's
	// shadow. See snapshot.go.
	prodSnap atomic.Pointer[heldSnapshot]
	snapMu   sync.Mutex
	kept     atomic.Pointer[keptShadow]
	// sanitized holds each production device's sanitized copy, tagged with
	// the device it was made from; SanitizedView refreshes it under sanMu,
	// so a commit does no work for it.
	sanMu     sync.Mutex
	sanitized map[string]sanitizedDevice
}

// sanitizedDevice is config.Sanitize(from), made at an earlier open.
type sanitizedDevice struct{ from, dev *netmodel.Device }

// New creates an enforcer hosted in the given enclave, guarding the given
// policy set on prod, which it owns from now on: the caller never writes it
// again (Submit and Inject do) and reads it through View. The audit-trail and
// commit-journal keys never exist outside the enclave.
func New(encl *enclave.Enclave, policies []verify.Policy, prod *netmodel.Network) *Enforcer {
	e := &Enforcer{
		encl:     encl,
		trail:    audit.NewTrail(encl.DeriveKey("audit-trail")),
		journal:  journal.New(encl.DeriveKey("commit-journal")),
		policies: policies,
		prod:     prod,
		reviews:  newFIFO[*Decision](reviewCacheCap),
		compiled: newFIFO[*privilege.CompiledSpec](compiledCap),

		sanitized: make(map[string]sanitizedDevice, len(prod.Devices)),
	}
	e.SetMeter(nil)
	return e
}

// Restore restarts an enforcer from bytes: New on prod, with the audit
// trail and commit journal imported from their exports under the keys the
// enclave derives, so neither key leaves it. An export that fails Import is
// refused. A journal that holds a commit open (a crash mid-push, or a
// quarantine) restarts quarantined: new commits wait for Recover.
func Restore(encl *enclave.Enclave, policies []verify.Policy, prod *netmodel.Network, trail, commits []byte) (*Enforcer, error) {
	t, err := audit.Import(encl.DeriveKey("audit-trail"), trail)
	if err != nil {
		return nil, fmt.Errorf("enforcer: restoring the audit trail: %w", err)
	}
	j, err := journal.Import(encl.DeriveKey("commit-journal"), commits)
	if err != nil {
		return nil, fmt.Errorf("enforcer: restoring the commit journal: %w", err)
	}
	e := New(encl, policies, prod)
	e.trail, e.journal = t, j
	for _, r := range j.Records() {
		if r.Kind == journal.KindIntent {
			e.commitSeq++ // commit ids stay unique across the restart
		}
	}
	if intent, _ := j.Open(); intent != nil {
		e.quarantined, e.quarReason = true, fmt.Sprintf("restarted with commit %s open", intent.Commit)
	}
	return e, nil
}

// View returns a copy of production that shares its devices (a map copy:
// published devices are immutable) and, when snapshot is set, the held
// snapshot rebound to that copy, computed first when none is held; both
// are the caller's to read without any lock. A reader of devices alone
// passes false and derives nothing. The held snapshot itself reads
// production's device map lazily, so it never leaves the lock.
func (e *Enforcer) View(snapshot bool) (*netmodel.Network, *dataplane.Snapshot) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	view := e.prod.CloneCOW()
	if !snapshot {
		return view, nil
	}
	return view, e.productionSnapshot().Derive(view, nil)
}

// SanitizedView is View(true) with every device sanitized (config.Sanitize):
// what a twin's emulation layer starts from. A device's sanitized copy is
// held from one open to the next and taken while the device it was made
// from is still production's, so an open sanitizes only what a write
// replaced since the last one, whichever writer it was.
func (e *Enforcer) SanitizedView() (*netmodel.Network, *dataplane.Snapshot) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	view := e.prod.CloneCOW()
	e.sanMu.Lock()
	for name, d := range view.Devices {
		held := e.sanitized[name]
		if held.from != d {
			held = sanitizedDevice{from: d, dev: config.Sanitize(d)}
			e.sanitized[name] = held
		}
		view.Devices[name] = held.dev
	}
	e.sanMu.Unlock()
	return view, e.productionSnapshot().Derive(view, nil)
}

// SetMeter wires enforcer telemetry (reviews, verify latency, changes
// applied, rollbacks) and propagates the meter to the audit trail.
func (e *Enforcer) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	e.meter = m
	e.reviewed = labeled(m, "heimdall_enforcer_reviews_total", "accepted", false, true)
	e.committed = labeled(m, "heimdall_enforcer_commits_total", "accepted", false, true)
	e.handedOver = labeled(m, "heimdall_enforcer_commit_handover_total", "from", "review", "production", "computed")
	e.retried = labeled(m, "heimdall_enforcer_push_retries_total", "phase", "apply", "rollback")
	e.verifyTime = m.Histogram("heimdall_enforcer_verify_seconds", telemetry.LatencyBuckets)
	e.pushTime = m.Histogram("heimdall_enforcer_push_seconds", telemetry.LatencyBuckets)
	e.applied = m.Counter("heimdall_enforcer_changes_applied_total")
	e.snapHits = m.Counter("heimdall_enforcer_prod_snapshot_hits_total")
	e.snapMisses = m.Counter("heimdall_enforcer_prod_snapshot_misses_total")
	e.snapDerived = m.Counter("heimdall_enforcer_prod_snapshot_derived_total")
	e.cacheHits = m.Counter("heimdall_enforcer_review_cache_hits_total")
	e.cacheMisses = m.Counter("heimdall_enforcer_review_cache_misses_total")
	e.checks = verify.NewInstruments(m)
	e.trail.SetMeter(m)
	e.journal.SetMeter(m)
}

// labeled is the counter name on m for each of values, labelled label.
func labeled[V comparable](m telemetry.Meter, name, label string, values ...V) map[V]telemetry.Counter {
	out := make(map[V]telemetry.Counter, len(values))
	for _, v := range values {
		out[v] = m.Counter(name, telemetry.L(label, fmt.Sprint(v)))
	}
	return out
}

// Trail returns the enforcer's audit trail.
func (e *Enforcer) Trail() *audit.Trail { return e.trail }

// TrailKey returns a copy of the audit-trail HMAC key. In the deployment
// model this is released only to the customer's auditor over the secure
// channel established after attestation, so exported trails can be
// verified offline.
func (e *Enforcer) TrailKey() []byte {
	k := e.encl.DeriveKey("audit-trail")
	return append([]byte(nil), k...)
}

// Attest produces an attestation report binding the enforcer's code
// identity to the caller's nonce.
func (e *Enforcer) Attest(nonce []byte) enclave.Report { return e.encl.Attest(nonce) }

// Decision is the outcome of reviewing a change set.
type Decision struct {
	Accepted bool
	// Unauthorized lists changes outside the ticket's Privilegemsp. Any
	// such change rejects the whole set: it means the twin's reference
	// monitor was bypassed or the spec shrank since.
	Unauthorized []config.Change
	// Violations lists policies the changed network would break.
	Violations []verify.Violation
	// Checked is how many policies were verified.
	Checked int
	// trailMsg and trailOK are the audit-trail entry of the review that
	// computed the decision, replayed for every requester it answers
	// (replayReview).
	trailMsg string
	trailOK  bool
}

// Reason summarises why a decision rejected the change set. It is safe on
// a nil decision (commit refused before review: quarantine).
func (d *Decision) Reason() string {
	switch {
	case d == nil:
		return "commit refused"
	case d.Accepted:
		return "accepted"
	case len(d.Unauthorized) > 0:
		return fmt.Sprintf("%d unauthorized changes", len(d.Unauthorized))
	default:
		return fmt.Sprintf("%d policy violations", len(d.Violations))
	}
}

// Review checks a candidate change set against the Privilegemsp and the
// network policies on production as it is, without touching production,
// and reports whether the verdict was served from the verdict cache (the
// audit trail and review counters are updated identically either way).
// rulesDigest is spec's (privilege.Spec.RulesDigest) when the caller holds
// it — an engagement memoizes it — and "" otherwise.
func (e *Enforcer) Review(changes []config.Change, spec *privilege.Spec, rulesDigest string) (*Decision, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	key, rules := reviewKey(changes, spec, rulesDigest)
	return e.review(nil, changes, spec, key, rules, "")
}

// reviewCompute is the uncached review: it returns the decision plus the
// audit-trail message and outcome flag of the entry every requester it
// answers has appended (replayReview); an acceptance keeps its shadow and
// the shadow's verdicts under key for the commit (handOver). prodSnap is
// the production snapshot to derive the shadow from; nil means take the
// held one once the privilege check passed.
func (e *Enforcer) reviewCompute(prodSnap *dataplane.Snapshot, changes []config.Change, spec *privilege.Spec, key, rules, rule string) (d *Decision, trailMsg string, trailOK bool) {
	d = &Decision{}

	// Privilege check: every change must be authorized. The compiled form
	// evaluates each change without rescanning (or re-splitting) the rules.
	compiled := e.compiledFor(spec, rules)
	for _, c := range changes {
		if !authorized(compiled, c) {
			d.Unauthorized = append(d.Unauthorized, c)
		}
	}
	if len(d.Unauthorized) > 0 {
		return d, fmt.Sprintf("review rejected: %d unauthorized changes", len(d.Unauthorized)), false
	}

	// Policy verification on a shadow copy, which shares production's
	// devices: ApplyChanges replaces each device a change names with a copy
	// that still shares every section the change set does not write.
	shadow := e.prod.CloneCOW()
	if err := config.ApplyChanges(shadow, changes); err != nil {
		d.Violations = append(d.Violations, verify.Violation{
			Reason: fmt.Sprintf("changes do not apply cleanly: %v", err),
		})
		return d, "review rejected: changes do not apply", false
	}
	// The shadow snapshot derives from the production snapshot — reusing
	// everything the change set provably cannot invalidate — instead of
	// recomputing the dataplane from scratch, and when that snapshot is the
	// held one the check takes over its verdicts the same way: only the
	// policies whose production trace crosses a device the change set moved
	// are evaluated. next is the shadow's vector, every verdict in it.
	if prodSnap == nil {
		prodSnap = e.productionSnapshot()
	}
	shadowSnap := prodSnap.Derive(shadow, dataplane.ChangeSetFor(e.prod, changes))
	verifyStart := time.Now()
	next := make(verify.Verdicts, len(e.policies))
	res := verify.CheckCarried(shadowSnap, e.policies, e.verdictsOf(prodSnap, true), next, e.checks)
	e.verifyTime.ObserveDuration(time.Since(verifyStart))
	d.Checked = res.Checked
	d.Violations = append(d.Violations, untolerated(rule, res.Violations)...)
	if d.Accepted = len(d.Violations) == 0; d.Accepted {
		e.kept.Store(&keptShadow{key, shadow, shadowSnap, prodSnap, next})
	}
	msg := fmt.Sprintf("review: %d changes, %d policies checked, %d violations", len(changes), d.Checked, len(d.Violations))
	if ids, ok := strings.CutPrefix(rule, tolerates); ok {
		msg += fmt.Sprintf(", %d tolerated", len(strings.Fields(ids)))
	}
	return d, msg, d.Accepted
}

// authorized reports whether the spec allows the change. A replaced ACL
// entry stands for a remove and an add of its seq, so it needs both
// actions on the ACL, exactly as that pair of changes would.
func authorized(s *privilege.CompiledSpec, c config.Change) bool {
	if c.Op == config.OpSetACLEntry {
		res := c.Resource()
		return s.Allows("config.acl.remove", res) && s.Allows("config.acl.add", res)
	}
	return s.Allows(c.Action(), c.Resource())
}

// schedulePhase orders ops within the additive/subtractive phases so that
// definitions exist before references and references are dropped before
// definitions.
func schedulePhase(op config.Op) int {
	switch op {
	// Phase 0 (definitions and additive data):
	case config.OpSetVLAN, config.OpAddACLEntry, config.OpAddACL, config.OpSetOSPF, config.OpSetBGP:
		return 0
	case config.OpAddStaticRoute, config.OpSetGateway:
		return 1
	case config.OpAddInterface, config.OpSetInterface:
		return 2
	// Subtractive, inverse order: unbind/undo interfaces first, then
	// routes, then ACL entries/definitions, then VLANs.
	case config.OpRemoveStaticRoute:
		return 3
	case config.OpRemoveACLEntry, config.OpSetACLEntry:
		return 4
	case config.OpRemoveACL:
		return 5
	case config.OpRemoveOSPF, config.OpRemoveBGP, config.OpRemoveVLAN:
		return 6
	}
	return 7
}

// Schedule orders a change set for safe application: additive changes
// before subtractive ones (a reachability-restoring entry lands before the
// entry it replaces disappears), definitions before bindings, and a
// deterministic device order within each phase; the sort is stable, so
// changes of one phase on one device keep their input order. A replaced ACL
// entry is one change (config.OpSetACLEntry), pushed as a removal would be.
func Schedule(changes []config.Change) []config.Change {
	rank := func(c config.Change) int {
		if c.Additive() {
			return schedulePhase(c.Op)
		}
		return schedulePhase(c.Op) + 8
	}
	out := slices.Clone(changes)
	slices.SortStableFunc(out, func(a, b config.Change) int {
		return cmp.Or(rank(a)-rank(b), strings.Compare(a.Device, b.Device))
	})
	return out
}

// CommitRequest is one change set submitted for production.
type CommitRequest struct {
	Changes []config.Change
	Spec    *privilege.Spec
	// RulesDigest is Spec's rules digest (privilege.Spec.RulesDigest) when
	// the caller holds it — an engagement memoizes it; "" digests Spec.
	RulesDigest string
	// Approvals are the M-of-N approvals over the scheduled change set.
	// When the enforcer has an Auth policy and the set classifies
	// high-risk, they must verify (M distinct valid signatures over the
	// ticket + scheduled change set, both parties represented if the policy
	// demands it) before the intent is journaled; they are recorded in the
	// intent record, so the journal itself proves who authorized the push.
	Approvals []journal.Approval
	// Emergency, when set, makes the commit one emergency write (paper §7):
	// it is called under the commit's hold of the write lock with
	// production, to read and never write, and returns the change set the
	// commit takes in place of Changes — so the device it diffs is the one
	// the commit lands on. One rule changes: the policies production
	// violates now, the incident the write repairs, are tolerated, so the
	// set is accepted when it introduces no new violation. Its intent names
	// them, and Recover replays to the same rule. An error, or no change,
	// commits nothing: Submit returns it with a nil decision.
	Emergency func(prod *netmodel.Network) ([]config.Change, error)
}

// Submit reviews, schedules and applies a change set to production
// through the push pipeline, holding the write lock throughout: the
// commit intent (change set + each change's undo) is journaled before
// anything touches production, every change is pushed with per-change
// retry/backoff and journaled as applied, and after application the full
// policy set is re-verified against the real network. On any unrecoverable
// failure every touched device is restored (rollback is retried too); if
// rollback itself fails the enforcer quarantines rather than leave a silent
// partial state.
func (e *Enforcer) Submit(req CommitRequest) (*Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.Emergency != nil {
		changes, err := req.Emergency(e.prod)
		if err != nil || len(changes) == 0 {
			return nil, err
		}
		req.Changes = changes
	}
	changes, spec, approvals := req.Changes, req.Spec, req.Approvals
	if e.quarantined {
		e.committed[false].Inc()
		return nil, fmt.Errorf("enforcer: quarantined (%s); run Recover before committing", e.quarReason)
	}
	// The pre-commit snapshot serves the review and, when the built-in
	// target applies the changes, is what the post-apply snapshot's ancestor
	// derives from. What a custom target does to production is not the
	// enforcer's to assume: there the post-apply check computes from scratch.
	pre := e.pushAncestor()
	key, rules := reviewKey(changes, spec, req.RulesDigest)
	// Own key: a strict review shares no emergency verdict or kept shadow.
	rule := ""
	if req.Emergency != nil {
		rule, key = e.emergencyRule(pre), "emergency|"+key
	}
	d, _ := e.review(pre, changes, spec, key, rules, rule)
	if !d.Accepted {
		e.committed[false].Inc()
		return d, fmt.Errorf("enforcer: change set rejected: %s", d.Reason())
	}
	ordered := Schedule(changes)
	// M-of-N gate: high-risk change sets need verified approvals over the
	// scheduled set (what will actually be pushed, in push order) before
	// the write-ahead intent — an unauthorized high-risk push never opens.
	if e.Auth != nil && authz.Classify(ordered) == authz.HighRisk {
		if aerr := e.Auth.Verify(spec.Ticket, ordered, approvals); aerr != nil {
			e.trail.Append(spec.Ticket, spec.Technician, audit.KindVerify,
				fmt.Sprintf("commit refused: high-risk change set without authorization: %v", aerr), false)
			e.meter.Counter("heimdall_enforcer_authz_refusals_total").Inc()
			e.committed[false].Inc()
			return d, fmt.Errorf("enforcer: high-risk change set refused: %w", aerr)
		}
		e.trail.Append(spec.Ticket, spec.Technician, audit.KindVerify,
			fmt.Sprintf("authz: high-risk change set authorized by %d approvals (M=%d)", len(approvals), e.Auth.M), true)
	}
	from, violations, err := e.push(specIdent{spec.Ticket, spec.Technician}, ordered, approvals, key, rule, pre)
	if err != nil {
		if violations != nil {
			d.Accepted, d.Violations = false, violations
		}
		e.committed[false].Inc()
		return d, err
	}
	e.trail.Append(spec.Ticket, spec.Technician, audit.KindSession,
		fmt.Sprintf("committed %d changes to production (from=%s)", len(ordered), from), true)
	e.committed[true].Inc()
	return d, nil
}

// Inject lands a fault on production: the change set changes returns, read
// from production under the write lock, goes through a commit's push
// unreviewed, under a rule that tolerates every violation (injects), its
// intent and trail entries naming the fault as their ticket. Refused while
// quarantined; an error, no change or an unknown device lands nothing, a
// failed push rolls back.
func (e *Enforcer) Inject(fault string, changes func(prod *netmodel.Network) ([]config.Change, error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined {
		return fmt.Errorf("enforcer: quarantined (%s); run Recover before injecting", e.quarReason)
	}
	cs, err := changes(e.prod)
	if err != nil || len(cs) == 0 {
		return err
	}
	for _, c := range cs {
		if e.prod.Devices[c.Device] == nil {
			return fmt.Errorf("enforcer: fault %s: no production device %s", fault, c.Device)
		}
	}
	_, _, err = e.push(specIdent{ticket: fault}, cs, nil, "", injects, e.pushAncestor())
	return err
}

// pushAncestor is the snapshot a push's hand-over derives from (handOver).
func (e *Enforcer) pushAncestor() *dataplane.Snapshot {
	if e.target != nil {
		return nil
	}
	return e.productionSnapshot()
}

// push lands changes in order, write-ahead, under the write lock: the
// intent (changes, undos, approvals, rule) before device one, each change
// pushed with retry, journaled as applied and trailed, then the hand-over
// from pre or the kept shadow of the review under key,
// checked under rule, before the terminal record. A failure rolls back or
// quarantines; the error says which, beside the untolerated violations.
func (e *Enforcer) push(id specIdent, changes []config.Change, approvals []journal.Approval, key, rule string, pre *dataplane.Snapshot) (from string, violations []verify.Violation, err error) {
	devices := touchedDevices(changes)
	// The push replaces the devices it writes (Target.Apply): backup holds
	// production as it was, for the undos, the rollback and the hand-over.
	backup := e.prod.CloneCOW()
	tgt := e.pushTarget()
	policy := e.Retry.withDefaults()
	e.commitSeq++
	cid := fmt.Sprintf("%s#%d", id.ticket, e.commitSeq)
	// Seed the backoff jitter per commit so a replayed fault schedule
	// sees identical delays.
	rng := &jitter{seed: policy.JitterSeed + int64(e.commitSeq)}

	// Write-ahead: the journal knows the full plan, what each change
	// overwrites and the rule before device one.
	undos := make([]config.Undo, len(changes))
	for i, c := range changes {
		undos[i] = config.UndoOf(backup.Devices[c.Device], c)
	}
	e.journal.Append(journal.Record{Kind: journal.KindIntent, Commit: cid, Ticket: id.ticket, Technician: id.technician,
		Changes: changes, Undos: undos, Approvals: approvals, ChangeIndex: -1, Detail: rule})
	for i, c := range changes {
		opStart := time.Now()
		err := e.pushOp(policy, rng, "apply", func() error { return tgt.Apply(c) })
		e.pushTime.ObserveDuration(time.Since(opStart))
		if err != nil {
			if e.rollbackPush(tgt, policy, rng, pre, backup, devices, id, cid, fmt.Sprintf("apply failed: %v", err)) == "quarantined" {
				return "", nil, fmt.Errorf("enforcer: applying %s: %v; rollback failed, production quarantined", c, err)
			}
			return "", nil, fmt.Errorf("enforcer: applying %s: %w (rolled back)", c, err)
		}
		pushed := c.String()
		e.journal.Applied(cid, i, pushed)
		e.trail.Append(id.ticket, id.technician, audit.KindChange, pushed, true)
		e.applied.Inc()
	}
	// Never trust, always verify: production must now be what was verified.
	// A push that landed its review's shadow diffs empty against it, and the
	// diff is the verification; anything else is re-checked where it differs.
	postSnap, verdicts, violations, from := e.handOver(key, pre, backup, devices)
	e.handedOver[from].Inc()
	if violations := untolerated(rule, violations); len(violations) > 0 {
		why := fmt.Sprintf("post-apply verification failed: %d violations", len(violations))
		if e.rollbackPush(tgt, policy, rng, pre, backup, devices, id, cid, why) == "quarantined" {
			return from, violations, fmt.Errorf("enforcer: post-apply verification failed; rollback failed, production quarantined")
		}
		return from, violations, fmt.Errorf("enforcer: post-apply verification failed (rolled back)")
	}
	e.journal.Committed(cid, fmt.Sprintf("%d changes", len(changes)))
	// Production changed: every cached review verdict is now stale, and the
	// snapshot just verified, with the verdicts it was verified to, is what
	// is held of the new version.
	e.invalidate()
	e.prodSnap.Store(&heldSnapshot{snap: postSnap, verdicts: verdicts})
	return from, nil, nil
}

// Commit is Submit for benchmark/, which hands production in: it refuses
// any network but the enforcer's own. ROADMAP item 1 deletes it.
func (e *Enforcer) Commit(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (*Decision, error) {
	if prod != e.prod {
		return nil, errForeignNetwork
	}
	return e.Submit(CommitRequest{Changes: changes, Spec: spec})
}

// errForeignNetwork refuses a network the enforcer does not own.
var errForeignNetwork = errors.New("enforcer: not this enforcer's production network")

// tolerates opens the rule an emergency commit changes, its intent Detail:
// the IDs of the policies production violated when it began follow,
// space-separated in policy order, and its review and post-apply check drop
// their violations. A ticket commit's rule is empty: every policy holds.
const tolerates = "emergency: tolerates"

// emergencyRule is an emergency commit's rule: the policies production
// violates before it, read from the vector of held (the pre-commit snapshot;
// nil: the held one), which the caller's write lock keeps the held
// snapshot (were it not, nothing would be tolerated).
func (e *Enforcer) emergencyRule(held *dataplane.Snapshot) string {
	if held == nil {
		held = e.productionSnapshot()
	}
	rule := tolerates
	for i, v := range e.verdictsOf(held, true) {
		if v.Violation != nil {
			rule += " " + e.policies[i].ID
		}
	}
	return rule
}

// injects is a fault injection's rule: it tolerates every violation.
const injects = "fault: tolerates every violation"

// untolerated is vs, in place, without the violations rule tolerates: the
// one reading of the rule, so a push and Recover answer to the same.
func untolerated(rule string, vs []verify.Violation) []verify.Violation {
	if rule == injects {
		return vs[:0]
	}
	tol := strings.Fields(strings.TrimPrefix(rule, tolerates))
	return slices.DeleteFunc(vs, func(v verify.Violation) bool { return slices.Contains(tol, v.Policy.ID) })
}
