// Package enforcer implements Heimdall's policy enforcer (paper §4.3): the
// trusted component between the twin network and the production network.
// It has three modules:
//
//   - a verifier that checks the technician's changes against the
//     customer's network policies before anything touches production;
//   - a scheduler that orders accepted changes so that applying them never
//     transits through an obviously unsafe intermediate state (additive
//     changes first, subtractive last);
//   - auditing: every review, application and rollback lands on the
//     tamper-evident trail.
//
// The enforcer runs inside a (simulated) TEE: its audit HMAC key is derived
// inside the enclave and the customer can attest the enforcer's identity.
package enforcer

import (
	"fmt"
	"math/rand"
	"sort"
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

// Enforcer gates changes from twin networks into one production network.
// Commits are serialized: concurrent engagements may review in parallel,
// but only one change set at a time is verified-against and applied to
// production, so a commit's verification always reflects the state it
// lands on.
//
// The enforcer tracks production: it holds one dataplane snapshot and the
// review verdicts of the current production version (snapshot.go,
// cache.go). Its own commit pipeline keeps that version current; whoever
// mutates production any other way must call ProductionWritten or
// InvalidateReviews before the next review, commit or ProductionSnapshot.
type Enforcer struct {
	encl     *enclave.Enclave
	trail    *audit.Trail
	journal  *journal.Journal
	policies []verify.Policy
	meter    telemetry.Meter
	commitMu sync.Mutex
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
	// are refused unless CommitApproved carries approvals the policy
	// verifies. Low-risk changes pass without approvals.
	Auth *authz.Policy
	// Conflict selects how commits whose scopes overlap mediate (default
	// MediateOff). See mediate.go.
	Conflict ConflictPolicy
	// scopeMu guards reservations; scopeCond wakes serialized waiters.
	scopeMu      sync.Mutex
	scopeCond    *sync.Cond
	reservations map[string]map[string]bool
	// reviews memoizes review verdicts by content: production version ×
	// privilege digest × change-set digest. prodVersion counts production
	// mutations and is folded into every cache key, so a commit (or
	// rollback, recovery, out-of-band mutation) invalidates all prior
	// verdicts at once. See cache.go.
	reviews     *reviewCache
	prodVersion atomic.Uint64
	// prodSnap is the production dataplane snapshot held for the current
	// prodVersion, with the policy verdicts known on it (same contract as
	// the verdict cache); snapMu serializes its lazy fill. See snapshot.go.
	prodSnap atomic.Pointer[heldSnapshot]
	snapMu   sync.Mutex
}

// New creates an enforcer hosted in the given enclave, guarding the given
// policy set. The audit-trail and commit-journal keys never exist outside
// the enclave.
func New(encl *enclave.Enclave, policies []verify.Policy) *Enforcer {
	return &Enforcer{
		encl:     encl,
		trail:    audit.NewTrail(encl.DeriveKey("audit-trail")),
		journal:  journal.New(encl.DeriveKey("commit-journal")),
		policies: policies,
		meter:    telemetry.Nop(),
		reviews:  newReviewCache(reviewCacheCap),
	}
}

// SetMeter wires enforcer telemetry (reviews, verify latency, changes
// applied, rollbacks) and propagates the meter to the audit trail.
func (e *Enforcer) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	e.meter = m
	e.trail.SetMeter(m)
	e.journal.SetMeter(m)
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

// Policies returns the guarded policy set.
func (e *Enforcer) Policies() []verify.Policy { return e.policies }

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
	// (ReplayReview).
	trailMsg string
	trailOK  bool
}

// Reason summarises why a decision rejected the change set. It is safe on
// a nil decision (commit refused before review — quarantine, authorization,
// conflict mediation).
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
// network policies, without touching production. A repeat of an
// already-reviewed change set against the same production version replays
// the cached verdict; callers who need to know use ReviewCached.
func (e *Enforcer) Review(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) *Decision {
	d, _ := e.ReviewCached(prod, changes, spec)
	return d
}

// reviewCompute is the uncached review: it returns the decision plus the
// audit-trail message and outcome flag of the entry every requester it
// answers has appended (ReplayReview). prodSnap is the production snapshot
// to derive the shadow from; nil means take it from ProductionSnapshot once
// the privilege check has passed.
func (e *Enforcer) reviewCompute(prod *netmodel.Network, prodSnap *dataplane.Snapshot, changes []config.Change, spec *privilege.Spec) (d *Decision, trailMsg string, trailOK bool) {
	d = &Decision{}

	// Privilege check: every change must be authorized. The compiled form
	// evaluates each change without rescanning (or re-splitting) the rules.
	compiled := spec.Compile()
	for _, c := range changes {
		if !compiled.Allows(c.Action(), c.Resource()) {
			d.Unauthorized = append(d.Unauthorized, c)
		}
	}
	if len(d.Unauthorized) > 0 {
		return d, fmt.Sprintf("review rejected: %d unauthorized changes", len(d.Unauthorized)), false
	}

	// Policy verification on a shadow copy. The shadow is copy-on-write:
	// only the devices the change set names are cloned (ApplyChanges never
	// creates devices and only writes the named ones), the rest are shared
	// read-only with production.
	shadow := prod.CloneCOW(touchedDevices(changes)...)
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
	// are evaluated. The shadow's own vector is nobody's to read.
	if prodSnap == nil {
		prodSnap = e.ProductionSnapshot(prod)
	}
	shadowSnap := prodSnap.Derive(shadow, changeSetFor(prod, changes))
	verifyStart := time.Now()
	res := verify.CheckCarried(shadowSnap, e.policies, e.verdictsOf(prodSnap), nil, e.meter)
	e.meter.Histogram("heimdall_enforcer_verify_seconds", telemetry.LatencyBuckets).
		ObserveDuration(time.Since(verifyStart))
	d.Checked = res.Checked
	d.Violations = append(d.Violations, res.Violations...)
	d.Accepted = len(d.Violations) == 0
	return d, fmt.Sprintf("review: %d changes, %d policies checked, %d violations",
		len(changes), d.Checked, len(d.Violations)), d.Accepted
}

// changeSetFor classifies a configuration change set for snapshot
// derivation. prod must still be in its pre-change state: the interface
// refinement of changeKindFor reads what each change replaces.
func changeSetFor(prod *netmodel.Network, changes []config.Change) dataplane.ChangeSet {
	cs := make(dataplane.ChangeSet, 0, len(changes))
	for _, c := range changes {
		cs = append(cs, dataplane.Change{Device: c.Device, Kind: changeKindFor(prod, c)})
	}
	return cs
}

// changeKindFor maps a configuration op onto the narrowest dataplane
// change class it can affect, for snapshot derivation. VLAN ops only edit
// the switching fabric. Interface ops are L2-class when the interface is
// L2-only (access/trunk or unaddressed, never an SVI) both before and
// after the change, and L3-topology otherwise — every config op is
// confined to its named device, so the conservative full-recompute class
// is reserved for ops the switch doesn't recognize.
func changeKindFor(prod *netmodel.Network, c config.Change) dataplane.ChangeKind {
	switch c.Op {
	case config.OpAddACLEntry, config.OpRemoveACLEntry, config.OpRemoveACL:
		return dataplane.ChangeACL
	case config.OpAddStaticRoute, config.OpRemoveStaticRoute, config.OpSetGateway:
		return dataplane.ChangeStatic
	case config.OpSetOSPF, config.OpRemoveOSPF:
		return dataplane.ChangeOSPF
	case config.OpSetBGP, config.OpRemoveBGP:
		return dataplane.ChangeBGP
	case config.OpSetVLAN, config.OpRemoveVLAN:
		return dataplane.ChangeL2
	case config.OpAddInterface, config.OpSetInterface:
		if netmodel.InterfaceL2Only(c.Interface) && priorInterfaceL2Only(prod, c) {
			return dataplane.ChangeL2
		}
		return dataplane.ChangeL3Topology
	default:
		return dataplane.ChangeTopology
	}
}

// priorInterfaceL2Only reports whether the interface a change replaces was
// absent or L2-only in production — replacing an addressed routed port is
// an L3 change even when its replacement is L2-only.
func priorInterfaceL2Only(prod *netmodel.Network, c config.Change) bool {
	if c.Interface == nil {
		return false
	}
	d := prod.Devices[c.Device]
	if d == nil {
		return false
	}
	old := d.Interface(c.Interface.Name)
	return old == nil || netmodel.InterfaceL2Only(old)
}

// schedulePhase orders ops within the additive/subtractive phases so that
// definitions exist before references and references are dropped before
// definitions.
func schedulePhase(op config.Op) int {
	switch op {
	// Phase 0 (definitions and additive data):
	case config.OpSetVLAN, config.OpAddACLEntry, config.OpSetOSPF, config.OpSetBGP:
		return 0
	case config.OpAddStaticRoute, config.OpSetGateway:
		return 1
	case config.OpAddInterface, config.OpSetInterface:
		return 2
	// Subtractive, inverse order: unbind/undo interfaces first, then
	// routes, then ACL entries/definitions, then VLANs.
	case config.OpRemoveStaticRoute:
		return 3
	case config.OpRemoveACLEntry:
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
// deterministic device order within each phase.
func Schedule(changes []config.Change) []config.Change {
	out := append([]config.Change(nil), changes...)
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := boolToInt(!out[i].Additive()), boolToInt(!out[j].Additive())
		if ai != aj {
			return ai < aj
		}
		pi, pj := schedulePhase(out[i].Op), schedulePhase(out[j].Op)
		if pi != pj {
			return pi < pj
		}
		return out[i].Device < out[j].Device
	})
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Commit reviews, schedules and applies the change set to production
// through the push pipeline: the commit intent (change set + device
// pre-state) is journaled before anything touches production, every change
// is pushed with per-change retry/backoff and journaled as applied, and
// after application the full policy set is re-verified against the real
// network. On any unrecoverable failure every touched device is restored
// (rollback is retried too); if rollback itself fails the enforcer
// quarantines rather than leave a silent partial state.
//
// Commit carries no approvals: with an Auth policy set, high-risk change
// sets are refused — use CommitApproved.
func (e *Enforcer) Commit(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (*Decision, error) {
	return e.CommitApproved(prod, changes, spec, nil)
}

// CommitApproved is Commit with M-of-N approvals attached. When the
// enforcer has an Auth policy and the scheduled change set classifies
// high-risk, the approvals must verify (M distinct valid signatures over
// the ticket + scheduled change set, both parties represented if the
// policy demands it) before the intent is journaled; the approvals are
// recorded in the intent record, so the journal itself proves who
// authorized the push. When the push target replicates
// (ReplicationHooks), the journaled intent is proposed to the replica
// group after the write-ahead record and before the first device push;
// a group that cannot reach quorum aborts the commit with a journaled
// rollback on every copy.
func (e *Enforcer) CommitApproved(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec, approvals []journal.Approval) (*Decision, error) {
	release, err := e.reserveForCommit(prod, changes, spec)
	if err != nil {
		e.countCommit(false)
		return nil, err
	}
	defer release()
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if e.quarantined {
		e.countCommit(false)
		return nil, fmt.Errorf("enforcer: quarantined (%s); run Recover before committing", e.quarReason)
	}
	// The pre-commit snapshot serves the review and, when the built-in
	// target applies the changes, is what the post-apply snapshot derives
	// from. What a custom target does to prod is not the enforcer's to
	// assume: there the post-apply check computes from scratch.
	var pre *dataplane.Snapshot
	if e.target == nil {
		pre = e.ProductionSnapshot(prod)
	}
	d, _ := e.review(prod, pre, changes, spec, e.ReviewKey(changes, spec.RulesDigest()))
	if !d.Accepted {
		e.countCommit(false)
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
			e.countCommit(false)
			return d, fmt.Errorf("enforcer: high-risk change set refused: %w", aerr)
		}
		e.trail.Append(spec.Ticket, spec.Technician, audit.KindVerify,
			fmt.Sprintf("authz: high-risk change set authorized by %d approvals (M=%d)", len(approvals), e.Auth.M), true)
	}
	devices := touchedDevices(ordered)
	// Only the touched devices are ever read back (journal pre-state,
	// rollback), so only they are copied; classify the change set while
	// production still shows what each change replaces.
	backup := prod.CloneCOW(devices...)
	cs := changeSetFor(prod, ordered)
	tgt := e.pushTarget(prod)
	hooks, _ := tgt.(ReplicationHooks)
	policy := e.Retry.withDefaults()
	e.commitSeq++
	cid := fmt.Sprintf("%s#%d", spec.Ticket, e.commitSeq)
	// Seed the backoff jitter per commit so a replayed fault schedule
	// sees identical delays.
	rng := rand.New(rand.NewSource(policy.JitterSeed + int64(e.commitSeq)))
	id := specIdent{spec.Ticket, spec.Technician}

	// Write-ahead: the journal knows the full plan before device one.
	intent := e.journal.Intent(cid, spec.Ticket, spec.Technician, ordered, preState(backup, ordered), approvals...)
	if hooks != nil {
		if herr := hooks.BeginCommit(intent); herr != nil {
			// Quorum not reached: abort before any device push. Nothing
			// to restore; the rollback record closes the commit on the
			// coordinator and on every replica that accepted the intent.
			mirrorTo(tgt, e.journal.RolledBack(cid, nil, herr.Error()))
			e.trail.Append(spec.Ticket, spec.Technician, audit.KindChange, "ROLLBACK: "+herr.Error(), false)
			e.meter.Counter("heimdall_enforcer_rollbacks_total").Inc()
			e.countCommit(false)
			return d, fmt.Errorf("enforcer: commit aborted: %w", herr)
		}
	}
	for i, c := range ordered {
		opStart := time.Now()
		err := e.pushOp(policy, rng, "apply", func() error { return tgt.Apply(c) })
		e.meter.Histogram("heimdall_enforcer_push_seconds", telemetry.LatencyBuckets).
			ObserveDuration(time.Since(opStart))
		if err != nil {
			outcome := e.rollbackPush(tgt, policy, rng, backup, devices, id, cid,
				fmt.Sprintf("apply failed: %v", err))
			e.countCommit(false)
			if outcome == "quarantined" {
				return d, fmt.Errorf("enforcer: applying %s: %v; rollback failed, production quarantined", c, err)
			}
			return d, fmt.Errorf("enforcer: applying %s: %w (rolled back)", c, err)
		}
		mirrorTo(tgt, e.journal.Applied(cid, i, c.String()))
		e.trail.Append(spec.Ticket, spec.Technician, audit.KindChange, c.String(), true)
		e.meter.Counter("heimdall_enforcer_changes_applied_total").Inc()
	}
	// Never trust, always verify: every policy is re-checked against what
	// production now is, whichever way its snapshot was built — evaluated
	// there, unless the pre-commit verdict rests on a trace the derived
	// snapshot carries. verdicts comes out holding every policy's.
	var postSnap *dataplane.Snapshot
	if pre != nil {
		postSnap = pre.Derive(prod, cs)
	} else {
		postSnap = dataplane.ComputeWithOptions(prod, dataplane.Options{Meter: e.meter})
	}
	verdicts := make(verify.Verdicts, len(e.policies))
	post := verify.CheckCarried(postSnap, e.policies, e.verdictsOf(pre), verdicts, e.meter)
	if !post.OK() {
		outcome := e.rollbackPush(tgt, policy, rng, backup, devices, id, cid,
			fmt.Sprintf("post-apply verification failed: %d violations", len(post.Violations)))
		d.Accepted = false
		d.Violations = post.Violations
		e.countCommit(false)
		if outcome == "quarantined" {
			return d, fmt.Errorf("enforcer: post-apply verification failed; rollback failed, production quarantined")
		}
		return d, fmt.Errorf("enforcer: post-apply verification failed (rolled back)")
	}
	mirrorTo(tgt, e.journal.Committed(cid, fmt.Sprintf("%d changes", len(ordered))))
	e.trail.Append(spec.Ticket, spec.Technician, audit.KindSession,
		fmt.Sprintf("committed %d changes to production", len(ordered)), true)
	// Production changed: every cached review verdict is now stale, and the
	// snapshot just verified, with the verdicts it was verified to, is what
	// is held of the new version.
	e.InvalidateReviews()
	e.holdSnapshot(prod, e.prodVersion.Load(), postSnap, verdicts)
	e.countCommit(true)
	return d, nil
}

// countCommit records one commit outcome.
func (e *Enforcer) countCommit(accepted bool) {
	e.meter.Counter("heimdall_enforcer_commits_total",
		telemetry.L("accepted", fmt.Sprintf("%t", accepted))).Inc()
}
