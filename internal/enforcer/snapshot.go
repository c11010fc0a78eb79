package enforcer

// The production snapshot. Opening a ticket, reviewing a change set and
// re-verifying after a push all start from the forwarding state of the same
// production network, and computing it from scratch is the dominant cost of
// each. So the enforcer holds one dataplane snapshot of production as it
// is: the first reader after a write computes it, everyone else derives
// from it, and a commit hands the snapshot it just verified to the next
// version.
//
// Beside the snapshot it holds every policy's verdict on it, and a held
// vector is complete before any review reads it. A review derives its
// shadow from the held snapshot, evaluates only the policies whose held
// verdict rests on a trace the derivation does not carry
// (dataplane.Snapshot.Carries, which replays a hop on a device with only ACL
// changes against its new ACLs), each retraced from that trace's first stale
// hop (dataplane.Snapshot.ReachFrom), and keeps the shadow's complete vector;
// it never writes the held one. A commit lands what its review verified: when
// config.DiffDevice finds nothing between that shadow and production on the
// touched devices, the diff is the verification and the review's vector
// becomes production's; a push that landed anything else, an injection's
// among them, is checked across what differs, and so is a rollback
// (handOver: one that changed nothing keeps the very snapshot and vector).
// The vector is installed, handed over and dropped with the snapshot, never
// apart from it. A version computed from scratch is held without one until
// its first review completes it on production (verdictsOf).
//
// Only the enforcer writes production, so only it moves the snapshot on:
// production's devices are immutable once published (open twins share
// them), a writer replaces each device it writes (a push with
// config.ApplyChange's copy, a rollback with the backup's device, Recover
// with config.RestoreUndo's), and a snapshot reads its network's devices
// from the map lazily (ACLs at trace time), so the held snapshot is read
// only under the lock and leaves it rebound to a copy (View). Every writer
// holds the write lock and ends, before it unlocks, in a hand-over (a
// commit's, an emergency write's, an injection's, or the built-in target's
// rollback) or in invalidate, which drops the snapshot: a custom target's
// rollback, and Recover, whose real caller is a fresh enforcer after a
// crash, holding nothing to derive from.

import (
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

// heldSnapshot is the production snapshot and every policy's verdict on
// it, index-aligned with e.policies: complete, or nil on a version computed
// from scratch that no review has completed yet.
type heldSnapshot struct {
	snap     *dataplane.Snapshot
	verdicts verify.Verdicts
}

// verdictsOf returns the vector held beside snap: nil unless snap is the
// held snapshot itself, so a verdict is only ever carried from the snapshot
// it was proven for. For a review (complete), which runs while production
// matches snap, a version computed from scratch has its vector completed
// there first, once (under snapMu), and held with it: a review resumes a
// retrace only from a verdict's trace, and a policy no review carries would
// otherwise never be decided on production.
func (e *Enforcer) verdictsOf(snap *dataplane.Snapshot, complete bool) verify.Verdicts {
	h := e.prodSnap.Load()
	if h == nil || h.snap != snap {
		return nil
	}
	if h.verdicts == nil && complete {
		e.snapMu.Lock()
		defer e.snapMu.Unlock()
		if h = e.prodSnap.Load(); h.verdicts == nil {
			h = &heldSnapshot{snap: snap, verdicts: make(verify.Verdicts, len(e.policies))}
			verify.CheckCarried(snap, e.policies, nil, h.verdicts, nil)
			e.prodSnap.Store(h)
		}
	}
	return h.verdicts
}

// HeldVerdicts returns the policy verdicts held beside production's
// snapshot, index-aligned with Policies and read-only for the caller; nil
// when nothing is held or no review has completed it yet. Every slot is the
// verdict a from-scratch check of production gives (the production-snapshot
// oracle compares them).
func (e *Enforcer) HeldVerdicts() verify.Verdicts {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if h := e.prodSnap.Load(); h != nil {
		return h.verdicts
	}
	return nil
}

// productionSnapshot returns the held snapshot of production, computing it
// when nothing is held; the caller holds the lock, either way, for as long
// as it uses the snapshot, and may derive from it freely — Derive shares
// only immutable structures. Concurrent first readers wait for one
// computation.
func (e *Enforcer) productionSnapshot() *dataplane.Snapshot {
	if h := e.prodSnap.Load(); h != nil {
		e.snapHits.Inc()
		return h.snap
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if h := e.prodSnap.Load(); h != nil {
		e.snapHits.Inc()
		return h.snap
	}
	e.snapMisses.Inc()
	snap := dataplane.ComputeWithOptions(e.prod, dataplane.Options{Meter: e.meter})
	e.prodSnap.Store(&heldSnapshot{snap: snap})
	return snap
}

// diffAcross is what differs between from and to on the named devices
// (config.DiffDevice), classified against from for derivation; ok is false
// when a device is missing on either side.
func diffAcross(from, to *netmodel.Network, devices []string) (cs dataplane.ChangeSet, ok bool) {
	var changes []config.Change
	for _, name := range devices {
		was, now := from.Devices[name], to.Devices[name]
		if was == nil || now == nil {
			return nil, false
		}
		changes = append(changes, config.DiffDevice(was, now)...)
	}
	return dataplane.ChangeSetFor(from, changes), true
}

// keptShadow is the accepted review under key: its shadow, derived from
// parent, and every policy's verdict on it.
type keptShadow struct {
	key          string
	net          *netmodel.Network
	snap, parent *dataplane.Snapshot
	verdicts     verify.Verdicts
}

// handOver derives production's snapshot after a write onto devices (a push
// or its rollback) and returns it with every policy's verdict there, their
// violations and the ancestor's name: the shadow the review under key kept
// when it derives from pre, else pre, whose devices backup holds; computed
// without pre. A write that landed its ancestor exactly (no diff) holds the
// ancestor's complete verdicts and checks nothing; otherwise every policy
// is checked, carrying the ancestor's verdicts across the diff.
func (e *Enforcer) handOver(key string, pre *dataplane.Snapshot, backup *netmodel.Network, devices []string) (*dataplane.Snapshot, verify.Verdicts, []verify.Violation, string) {
	net, snap, verdicts, from := backup, pre, e.verdictsOf(pre, false), "production"
	if k := e.kept.Load(); k != nil && k.key == key && k.parent == pre {
		net, snap, verdicts, from = k.net, k.snap, k.verdicts, "review"
	}
	cs, ok := diffAcross(net, e.prod, devices)
	switch {
	case !ok || snap == nil:
		snap, verdicts, from = dataplane.ComputeWithOptions(e.prod, dataplane.Options{Meter: e.meter}), nil, "computed"
	case len(cs) == 0 && verdicts != nil:
		if from == "review" { // pre is production's own; the shadow's is rebound
			snap = snap.Derive(e.prod, cs)
		}
		return snap, verdicts, verdicts.Violations(), from
	default:
		snap = snap.Derive(e.prod, cs)
	}
	next := make(verify.Verdicts, len(e.policies))
	return snap, next, verify.CheckCarried(snap, e.policies, verdicts, next, e.checks).Violations, from
}
