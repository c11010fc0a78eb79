package enforcer

// The production snapshot. Opening a ticket, reviewing a change set and
// re-verifying after a push all start from the forwarding state of the same
// production network, and computing it from scratch is the dominant cost of
// each. The enforcer already counts production mutations (prodVersion, see
// cache.go), so it holds one dataplane snapshot per version: the first
// caller of a version computes it, everyone else derives from it, and a
// commit hands the snapshot it just verified to the next version.
//
// Beside the snapshot it holds what is known of the policies on it, one
// verdict per policy: a review or post-apply check derives its snapshot
// from the held one and evaluates only the policies whose held verdict
// rests on a trace the derivation does not carry. The vector is installed,
// handed over and dropped with the snapshot, never apart from it.
//
// The invalidation contract is the verdict cache's: production is mutated
// in place, and a snapshot reads its network's devices lazily (ACLs at
// trace time), so a snapshot held across a mutation the enforcer did not
// see would silently describe a network that no longer exists. Every
// production writer outside the commit pipeline ends, before it lets a
// reader back in, in ProductionWritten — it names every device it wrote and
// the snapshot is derived across the write — or in InvalidateReviews, which
// drops the snapshot: always safe, and what a writer that cannot make the
// claim gets (emergency consoles, rollback, Recover).

import (
	"slices"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

// heldSnapshot is a production snapshot, what it is valid for, and the
// verdicts known on it: index-aligned with e.policies, a slot filled by the
// first review of this version to decide that policy on a trace production
// shares (verify.CheckCarried), or by the commit or declared write that
// created the version.
type heldSnapshot struct {
	net      *netmodel.Network
	version  uint64
	snap     *dataplane.Snapshot
	verdicts verify.Verdicts
}

// verdictsOf returns the vector held beside snap: nil unless snap is the
// held snapshot itself, so a verdict is only ever carried from the snapshot
// it was proven for.
func (e *Enforcer) verdictsOf(snap *dataplane.Snapshot) verify.Verdicts {
	if h := e.prodSnap.Load(); h != nil && h.snap == snap {
		return h.verdicts
	}
	return nil
}

// HeldVerdicts returns the policy verdicts held beside prod's snapshot at
// the current version, index-aligned with Policies and read-only for the
// caller; nil when nothing is held. Every filled slot is the verdict a
// from-scratch check of production gives (the production-snapshot oracle
// compares them).
func (e *Enforcer) HeldVerdicts(prod *netmodel.Network) verify.Verdicts {
	return e.verdictsOf(e.current(prod, e.prodVersion.Load()))
}

// current returns the held snapshot of prod at the given version, or nil.
func (e *Enforcer) current(prod *netmodel.Network, version uint64) *dataplane.Snapshot {
	if h := e.prodSnap.Load(); h != nil && h.net == prod && h.version == version {
		return h.snap
	}
	return nil
}

// ProductionSnapshot returns the dataplane snapshot of prod, computed once
// per production version and shared; callers must hold whatever excludes
// production writers (core.System's read lock) for as long as they use it,
// and may derive from it freely — Derive shares only immutable structures.
// Concurrent first callers of a version wait for one computation. A caller
// that mutated prod outside the commit pipeline must have called
// ProductionWritten or InvalidateReviews since, or it is handed the
// pre-mutation snapshot.
func (e *Enforcer) ProductionSnapshot(prod *netmodel.Network) *dataplane.Snapshot {
	hits := e.meter.Counter("heimdall_enforcer_prod_snapshot_hits_total")
	if snap := e.current(prod, e.prodVersion.Load()); snap != nil {
		hits.Inc()
		return snap
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// The version is read before computing: a mutation racing the fill
	// (a contract violation) leaves a snapshot no later version is served.
	version := e.prodVersion.Load()
	if snap := e.current(prod, version); snap != nil {
		hits.Inc()
		return snap
	}
	e.meter.Counter("heimdall_enforcer_prod_snapshot_misses_total").Inc()
	snap := dataplane.ComputeWithOptions(prod, dataplane.Options{Meter: e.meter})
	e.holdSnapshot(prod, version, snap, make(verify.Verdicts, len(e.policies)))
	return snap
}

// ProductionWritten is InvalidateReviews for an out-of-band writer that
// names what it wrote: prod was mutated in place on exactly the listed
// devices, and pre holds those devices as they were (a CloneCOW of them
// taken before the write). The version moves on and every cached verdict
// dies, but the held snapshot is handed over as a commit hands it over: the
// devices are diffed against their pre-image in name order, the diff is
// classified as a commit's change set is, and the snapshot derived by it
// (the same one, when nothing changed) is held for the new version, with
// the policy verdicts it carries and the other slots empty. The list is a
// claim nobody checks here: a device written but not listed leaves a wrong
// snapshot held. Nothing held at this version, or a listed device missing on
// either side, is a drop.
func (e *Enforcer) ProductionWritten(prod, pre *netmodel.Network, devices []string) {
	held := e.current(prod, e.prodVersion.Load())
	if held == nil {
		e.InvalidateReviews()
		return
	}
	names := slices.Clone(devices)
	slices.Sort(names)
	var changes []config.Change
	for _, name := range slices.Compact(names) {
		was, now := pre.Devices[name], prod.Devices[name]
		if was == nil || now == nil {
			e.InvalidateReviews()
			return
		}
		changes = append(changes, config.DiffDevice(was, now)...)
	}
	verdicts := e.verdictsOf(held)
	if len(changes) > 0 {
		held = held.Derive(prod, changeSetFor(pre, changes))
		verdicts = verdicts.Carried(held)
	}
	e.InvalidateReviews()
	e.holdSnapshot(prod, e.prodVersion.Load(), held, verdicts)
	e.meter.Counter("heimdall_enforcer_prod_snapshot_derived_total").Inc()
}

// holdSnapshot installs snap and the verdicts proven for it as what is held
// of prod at the given version (the current one: Commit and
// ProductionWritten call it right after bumping it).
func (e *Enforcer) holdSnapshot(prod *netmodel.Network, version uint64, snap *dataplane.Snapshot, verdicts verify.Verdicts) {
	e.prodSnap.Store(&heldSnapshot{net: prod, version: version, snap: snap, verdicts: verdicts})
}
