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
// verdict per policy. A review derives its shadow from the held snapshot,
// evaluates only the policies whose held verdict rests on a trace the
// derivation does not carry (dataplane.Snapshot.Carries, which replays a hop
// on a device with only ACL changes against its new ACLs), each retraced
// from that trace's first stale hop (dataplane.Snapshot.ReachFrom), and
// keeps the shadow's complete vector. A commit lands what its review
// verified: when config.DiffDevice finds nothing between that shadow and
// production on the touched devices, the diff is the verification and the
// review's vector becomes production's; a push that landed anything else is
// checked across what differs (handOver). The vector is installed, handed
// over and dropped with the snapshot, never apart from it. A version
// computed from scratch starts empty and its first review completes it on
// production. A declared write (ProductionWritten) holds what its
// derivation carries, and a review fills a hole only with a trace
// production shares under the strict rule, which replays nothing
// (dataplane.Snapshot.CarriesBack): a replay reads only the review's ACLs.
//
// The invalidation contract is the verdict cache's: production's devices are
// immutable once published (open twins share them), a writer replaces each
// device it writes (netmodel.Network.Detach), and a snapshot reads its
// network's devices from the map lazily (ACLs at trace time), so a snapshot
// held across a write the enforcer did not see would silently describe a
// network that no longer exists. Every production writer ends, before it
// lets a reader back in, in a commit's hand-over (an emergency write's too),
// in ProductionWritten (a declared MutateProduction, the built-in target's
// rollback) or in InvalidateReviews, which drops the snapshot: an undeclared
// MutateProduction, a custom target's rollback, and Recover, whose real
// caller is a fresh enforcer after a crash, holding nothing to derive from.

import (
	"sync"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

// heldSnapshot is a production snapshot, what it is valid for, and the
// verdicts known on it, index-aligned with e.policies (which slots are
// filled when: the package doc). computed marks a vector ProductionSnapshot
// started empty, which complete fills once (reviewVerdicts).
type heldSnapshot struct {
	net      *netmodel.Network
	version  uint64
	snap     *dataplane.Snapshot
	verdicts verify.Verdicts
	computed bool
	complete sync.Once
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

// reviewVerdicts is verdictsOf for a review, which runs while production
// matches snap: a vector ProductionSnapshot started empty is completed
// there first, once per version (verify.Fill). A review resumes a retrace
// only from a verdict's trace, and a policy no review carries would
// otherwise never fill its slot.
func (e *Enforcer) reviewVerdicts(snap *dataplane.Snapshot) verify.Verdicts {
	h := e.prodSnap.Load()
	if h == nil || h.snap != snap {
		return nil
	}
	if h.computed {
		h.complete.Do(func() { verify.Fill(snap, e.policies, h.verdicts) })
	}
	return h.verdicts
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
	e.prodSnap.Store(&heldSnapshot{net: prod, version: version, snap: snap,
		verdicts: make(verify.Verdicts, len(e.policies)), computed: true})
	return snap
}

// ProductionWritten is InvalidateReviews for an out-of-band writer that
// names what it wrote: prod was written on exactly the listed devices, and
// pre holds them as they were (what netmodel.Network.Detach returned before
// the write). The version moves on and every cached verdict dies, but the
// held snapshot is derived across the write (diffAcross; the same one when
// nothing changed) and held for the new version with the verdicts it
// carries. The list is a claim nobody checks here: a device written but not
// listed leaves a wrong snapshot held. Nothing held at this version, or a
// listed device missing on either side, is a drop.
func (e *Enforcer) ProductionWritten(prod, pre *netmodel.Network, devices []string) {
	held := e.current(prod, e.prodVersion.Load())
	cs, ok := diffAcross(pre, prod, devices)
	if held == nil || !ok {
		e.InvalidateReviews()
		return
	}
	verdicts := e.verdictsOf(held)
	if len(cs) > 0 {
		held = held.Derive(prod, cs)
		verdicts = verdicts.Carried(held)
	}
	e.InvalidateReviews()
	e.prodSnap.Store(&heldSnapshot{net: prod, version: e.prodVersion.Load(), snap: held, verdicts: verdicts})
	e.meter.Counter("heimdall_enforcer_prod_snapshot_derived_total").Inc()
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
	return changeSetFor(from, changes), true
}

// keptShadow is the accepted review under key: its shadow, derived from
// parent, and every policy's verdict on it.
type keptShadow struct {
	key          string
	net          *netmodel.Network
	snap, parent *dataplane.Snapshot
	verdicts     verify.Verdicts
}

// handOver derives prod's snapshot after a push onto devices and returns it
// with every policy's verdict there, their violations and the ancestor's
// name: the shadow the review under key kept when it derives from pre, else
// pre, whose devices backup holds; computed without pre. A push that landed
// the kept shadow exactly (no diff) holds the review's verdicts and checks
// nothing; otherwise every policy is checked, carrying the ancestor's
// verdicts across the diff.
func (e *Enforcer) handOver(key string, pre *dataplane.Snapshot, backup, prod *netmodel.Network, devices []string) (*dataplane.Snapshot, verify.Verdicts, []verify.Violation, string) {
	net, snap, verdicts, from := backup, pre, e.verdictsOf(pre), "production"
	if k := e.kept.Load(); k != nil && k.key == key && k.parent == pre {
		net, snap, verdicts, from = k.net, k.snap, k.verdicts, "review"
	}
	cs, ok := diffAcross(net, prod, devices)
	if !ok || snap == nil {
		snap, verdicts, from = dataplane.ComputeWithOptions(prod, dataplane.Options{Meter: e.meter}), nil, "computed"
	} else if snap = snap.Derive(prod, cs); len(cs) == 0 && from == "review" {
		return snap, verdicts, verdicts.Violations(), from
	}
	next := make(verify.Verdicts, len(e.policies))
	return snap, next, verify.CheckCarried(snap, e.policies, verdicts, next, e.meter).Violations, from
}
