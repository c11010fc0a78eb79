package dataplane

import (
	"sort"

	"heimdall/internal/netmodel"
)

// ChangeKind classifies what a configuration change can affect, so Derive
// knows which parts of a prior snapshot stay valid. The classification is
// conservative: when in doubt, use ChangeTopology and pay a full recompute.
type ChangeKind int

const (
	// ChangeACL covers access-list edits (entries added/removed/replaced,
	// ACL bindings unchanged interfaces aside). ACLs gate TraceFrom only —
	// they never influence adjacency, OSPF, BGP, or any RIB — so a derived
	// snapshot reuses every computed structure.
	ChangeACL ChangeKind = iota
	// ChangeStatic covers static-route and host default-gateway edits on
	// one device. Statics are not redistributed into any protocol, so only
	// that device's RIB and FIB change.
	ChangeStatic
	// ChangeOSPF covers OSPF process edits (costs, passive interfaces,
	// enabled networks, process removal). The link-state pass reads the L2
	// adjacency but never feeds back into it, and nothing is redistributed
	// between OSPF and BGP, so adjacency, BGP routes, and BGP sessions all
	// stay valid; the link-state pass reruns incrementally and only the
	// RIBs whose OSPF inputs differed are rebuilt.
	ChangeOSPF
	// ChangeBGP covers BGP process edits (neighbors, networks, AS changes,
	// process removal). Sessions and routes rerun; adjacency and OSPF stay,
	// and only RIBs whose BGP inputs differed are rebuilt.
	ChangeBGP
	// ChangeL2 covers mutations confined to the switching fabric of the
	// changed device: VLAN definition edits, access-port VLAN moves, and
	// state changes of ports that are not L3 endpoints (no address, or
	// access/trunk mode — see netmodel.InterfaceL2Only). Such a change can
	// rewire L2 adjacency — and through it OSPF adjacencies and BGP session
	// reachability, which the derivation re-checks — but can never alter
	// address ownership, connected routes, or static resolution, so every
	// structure the re-checked inputs confirm unchanged is shared with the
	// parent by identity. A pure-L2 rewire (the common case: VLAN renames,
	// moves among L2-only segments) shares ALL routing state.
	ChangeL2
	// ChangeL3Topology covers interface-level changes on the changed
	// devices that can affect L3 state: shutdowns of addressed ports,
	// address edits, SVI changes. Adjacency and address ownership are
	// recomputed; the link-state pass reruns incrementally (SPF only for
	// sources whose reachable LSDB component changed), BGP reruns only when
	// the session set or a changed device's BGP process could differ, and
	// RIBs rebuild only for devices whose route inputs actually changed.
	ChangeL3Topology
	// ChangeTopology is the conservative fallback for anything not
	// confined to the declared devices or not classifiable: link edits,
	// device add/remove, unknown operations. Everything is recomputed from
	// scratch.
	ChangeTopology
)

// changeKindCount sizes per-kind lookup tables.
const changeKindCount = int(ChangeTopology) + 1

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeACL:
		return "acl"
	case ChangeStatic:
		return "static"
	case ChangeOSPF:
		return "ospf"
	case ChangeBGP:
		return "bgp"
	case ChangeL2:
		return "l2"
	case ChangeL3Topology:
		return "l3-topology"
	case ChangeTopology:
		return "topology"
	default:
		return "unknown"
	}
}

// Change names one mutated device and what class of state the mutation can
// affect on it.
type Change struct {
	Device string
	Kind   ChangeKind
}

// ChangeSet is the list of changes between the snapshot's network and the
// network a derived snapshot is requested for.
type ChangeSet []Change

// Derive builds a snapshot of n by reusing every part of the receiver that
// the change set provably cannot invalidate, recomputing only the rest.
// n must be the receiver's network modified ONLY as described by changes
// (typically a CloneCOW with the listed devices mutated); an undeclared
// change silently yields a wrong snapshot. The derived snapshot is
// byte-identical to ComputeWithOptions(n, s.opts) — the TestDeriveMatchesCompute
// oracle pins this for every change class.
//
// The flow cache starts empty, but when the derivation keeps the parent's
// adjacency and address ownership (every class but L3-topology, a real L2
// rewire and the Topology fallback) the child also remembers the parent's
// cache and the devices whose config or RIB differ, and Reach carries the
// parent's traces that avoid all of them (see Snapshot.carried). A trace
// reads only its hop devices' config and FIB, the adjacency, the owner map
// and host addresses, and no address can change outside L3-topology, so such
// a trace read nothing that differs between the two snapshots.
//
// Reuse per class (see ChangeKind docs for the exactness argument):
//
//	ACL        → everything shared (adjacency, sessions, OSPF, BGP, RIBs, FIBs)
//	Static     → shared except the changed devices' RIBs+FIBs
//	OSPF       → adjacency, sessions, BGP shared; incremental SPF, diffed RIBs
//	BGP        → adjacency, OSPF shared; sessions+BGP rerun, diffed RIBs
//	L2         → adjacency rebuilt; owner shared; OSPF/BGP rerun only if the
//	             LSDB or session set changed, routes shared per source/device
//	L3Topology → adjacency+owner rebuilt; incremental SPF, session-checked
//	             BGP, RIBs rebuilt for changed devices and route diffs
//	Topology   → full ComputeWithOptions fallback
func (s *Snapshot) Derive(n *netmodel.Network, changes ChangeSet) *Snapshot {
	kinds := [changeKindCount]bool{}
	// ribDirty accumulates the devices whose RIB inputs changed. Static and
	// L3-topology changes can alter the changed device's connected/static
	// routes, so those are dirty up front; protocol route differences are
	// discovered (and marked) by the diffs below.
	ribDirty := make(map[string]bool)
	for _, c := range changes {
		kinds[c.Kind] = true
		if c.Kind == ChangeStatic || c.Kind == ChangeL3Topology {
			ribDirty[c.Device] = true
		}
	}

	// Anything that may rewire links between devices or add/remove devices
	// invalidates the whole snapshot: fall back to a from-scratch compute.
	if kinds[ChangeTopology] {
		return ComputeWithOptions(n, s.opts)
	}

	d := &Snapshot{
		net:        n,
		adj:        s.adj,
		sessions:   s.sessions,
		opts:       s.opts,
		ospfRoutes: s.ospfRoutes,
		bgpRoutes:  s.bgpRoutes,
		owner:      s.owner,
		lsdb:       s.lsdb,
		flows:      newFlowCache(s.opts.Meter),
	}

	// carry stays true while d.adj and d.owner are the parent's.
	carry := true
	topo := kinds[ChangeL2] || kinds[ChangeL3Topology]
	if topo {
		groups := computeL2Groups(n)
		if !kinds[ChangeL3Topology] && groupsMatch(groups, s.adj) {
			// The entire L3-visible effect of an L2 change flows through
			// the adjacency relation (it is how the switching fabric feeds
			// OSPF adjacencies and BGP session reachability, and an L2
			// change can touch neither addresses nor protocol config).
			// Unchanged adjacency therefore proves every L3 structure of
			// the parent — LSDB, SPF results, sessions, routes, RIBs — is
			// still exact: keep them all shared and skip the protocol
			// re-checks outright. Comparing the factored component
			// partition avoids even materializing the peer lists.
			topo = false
		} else {
			carry = false
			d.adj = adjacencyFromGroups(groups)
			if kinds[ChangeL3Topology] {
				// An L2-only change cannot move addresses, so owner is
				// shared unless an L3-topology change is present.
				d.owner = buildOwner(n)
			}
		}
	}

	if topo || kinds[ChangeOSPF] {
		changedDevs := make(map[string]bool, len(changes))
		for _, c := range changes {
			changedDevs[c.Device] = true
		}
		var patched bool
		d.lsdb, patched = deriveLSDB(s.lsdb, s.net, n, s.adj, d.adj, topo, changedDevs)
		d.ospfRoutes = s.incrementalOSPF(d.lsdb, patched, ribDirty)
	}

	if topo || kinds[ChangeBGP] {
		// A topology change can only affect BGP by forming or tearing down
		// sessions, or by altering a changed device's own origination
		// (connected subnets under "redistribute connected"). If neither is
		// possible, the parent's sessions and routes stay valid as-is.
		newSessions := bgpSessions(n, d.adj)
		same := sessionsEqual(newSessions, s.sessions)
		if kinds[ChangeBGP] || !same || bgpConfigTouched(s.net, n, changes) {
			if same {
				d.sessions = s.sessions
			} else {
				d.sessions = newSessions
			}
			d.bgpRoutes = reconcileRoutes(s.bgpRoutes, computeBGPOver(n, newSessions), ribDirty)
		}
	}

	devs := make([]string, 0, len(ribDirty))
	for dev := range ribDirty {
		if n.Devices[dev] != nil {
			devs = append(devs, dev)
		}
	}
	if carry {
		// The parent's cache, not the parent: s.net may be mutated in place
		// under it (the commit pipeline derives onto the same network), and
		// holding s would chain every earlier version to this one.
		for _, c := range changes {
			ribDirty[c.Device] = true
		}
		d.parentFlows, d.stale = s.flows, ribDirty
	}
	if len(devs) == 0 {
		// No device's RIB inputs changed: share the maps outright.
		d.ribs = s.ribs
		d.fibs = s.fibs
		return d
	}
	sort.Strings(devs)
	d.ribs = make(map[string][]FIBEntry, len(s.ribs))
	d.fibs = make(map[string]*LPM, len(s.fibs))
	for dev, rib := range s.ribs {
		d.ribs[dev] = rib
	}
	for dev, fib := range s.fibs {
		d.fibs[dev] = fib
	}
	ribs, fibs := buildRIBs(n, devs, d.ospfRoutes, d.bgpRoutes)
	for dev, rib := range ribs {
		d.ribs[dev] = rib
	}
	for dev, fib := range fibs {
		d.fibs[dev] = fib
	}
	return d
}

// incrementalOSPF computes the OSPF route map for the new LSDB and marks
// every device whose route set differs in ribDirty. When nl is a patch of
// the receiver's LSDB (patched, see deriveLSDB), sources that
// nl.staleSources clears keep the receiver's route slices by identity and
// only the rest rerun SPF; after a structural fallback every source reruns.
// The result is DeepEqual to nl.routes() — including the nil-iff-no-routers
// convention.
func (s *Snapshot) incrementalOSPF(nl *ospfLSDB, patched bool, ribDirty map[string]bool) map[string][]FIBEntry {
	if len(nl.sources) == 0 {
		for dev := range s.ospfRoutes {
			ribDirty[dev] = true
		}
		return nil
	}
	var staleSet []bool
	if patched {
		if staleSet = nl.staleSources(s.lsdb); staleSet == nil {
			return s.ospfRoutes
		}
	}
	out := make(map[string][]FIBEntry, len(nl.sources))
	changed := false
	var stale []int
	for i, src := range nl.sources {
		if patched && !staleSet[i] {
			// No input of this source's SPF moved: share the parent's
			// slice by identity without recomputing.
			if r, ok := s.ospfRoutes[src]; ok {
				out[src] = r
			}
			continue
		}
		stale = append(stale, i)
	}
	slots := make([][]FIBEntry, len(stale))
	fanOut(len(stale), func(k int) {
		slots[k] = nl.routesFrom(stale[k])
	})
	for k, i := range stale {
		src := nl.sources[i]
		oldRoutes, had := s.ospfRoutes[src]
		if had && fibSlicesEqual(slots[k], oldRoutes) {
			// Recomputed to the same answer: keep the old slice so RIB
			// sharing (and identity-based tests) see no change.
			out[src] = oldRoutes
			continue
		}
		if len(slots[k]) > 0 {
			out[src] = slots[k]
		}
		if had || len(slots[k]) > 0 {
			ribDirty[src] = true
			changed = true
		}
	}
	// Devices that dropped out of the router set lose their OSPF routes.
	for dev := range s.ospfRoutes {
		if _, ok := nl.index[dev]; !ok {
			ribDirty[dev] = true
			changed = true
		}
	}
	if !changed && s.ospfRoutes != nil && len(out) == len(s.ospfRoutes) {
		// Nothing differed: share the whole map by identity.
		out = s.ospfRoutes
	}
	return out
}

// reconcileRoutes diffs a recomputed protocol route map against the old
// one: devices whose routes are content-equal get the old slice back (so
// downstream identity checks can share RIBs), devices that differ are
// marked dirty, and when nothing differed at all the old map itself is
// returned. Preserves the nil-vs-empty distinction of the compute
// functions exactly.
func reconcileRoutes(oldRoutes, newRoutes map[string][]FIBEntry, dirty map[string]bool) map[string][]FIBEntry {
	if newRoutes == nil {
		for dev := range oldRoutes {
			dirty[dev] = true
		}
		return nil
	}
	identical := oldRoutes != nil
	for dev, nr := range newRoutes {
		if or, ok := oldRoutes[dev]; ok && fibSlicesEqual(or, nr) {
			newRoutes[dev] = or
		} else {
			dirty[dev] = true
			identical = false
		}
	}
	for dev := range oldRoutes {
		if _, ok := newRoutes[dev]; !ok {
			dirty[dev] = true
			identical = false
		}
	}
	if identical {
		return oldRoutes
	}
	return newRoutes
}

// bgpConfigTouched reports whether any changed device runs BGP in the old
// or new network. Origination (configured networks plus redistributed
// connected subnets) is a function of a device's own config and
// interfaces, so with the session set unchanged and no changed device
// running BGP, the path-vector outcome cannot differ.
func bgpConfigTouched(oldNet, newNet *netmodel.Network, changes ChangeSet) bool {
	for _, c := range changes {
		if d := oldNet.Devices[c.Device]; d != nil && d.BGP != nil {
			return true
		}
		if d := newNet.Devices[c.Device]; d != nil && d.BGP != nil {
			return true
		}
	}
	return false
}

// sessionsEqual reports whether two session lists are element-wise equal
// (both are in canonical sorted order).
func sessionsEqual(a, b []bgpSession) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fibSlicesEqual reports element-wise equality of two route slices.
func fibSlicesEqual(a, b []FIBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
