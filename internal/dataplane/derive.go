package dataplane

import (
	"slices"
	"sync"

	"heimdall/internal/config"
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
	// stay valid; the LSDB is patched and only the sources whose SPF
	// result can differ get new route cells.
	ChangeOSPF
	// ChangeBGP covers BGP process edits (neighbors, networks, AS changes,
	// process removal). Sessions and routes rerun; adjacency and OSPF stay,
	// and only devices whose BGP routes differ get new route cells.
	ChangeBGP
	// ChangeL2 covers mutations confined to the switching fabric of the
	// changed device: VLAN definition edits, access-port VLAN moves, and
	// state changes of ports that are not L3 endpoints (no address, or
	// access/trunk mode — see netmodel.InterfaceL2Only). Such a change can
	// rewire L2 adjacency — and through it OSPF adjacencies and BGP session
	// reachability, which the derivation re-checks — but can never alter
	// address ownership, a host's address, connected routes, or static
	// resolution (an addressed access port on a host can become its address,
	// Network.HostAddr: the enforcer declares that L3-topology), so every
	// structure the re-checked inputs confirm unchanged is shared with the
	// parent by identity. A pure-L2 rewire (the common case: VLAN renames,
	// moves among L2-only segments) shares ALL routing state.
	ChangeL2
	// ChangeL3Topology covers interface-level changes on the changed
	// devices that can affect L3 state: shutdowns of addressed ports,
	// address edits, SVI changes. Adjacency and address ownership are
	// recomputed; the LSDB is patched (new route cells only for sources
	// whose reachable LSDB component changed), BGP reruns only when the
	// session set or a changed device's BGP process could differ, and only
	// devices whose route inputs can have changed get new route cells.
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

// ChangeSetFor classifies a configuration change set for derivation: the
// one classifier the enforcer's reviews and commits and the console's
// writes share. prod must still be in its pre-change state: the interface
// refinement reads what each change replaces.
func ChangeSetFor(prod *netmodel.Network, changes []config.Change) ChangeSet {
	cs := make(ChangeSet, 0, len(changes))
	for _, c := range changes {
		cs = append(cs, Change{Device: c.Device, Kind: changeKindFor(prod, c)})
	}
	return cs
}

// changeKindFor maps a configuration op onto the narrowest change class it
// can affect. VLAN ops only edit the switching fabric. Interface ops are
// L2-class when the change stays in the fabric (interfaceChangeL2Only), and
// L3-topology otherwise — every config op is confined to its named device,
// so the conservative full-recompute class is reserved for ops the switch
// doesn't recognize.
func changeKindFor(prod *netmodel.Network, c config.Change) ChangeKind {
	switch c.Op {
	case config.OpAddACLEntry, config.OpSetACLEntry, config.OpRemoveACLEntry, config.OpRemoveACL, config.OpAddACL:
		return ChangeACL
	case config.OpAddStaticRoute, config.OpRemoveStaticRoute, config.OpSetGateway:
		return ChangeStatic
	case config.OpSetOSPF, config.OpRemoveOSPF:
		return ChangeOSPF
	case config.OpSetBGP, config.OpRemoveBGP:
		return ChangeBGP
	case config.OpSetVLAN, config.OpRemoveVLAN:
		return ChangeL2
	case config.OpAddInterface, config.OpSetInterface:
		if interfaceChangeL2Only(prod, c) {
			return ChangeL2
		}
		return ChangeL3Topology
	default:
		return ChangeTopology
	}
}

// interfaceChangeL2Only reports whether an interface change stays in the
// switching fabric: the interface is L2-only after the change and was absent
// or L2-only before it (replacing an addressed routed port is an L3
// change), and on a host neither side has an address — Network.HostAddr
// reads access ports too, so an addressed one can become the host's address.
func interfaceChangeL2Only(prod *netmodel.Network, c config.Change) bool {
	d := prod.Devices[c.Device]
	if d == nil || !netmodel.InterfaceL2Only(c.Interface) {
		return false
	}
	old := d.Interface(c.Interface.Name)
	if d.Kind == netmodel.Host && (c.Interface.HasAddr() || old != nil && old.HasAddr()) {
		return false
	}
	return old == nil || netmodel.InterfaceL2Only(old)
}

// Derive builds a snapshot of n by reusing every part of the receiver that
// the change set provably cannot invalidate, recomputing only the rest.
// n must be the receiver's network modified ONLY as described by changes
// (typically a CloneCOW with the listed devices mutated, or the receiver's
// own network mutated in place); an undeclared change silently yields a
// wrong snapshot. The derived snapshot is byte-identical to
// ComputeWithOptions(n, s.opts) — the TestDeriveMatchesCompute oracle pins
// this for every change class.
//
// Route cells are shared with the parent for every device whose route
// inputs provably did not move, and new (unbuilt) for the rest: the devices
// a Static or L3-topology change names, the OSPF sources whose SPF result
// can differ, the devices whose BGP routes differ, and every router when
// the LSDB could not be patched. A new cell keeps the parent's OSPF routes
// unless its device is one of those sources or routers.
//
// The flow cache starts empty, but when the derivation keeps the parent's
// adjacency and addresses (every class but L3-topology, a real L2 rewire and
// the Topology fallback) the child shares the parent's hop index, whose
// positions each trace records, and remembers the parent's cache and, by
// position, the changed devices and the suspects (new cells on unchanged
// devices). Reach carries the parent's traces that cross none of them but
// unmoved suspects and ACL-only devices whose ACLs give the flow the same
// result (see Snapshot.Carries). A trace reads only its hop devices' config
// and FIB, the adjacency, address ownership and host addresses, and no
// address can change outside L3-topology, so such a trace read nothing that
// differs between the two. By the same argument a parent trace that does
// cross one is valid up to the first such hop, where ReachFrom resumes it.
//
// Reuse per class (see ChangeKind docs for the exactness argument):
//
//	ACL        → everything shared (adjacency, sessions, LSDB, BGP, cells)
//	Static     → shared except the changed devices' cells
//	OSPF       → adjacency, sessions, BGP shared; patched LSDB, new cells
//	             for the sources whose SPF can differ
//	BGP        → adjacency, LSDB shared; sessions+BGP rerun, new cells for
//	             route diffs
//	L2         → adjacency rebuilt; LSDB/BGP rechecked only if the
//	             adjacency changed, cells shared per source/device
//	L3Topology → adjacency rebuilt; patched LSDB, session-checked BGP, new
//	             cells for changed devices and route moves
//	Topology   → full ComputeWithOptions fallback
func (s *Snapshot) Derive(n *netmodel.Network, changes ChangeSet) *Snapshot {
	kinds := [changeKindCount]bool{}
	// fresh accumulates the devices whose connected, static or BGP routes
	// can have moved, and spf those whose OSPF routes can have. Static and
	// L3-topology changes can alter the changed device's connected and
	// static routes, so those are fresh up front; protocol route moves are
	// found (and marked) below.
	fresh, spf := make(map[string]bool), make(map[string]bool)
	for _, c := range changes {
		kinds[c.Kind] = true
		if c.Kind == ChangeStatic || c.Kind == ChangeL3Topology {
			fresh[c.Device] = true
		}
	}

	// Anything that may rewire links between devices or add/remove devices
	// invalidates the whole snapshot: fall back to a from-scratch compute.
	if kinds[ChangeTopology] {
		return ComputeWithOptions(n, s.opts)
	}

	d := &Snapshot{
		net:       n,
		adj:       s.adj,
		sessions:  s.sessions,
		opts:      s.opts,
		lsdb:      s.lsdb,
		bgpRoutes: s.bgpRoutes,
		names:     s.names,
		cells:     s.cells,
		built:     s.built,
		flows:     s.flows.child(),
		hops:      s.hops,
	}

	// carry stays true while d.adj is the parent's and no address moved,
	// which is when d shares the parent's hop index.
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
			// the parent — LSDB, sessions, routes, cells — is still exact:
			// keep them all shared and skip the protocol re-checks
			// outright. Comparing the factored component partition avoids
			// even materializing the peer lists.
			topo = false
		} else {
			carry = false
			d.adj, d.hops = adjacencyFromGroups(groups), new(hopIndex)
		}
	}

	if topo || kinds[ChangeOSPF] {
		changedDevs := make(map[string]bool, len(changes))
		for _, c := range changes {
			changedDevs[c.Device] = true
		}
		var patched bool
		d.lsdb, patched = deriveLSDB(s.lsdb, s.net, n, s.adj, d.adj, topo, changedDevs)
		ospfMoved(s.lsdb, d.lsdb, patched, spf)
	}

	if topo || kinds[ChangeBGP] {
		// A topology change can only affect BGP by forming or tearing down
		// sessions, or by altering a changed device's own origination
		// (connected subnets under "redistribute connected"). If neither is
		// possible, the parent's sessions and routes stay valid as-is.
		newSessions := bgpSessions(n, d.adj)
		same := slices.Equal(newSessions, s.sessions)
		if kinds[ChangeBGP] || !same || bgpConfigTouched(s.net, n, changes) {
			if !same {
				d.sessions = newSessions
			}
			d.bgpRoutes = computeBGPOver(n, newSessions)
			bgpMoved(s.bgpRoutes, d.bgpRoutes, fresh)
		}
	}

	if carry {
		// The parent's cache, not the parent: s.net may be mutated in place
		// under it (the commit pipeline derives onto the same network), and
		// holding s would chain every earlier version to this one.
		d.parentFlows = s.flows
		for _, c := range changes {
			list := &d.aclStale
			if c.Kind != ChangeACL {
				list = &d.stale
			}
			if i, ok := slices.BinarySearch(d.names, c.Device); ok && !slices.Contains(*list, uint16(i)) {
				*list, d.moved = append(*list, uint16(i)), d.moved|1<<(i&63)
				if dev := n.Devices[c.Device]; c.Kind == ChangeACL && dev != nil {
					d.bound = appendBindings(d.bound, uint16(i), dev)
				}
			}
		}
	}
	// Every device in either set gets a new cell and, with carry, is a suspect
	// unless stale (ACL-only stays one: replay assumes unmoved routes).
	if len(fresh)+len(spf) > 0 {
		d.cells = slices.Clone(s.cells)
		if carry {
			d.suspects = make([]suspect, 0, len(fresh)+len(spf))
		}
		for i, name := range d.names {
			switch {
			case spf[name]:
				d.cells[i] = &routeCell{ospf: new(ospfCell)}
			case fresh[name]:
				d.cells[i] = &routeCell{ospf: s.cells[i].ospf}
			default:
				continue
			}
			if carry && !slices.Contains(d.stale, uint16(i)) {
				d.suspects = append(d.suspects, suspect{pos: uint16(i), cell: s.cells[i], lsdb: s.lsdb, bgp: s.bgpRoutes})
				d.moved |= 1 << (i & 63)
			}
		}
	}
	return d
}

// suspect is a device Derive gave a new route cell although its routing
// config did not change: its OSPF or BGP routes may have moved. Whether its
// RIB did is decided once, at the first trace across it that Carries tests,
// by building the parent's cell too — from the parent's LSDB and BGP routes
// over the child's network, whose copy of the device routes as the parent's.
type suspect struct {
	once  sync.Once
	stale bool
	pos   uint16
	cell  *routeCell
	lsdb  *ospfLSDB
	bgp   map[string]routeRows
}

// moved reports whether the suspect's RIB in s differs from its parent's.
func (sp *suspect) moved(s *Snapshot) bool {
	sp.once.Do(func() {
		parent := sp.cell
		parent.once.Do(func() { parent.fill(s.net, sp.lsdb, sp.bgp, s.names[sp.pos], s.built) })
		sp.stale = !sameRoutes(s.cell(int(sp.pos)).rib, parent.rib)
		sp.cell, sp.lsdb, sp.bgp = nil, nil, nil
	})
	return sp.stale
}

// ospfMoved marks in spf every router whose OSPF routes can differ between
// old and nl: the sources nl.staleSources marks when nl is a patch of old
// (see deriveLSDB), else every router of either.
func ospfMoved(old, nl *ospfLSDB, patched bool, spf map[string]bool) {
	if !patched {
		for _, src := range old.sources {
			spf[src] = true
		}
		for _, src := range nl.sources {
			spf[src] = true
		}
		return
	}
	for i, stale := range nl.staleSources(old) {
		if stale {
			spf[nl.sources[i]] = true
		}
	}
}

// bgpMoved marks in fresh every device whose BGP routes differ between the
// two route maps.
func bgpMoved(old, now map[string]routeRows, fresh map[string]bool) {
	for _, m := range []map[string]routeRows{old, now} {
		for dev := range m {
			if !sameRoutes(old[dev], now[dev]) {
				fresh[dev] = true
			}
		}
	}
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
