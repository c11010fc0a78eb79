package dataplane

import (
	"sort"

	"heimdall/internal/netmodel"
)

// l2node identifies a VLAN broadcast domain on one switch.
type l2node struct {
	sw   string
	vlan int
}

// adjacency maps every L3 endpoint to the set of L3 endpoints it can reach
// directly at L2 (same cable or same switched broadcast domain).
type adjacency map[netmodel.Endpoint][]netmodel.Endpoint

// l3Endpoint reports whether the interface is an L3 endpoint that can
// source or sink routed traffic: up, addressed, and either a routed port or
// an SVI.
func l3Endpoint(itf *netmodel.Interface) bool {
	return itf.Up() && itf.HasAddr() && (itf.Mode == netmodel.Routed || itf.IsSVI())
}

// disjointSet is a union-find over dense integer ids (path halving).
type disjointSet []int

// add creates a singleton set and returns its id.
func (s *disjointSet) add() int {
	id := len(*s)
	*s = append(*s, id)
	return id
}

func (s disjointSet) find(x int) int {
	for s[x] != x {
		s[x] = s[s[x]]
		x = s[x]
	}
	return x
}

func (s disjointSet) union(a, b int) {
	if ra, rb := s.find(a), s.find(b); ra != rb {
		s[ra] = rb
	}
}

// l2Space is an integer-indexed disjoint-set over the L2 graph's nodes:
// L3 endpoints and per-switch VLAN domains. Comparable struct keys map to
// dense ids, so the union-find itself is one flat slice — this sits on
// the derivation hot path (every topology-class trial recomputes
// adjacency), where the previous string-keyed structure spent its time
// concatenating keys.
type l2Space struct {
	eps map[netmodel.Endpoint]int
	vls map[l2node]int
	disjointSet
}

func newL2Space() *l2Space {
	return &l2Space{eps: make(map[netmodel.Endpoint]int), vls: make(map[l2node]int)}
}

// ep returns the endpoint's node id, creating it on first use.
func (s *l2Space) ep(e netmodel.Endpoint) int {
	if id, ok := s.eps[e]; ok {
		return id
	}
	id := s.add()
	s.eps[e] = id
	return id
}

// vl returns the VLAN domain's node id, creating it on first use.
func (s *l2Space) vl(v l2node) int {
	if id, ok := s.vls[v]; ok {
		return id
	}
	id := s.add()
	s.vls[v] = id
	return id
}

// computeAdjacency derives the L2 adjacency between all L3 endpoints of the
// network. Two endpoints are adjacent when a frame can travel between them
// without crossing an L3 hop: either they share a cable, or a path of
// switch broadcast domains connects them.
func computeAdjacency(n *netmodel.Network) adjacency {
	return adjacencyFromGroups(computeL2Groups(n))
}

// computeL2Groups partitions the network's L3 endpoints into L2 broadcast
// components and returns each component's sorted member list. The partition
// is the whole adjacency relation in factored form: Derive compares it
// against a parent snapshot without paying for the per-endpoint peer
// slices, and adjacencyFromGroups expands it when the relation did change.
func computeL2Groups(n *netmodel.Network) [][]netmodel.Endpoint {
	uf := newL2Space()

	// Switch fabric: ports of the same VLAN on one switch share a domain
	// implicitly via the vl node; inter-switch links join domains.
	for _, l := range n.Links {
		a, b := l.A, l.B
		da, db := n.Devices[a.Device], n.Devices[b.Device]
		if da == nil || db == nil {
			continue
		}
		ia, ib := da.Interface(a.Interface), db.Interface(b.Interface)
		if ia == nil || ib == nil || !ia.Up() || !ib.Up() {
			continue
		}
		switch {
		case isSwitchPort(da, ia) && isSwitchPort(db, ib):
			joinSwitchLink(uf, a.Device, ia, b.Device, ib)
		case isSwitchPort(da, ia) && l3Endpoint(ib) && ib.Mode == netmodel.Routed:
			attachToSwitch(uf, uf.ep(b), a.Device, ia)
		case isSwitchPort(db, ib) && l3Endpoint(ia) && ia.Mode == netmodel.Routed:
			attachToSwitch(uf, uf.ep(a), b.Device, ib)
		case l3Endpoint(ia) && l3Endpoint(ib):
			uf.union(uf.ep(a), uf.ep(b))
		}
	}

	// SVIs attach to their own switch's VLAN domain.
	var endpoints []netmodel.Endpoint
	for _, devName := range n.DeviceNames() {
		d := n.Devices[devName]
		for _, ifName := range d.InterfaceNames() {
			itf := d.Interfaces[ifName]
			if !l3Endpoint(itf) {
				continue
			}
			ep := netmodel.Endpoint{Device: devName, Interface: ifName}
			endpoints = append(endpoints, ep)
			id := uf.ep(ep) // ensure the node exists even if isolated
			if itf.IsSVI() && d.Kind == netmodel.Switch {
				uf.union(id, uf.vl(l2node{sw: devName, vlan: itf.SVIVLAN()}))
			}
		}
	}

	// Group endpoints by component, each group sorted by (device, interface).
	byRoot := make(map[int][]netmodel.Endpoint)
	for _, ep := range endpoints {
		root := uf.find(uf.eps[ep])
		byRoot[root] = append(byRoot[root], ep)
	}
	groups := make([][]netmodel.Endpoint, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool {
			if members[i].Device != members[j].Device {
				return members[i].Device < members[j].Device
			}
			return members[i].Interface < members[j].Interface
		})
		groups = append(groups, members)
	}
	return groups
}

// adjacencyFromGroups expands the component partition into the per-endpoint
// peer-list form the rest of the pipeline consumes. Peer lists inherit each
// group's sorted order; isolated endpoints get a non-nil empty slice.
func adjacencyFromGroups(groups [][]netmodel.Endpoint) adjacency {
	total := 0
	for _, members := range groups {
		total += len(members)
	}
	adj := make(adjacency, total)
	for _, members := range groups {
		for i, ep := range members {
			peers := make([]netmodel.Endpoint, 0, len(members)-1)
			peers = append(peers, members[:i]...)
			peers = append(peers, members[i+1:]...)
			adj[ep] = peers
		}
	}
	return adj
}

// groupsMatch reports whether the partition induces exactly the adjacency
// relation old. Exact, not conservative: both sides are canonical — group
// members and old peer lists are sorted — so the first member of each group
// pins its whole component. If every group G satisfies
// old[G[0]] == G[1:] and the endpoint totals agree, the two partitions are
// identical (each group is then an old component, and equal totals rule out
// old components that no group covers).
func groupsMatch(groups [][]netmodel.Endpoint, old adjacency) bool {
	total := 0
	for _, members := range groups {
		total += len(members)
	}
	if total != len(old) {
		return false
	}
	for _, members := range groups {
		peers, ok := old[members[0]]
		if !ok || len(peers) != len(members)-1 {
			return false
		}
		for i, p := range peers {
			if p != members[i+1] {
				return false
			}
		}
	}
	return true
}

// isSwitchPort reports whether the interface is an L2 port on a switch.
func isSwitchPort(d *netmodel.Device, itf *netmodel.Interface) bool {
	return d.Kind == netmodel.Switch && !itf.IsSVI() &&
		(itf.Mode == netmodel.Access || itf.Mode == netmodel.Trunk)
}

// joinSwitchLink connects the VLAN domains bridged by a switch-to-switch
// cable. Access-to-access bridges the two (possibly different!) access
// VLANs — faithfully reproducing the classic VLAN-mismatch misconfiguration.
// Trunks bridge every VLAN allowed on both sides; an access-to-trunk link
// bridges the access VLAN when the trunk allows it.
func joinSwitchLink(uf *l2Space, swA string, ia *netmodel.Interface, swB string, ib *netmodel.Interface) {
	switch {
	case ia.Mode == netmodel.Access && ib.Mode == netmodel.Access:
		uf.union(uf.vl(l2node{swA, ia.AccessVLAN}), uf.vl(l2node{swB, ib.AccessVLAN}))
	case ia.Mode == netmodel.Trunk && ib.Mode == netmodel.Trunk:
		for _, v := range ia.TrunkVLANs {
			if ib.CarriesVLAN(v) {
				uf.union(uf.vl(l2node{swA, v}), uf.vl(l2node{swB, v}))
			}
		}
	case ia.Mode == netmodel.Access && ib.Mode == netmodel.Trunk:
		if ib.CarriesVLAN(ia.AccessVLAN) {
			uf.union(uf.vl(l2node{swA, ia.AccessVLAN}), uf.vl(l2node{swB, ia.AccessVLAN}))
		}
	case ia.Mode == netmodel.Trunk && ib.Mode == netmodel.Access:
		if ia.CarriesVLAN(ib.AccessVLAN) {
			uf.union(uf.vl(l2node{swA, ib.AccessVLAN}), uf.vl(l2node{swB, ib.AccessVLAN}))
		}
	}
}

// attachToSwitch joins an L3 endpoint to the VLAN domain behind a switch
// port. Only access ports attach routed neighbours (router-on-a-trunk
// subinterfaces are out of scope).
func attachToSwitch(uf *l2Space, epNode int, sw string, port *netmodel.Interface) {
	if port.Mode == netmodel.Access {
		uf.union(epNode, uf.vl(l2node{sw, port.AccessVLAN}))
	}
}
