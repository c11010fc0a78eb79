package dataplane

import (
	"net/netip"
	"sort"

	"heimdall/internal/netmodel"
)

// eBGP simulation. Sessions form between directly connected routers whose
// neighbor statements agree (each side names the other's interface address
// and the AS number the other actually runs). Routes propagate path-vector
// style: a router originates its configured networks (plus connected
// subnets under "redistribute connected"), neighbors install them with the
// eBGP administrative distance (20), and re-advertise with their own AS
// prepended. Loop prevention is the standard AS-path check. Best path is
// the shortest AS-path, tie-broken by lowest next-hop address.

const ebgpAdminDistance = 20

// bgpSession is one established peering.
type bgpSession struct {
	a, b     string // device names
	aAddr    netip.Addr
	bAddr    netip.Addr
	aOutIf   string
	bOutIf   string
	aLocalAS int
	bLocalAS int
}

// bgpSessions computes the established eBGP sessions. A session requires:
// both devices run BGP; A has a neighbor entry for B's address with B's
// actual AS (and vice versa); the peering interfaces are L2-adjacent and
// share a subnet.
func bgpSessions(n *netmodel.Network, adj adjacency) []bgpSession {
	var out []bgpSession
	for _, aName := range n.DeviceNames() {
		a := n.Devices[aName]
		if a.BGP == nil {
			continue
		}
		for _, ifName := range a.InterfaceNames() {
			itf := a.Interfaces[ifName]
			if !l3Endpoint(itf) {
				continue
			}
			ep := netmodel.Endpoint{Device: aName, Interface: ifName}
			for _, peer := range adj[ep] {
				b := n.Devices[peer.Device]
				if b == nil || b.BGP == nil || peer.Device <= aName {
					continue // visit each unordered pair once
				}
				pItf := b.Interface(peer.Interface)
				if pItf == nil || !itf.Addr.Masked().Contains(pItf.Addr.Addr()) {
					continue
				}
				abNeighbor := a.BGP.Neighbor(pItf.Addr.Addr())
				baNeighbor := b.BGP.Neighbor(itf.Addr.Addr())
				if abNeighbor == nil || baNeighbor == nil {
					continue
				}
				// AS expectations must match reality on both sides.
				if abNeighbor.RemoteAS != b.BGP.LocalAS || baNeighbor.RemoteAS != a.BGP.LocalAS {
					continue
				}
				// iBGP (same AS) is out of scope.
				if a.BGP.LocalAS == b.BGP.LocalAS {
					continue
				}
				out = append(out, bgpSession{
					a: aName, b: peer.Device,
					aAddr: itf.Addr.Addr(), bAddr: pItf.Addr.Addr(),
					aOutIf: ifName, bOutIf: peer.Interface,
					aLocalAS: a.BGP.LocalAS, bLocalAS: b.BGP.LocalAS,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// bgpRoute is one path-vector entry held by a router.
type bgpRoute struct {
	prefix  netip.Prefix
	asPath  []int
	nextHop netip.Addr // invalid for locally originated
	outIf   string
}

// computeBGP runs the path-vector propagation to a fixpoint and returns
// per-device FIB entries for learned (non-local) routes.
func computeBGP(n *netmodel.Network, adj adjacency) map[string][]FIBEntry {
	return computeBGPOver(n, bgpSessions(n, adj))
}

// computeBGPOver is computeBGP given an already-computed session list
// (Derive computes the sessions first to decide whether a rerun is needed
// at all).
func computeBGPOver(n *netmodel.Network, sessions []bgpSession) map[string][]FIBEntry {
	if len(sessions) == 0 {
		return nil
	}

	// Locally originated prefixes.
	best := make(map[string]map[netip.Prefix]bgpRoute)
	origin := func(dev string, p netip.Prefix) {
		if best[dev] == nil {
			best[dev] = make(map[netip.Prefix]bgpRoute)
		}
		best[dev][p] = bgpRoute{prefix: p}
	}
	for _, devName := range n.DeviceNames() {
		d := n.Devices[devName]
		if d.BGP == nil {
			continue
		}
		for _, p := range d.BGP.Networks {
			origin(devName, p.Masked())
		}
		if d.BGP.RedistributeConnected {
			for _, ifName := range d.InterfaceNames() {
				if itf := d.Interfaces[ifName]; l3Endpoint(itf) {
					origin(devName, itf.Addr.Masked())
				}
			}
		}
	}

	// Iterate advertisements until no router changes its best paths.
	// Bounded by the session count (longest possible AS path).
	for iter := 0; iter <= len(sessions)+1; iter++ {
		changed := false
		for _, s := range sessions {
			// Advertise in both directions.
			dirs := []struct {
				from, to   string
				toNextHop  netip.Addr
				toOutIf    string
				senderAS   int
				receiverAS int
			}{
				{s.a, s.b, s.aAddr, s.bOutIf, s.aLocalAS, s.bLocalAS},
				{s.b, s.a, s.bAddr, s.aOutIf, s.bLocalAS, s.aLocalAS},
			}
			for _, d := range dirs {
				for p, r := range best[d.from] {
					// AS-path loop prevention.
					if containsAS(r.asPath, d.receiverAS) {
						continue
					}
					candidate := bgpRoute{
						prefix:  p,
						asPath:  append([]int{d.senderAS}, r.asPath...),
						nextHop: d.toNextHop,
						outIf:   d.toOutIf,
					}
					if best[d.to] == nil {
						best[d.to] = make(map[netip.Prefix]bgpRoute)
					}
					cur, ok := best[d.to][p]
					if !ok || betterBGP(candidate, cur) {
						best[d.to][p] = candidate
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Emit per-device routes in sorted prefix order: one best route exists
	// per (device, prefix), so prefix order fully determines the slice.
	// Determinism here is what lets a derived snapshot reproduce a
	// from-scratch compute byte for byte.
	out := make(map[string][]FIBEntry)
	for dev, routes := range best {
		entries := make([]FIBEntry, 0, len(routes))
		for p, r := range routes {
			if !r.nextHop.IsValid() {
				continue // locally originated; covered by IGP/connected
			}
			entries = append(entries, FIBEntry{
				Prefix: p, Proto: BGP, NextHop: r.nextHop, OutIf: r.outIf,
				AD: ebgpAdminDistance, Metric: len(r.asPath),
			})
		}
		if len(entries) == 0 {
			continue
		}
		sort.Slice(entries, func(i, j int) bool {
			return prefixString(entries[i].Prefix) < prefixString(entries[j].Prefix)
		})
		out[dev] = entries
	}
	return out
}

// betterBGP reports whether a should replace b as the best path:
// locally originated always wins, then shortest AS path, then lowest
// next hop for determinism.
func betterBGP(a, b bgpRoute) bool {
	if !b.nextHop.IsValid() {
		return false // local origination is never displaced
	}
	if !a.nextHop.IsValid() {
		return true
	}
	if len(a.asPath) != len(b.asPath) {
		return len(a.asPath) < len(b.asPath)
	}
	return a.nextHop.Less(b.nextHop)
}

func containsAS(path []int, as int) bool {
	for _, p := range path {
		if p == as {
			return true
		}
	}
	return false
}
