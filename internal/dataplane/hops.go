package dataplane

import (
	"net/netip"
	"slices"
	"sync"

	"heimdall/internal/netmodel"
)

// hopIndex numbers what a trace walks, so a hop costs integer and address
// compares instead of string hashes: device positions (sorted names), the
// owning position of every L3 endpoint address and each L3 endpoint's ARP
// list. A device's position also indexes the snapshot's route cells and is
// what a trace records per hop and the carry test reads (Snapshot.Carries);
// it is a uint16 to keep a trace small, so a network has at most 65,536.
//
// One index serves an adjacency generation: the snapshots Derive produces
// from one another while they keep the parent's adjacency and move no
// address (Derive's carry), so nothing it holds differs between them. It is
// built at the first trace of any of them and never holds a *Device: a
// rollback swaps device pointers under a held snapshot.
type hopIndex struct {
	once  sync.Once
	names []string
	owner map[netip.Addr]uint16
	ports [][]hopPort
}

// hopPort is one L3 endpoint: its interface and the adjacent endpoints with
// their addresses, in adjacency order.
type hopPort struct {
	itf string
	arp []arpEntry
}

type arpEntry struct {
	addr netip.Addr
	dev  uint16
	itf  string
}

func (h *hopIndex) build(names []string, n *netmodel.Network, adj adjacency) {
	h.names = names
	// One backing array each for the ports and their ARP lists (a list that
	// outgrows it moves to a new one; the lists sliced before stay valid).
	ports, arp := make([]hopPort, 0, len(adj)), make([]arpEntry, 0, len(adj))
	h.owner = make(map[netip.Addr]uint16, len(adj))
	h.ports = make([][]hopPort, len(h.names))
	for i, name := range h.names {
		d, first := n.Devices[name], len(ports)
		for _, ifName := range d.InterfaceNames() {
			if itf := d.Interfaces[ifName]; l3Endpoint(itf) {
				h.owner[itf.Addr.Addr()] = uint16(i)
				a0 := len(arp)
				for _, peer := range adj[netmodel.Endpoint{Device: name, Interface: ifName}] {
					if pd := n.Devices[peer.Device]; pd != nil {
						if pi := pd.Interface(peer.Interface); pi != nil && pi.HasAddr() {
							p, _ := slices.BinarySearch(h.names, peer.Device)
							arp = append(arp, arpEntry{pi.Addr.Addr(), uint16(p), peer.Interface})
						}
					}
				}
				ports = append(ports, hopPort{ifName, arp[a0:len(arp):len(arp)]})
			}
		}
		h.ports[i] = ports[first:len(ports):len(ports)]
	}
}

// resolve is the ARP step: the endpoint adjacent to the device's egress
// interface that owns addr.
func (h *hopIndex) resolve(dev uint16, out string, addr netip.Addr) (arpEntry, bool) {
	for _, p := range h.ports[dev] {
		if p.itf == out {
			for _, a := range p.arp {
				if a.addr == addr {
					return a, true
				}
			}
		}
	}
	return arpEntry{}, false
}

// positions returns the generation's hop index, building it at first use.
// Its positions are the snapshot's device positions: a generation never
// changes the device set.
func (s *Snapshot) positions() *hopIndex {
	h := s.hops
	h.once.Do(func() { h.build(s.names, s.net, s.adj) })
	return h
}
