package twin

import (
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

// SliceStrategy selects how the presentation slice is computed; the
// evaluation compares Heimdall's task-driven strategy against the two
// strawman extremes of Figure 5.
type SliceStrategy int

const (
	// SliceAll exposes every device (Figure 5b: clone everything).
	SliceAll SliceStrategy = iota
	// SliceNeighbors exposes the affected endpoints and their direct
	// topological neighbours (Figure 5c).
	SliceNeighbors
	// SliceTaskDriven is Heimdall's strategy: every device that can carry
	// the affected traffic, plus dependency closure (Figure 5d).
	SliceTaskDriven
)

// ComputeSlice returns the device set a strategy exposes for a ticket
// affecting traffic between srcHost and dstHost. suspects are always
// included (the admin named them in the ticket).
//
// The task-driven slice is the union of:
//   - all devices on any near-shortest topological path between the
//     endpoints (slack 1 covers backup paths the control plane may fail
//     over to);
//   - the devices on the *current* forwarding paths in both directions
//     (which, under a misconfiguration, may deviate from topology);
//   - L2 dependency closure: switches whose VLAN fabric carries either
//     endpoint's subnet;
//   - the named suspects.
func ComputeSlice(n *netmodel.Network, snap *dataplane.Snapshot, strategy SliceStrategy,
	srcHost, dstHost string, suspects []string) map[string]bool {

	out := make(map[string]bool)
	switch strategy {
	case SliceAll:
		for _, name := range n.DeviceNames() {
			out[name] = true
		}
		return out

	case SliceNeighbors:
		for _, ep := range []string{srcHost, dstHost} {
			if n.Devices[ep] == nil {
				continue
			}
			out[ep] = true
			for _, nb := range n.Neighbors(ep) {
				out[nb] = true
			}
		}

	case SliceTaskDriven:
		for dev := range n.PathsBetween(srcHost, dstHost, 1) {
			out[dev] = true
		}
		// Current forwarding paths (both directions) under the fault.
		if snap != nil {
			for _, pair := range [][2]string{{srcHost, dstHost}, {dstHost, srcHost}} {
				tr, err := snap.Reach(pair[0], pair[1], netmodel.ICMP, 0)
				if err == nil {
					for _, hop := range tr.Hops {
						out[hop.Device] = true
					}
				}
			}
		}
		// L2 closure: switches adjacent (in the fabric sense) to any
		// endpoint interface of an already-included host.
		for _, host := range []string{srcHost, dstHost} {
			d := n.Devices[host]
			if d == nil {
				continue
			}
			for _, ifName := range d.InterfaceNames() {
				ep := netmodel.Endpoint{Device: host, Interface: ifName}
				if snap != nil {
					for _, adj := range snap.Adjacent(ep) {
						if sw := n.Devices[adj.Device]; sw != nil && sw.Kind == netmodel.Switch {
							out[adj.Device] = true
						}
					}
				}
				// Directly cabled switches participate even when the
				// misconfiguration has severed L3 adjacency.
				if link := n.LinkAt(host, ifName); link != nil {
					if other, ok := link.Other(host); ok {
						if sw := n.Devices[other.Device]; sw != nil && sw.Kind == netmodel.Switch {
							out[other.Device] = true
							// ...and the switches its fabric extends into.
							for _, peer := range n.Neighbors(other.Device) {
								if p := n.Devices[peer]; p != nil && p.Kind == netmodel.Switch {
									out[peer] = true
								}
							}
						}
					}
				}
			}
		}
	}

	for _, s := range suspects {
		if n.Devices[s] != nil {
			out[s] = true
		}
	}
	for _, ep := range []string{srcHost, dstHost} {
		if n.Devices[ep] != nil {
			out[ep] = true
		}
	}
	return out
}
