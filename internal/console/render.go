package console

import (
	"fmt"
	"strings"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

func renderInterfaces(d *netmodel.Device, name string) (string, error) {
	var names []string
	if name != "" {
		if d.Interface(name) == nil {
			return "", fmt.Errorf("console: %s: no interface %s", d.Name, name)
		}
		names = []string{name}
	} else {
		names = d.InterfaceNames()
	}
	var b strings.Builder
	for _, n := range names {
		itf := d.Interfaces[n]
		status := "up"
		if itf.Shutdown {
			status = "administratively down"
		}
		fmt.Fprintf(&b, "%s is %s\n", n, status)
		if itf.HasAddr() {
			fmt.Fprintf(&b, "  Internet address is %s\n", itf.Addr)
		}
		if itf.Description != "" {
			fmt.Fprintf(&b, "  Description: %s\n", itf.Description)
		}
		switch itf.Mode {
		case netmodel.Access:
			fmt.Fprintf(&b, "  Switchport: access vlan %d\n", itf.AccessVLAN)
		case netmodel.Trunk:
			fmt.Fprintf(&b, "  Switchport: trunk %v\n", itf.TrunkVLANs)
		}
		if itf.ACLIn != "" {
			fmt.Fprintf(&b, "  Inbound access list is %s\n", itf.ACLIn)
		}
		if itf.ACLOut != "" {
			fmt.Fprintf(&b, "  Outbound access list is %s\n", itf.ACLOut)
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

func renderACLs(d *netmodel.Device, name string) (string, error) {
	var names []string
	if name != "" {
		if d.ACL(name, false) == nil {
			return "", fmt.Errorf("console: %s: no access list %s", d.Name, name)
		}
		names = []string{name}
	} else {
		names = d.ACLNames()
	}
	var b []byte
	for _, n := range names {
		a := d.ACLs[n]
		b = append(append(b, "Extended IP access list "...), a.Name...)
		for i := range a.Entries {
			b = config.AppendACLEntry(append(b, "\n    "...), &a.Entries[i])
		}
		b = append(b, '\n')
	}
	if len(b) == 0 {
		return "% no access lists configured", nil
	}
	return strings.TrimRight(string(b), "\n"), nil
}

func renderVLANs(d *netmodel.Device) string {
	ids := d.VLANIDs()
	if len(ids) == 0 {
		return "% no vlans configured"
	}
	var b strings.Builder
	b.WriteString("VLAN Name\n---- ----\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "%-4d %s\n", id, d.VLANs[id].Name)
	}
	return strings.TrimRight(b.String(), "\n")
}

// renderOSPFNeighbors lists routers this device would form OSPF
// adjacencies with, derived from the snapshot's adjacency and route state.
func renderOSPFNeighbors(env *Env, dev string) string {
	d := env.Net.Devices[dev]
	if d.OSPF == nil {
		return "% OSPF not configured"
	}
	snap := env.Snapshot()
	var b strings.Builder
	seen := map[string]bool{}
	for _, ifName := range d.InterfaceNames() {
		itf := d.Interfaces[ifName]
		if !itf.Up() || !itf.HasAddr() {
			continue
		}
		if _, enabled := d.OSPF.EnabledArea(itf.Addr.Addr()); !enabled || d.OSPF.Passive[ifName] {
			continue
		}
		for _, peer := range snap.Adjacent(netmodel.Endpoint{Device: dev, Interface: ifName}) {
			pd := env.Net.Devices[peer.Device]
			if pd == nil || pd.OSPF == nil || seen[peer.Device] {
				continue
			}
			pi := pd.Interface(peer.Interface)
			if pi == nil || !itf.Addr.Masked().Contains(pi.Addr.Addr()) {
				continue
			}
			if _, enabled := pd.OSPF.EnabledArea(pi.Addr.Addr()); !enabled || pd.OSPF.Passive[peer.Interface] {
				continue
			}
			seen[peer.Device] = true
			fmt.Fprintf(&b, "%-12s FULL  %s  %s\n", peer.Device, pi.Addr.Addr(), ifName)
		}
	}
	if b.Len() == 0 {
		return "% no OSPF neighbors"
	}
	return strings.TrimRight(b.String(), "\n")
}

// NewEnv builds a command environment around a network whose devices its
// writes replace, with a lazily recomputed snapshot. The post-write
// snapshot derives from the previous one (dataplane.Derive) instead of
// recomputing from scratch — what keeps the mediated-command tail flat when
// a diagnosis script alternates writes with snapshot-hungry reads.
// Derivation is only sound for writes that go through this environment, so
// an environment is for one network that nothing else writes while it
// lives: a twin's copy, a shadow, or a view of production (Enforcer.View).
func NewEnv(n *netmodel.Network) *Env { return NewEnvSeeded(n, nil) }

// NewEnvSeeded is NewEnv with the first snapshot derived instead of
// computed: from is a snapshot of a network the dataplane cannot tell from
// n as it is now (production's, for its sanitized twin copy or a shadow
// about to be written), or nil to compute on first use. A snapshot of n
// itself (a view's: Enforcer.View) is taken over as it is.
func NewEnvSeeded(n *netmodel.Network, from *dataplane.Snapshot) *Env {
	env := &Env{Net: n, snap: from}
	if from != nil && from.Network() != n {
		env.snap = from.Derive(n, nil)
	}
	return env
}

// Snapshot returns the dataplane snapshot of the environment's network:
// the one held, derived across the writes since, or computed when none is.
func (e *Env) Snapshot() *dataplane.Snapshot {
	if e.snap != nil && len(e.pending) > 0 { // Derive keeps no change set
		e.snap, e.pending = e.snap.Derive(e.Net, e.pending), e.pending[:0]
	}
	if e.snap == nil {
		e.snap = dataplane.Compute(e.Net)
	}
	return e.snap
}

// EnableIncremental is a no-op: derivation is how NewEnv works. It stays
// because benchmark/, which this repository's PRs may not edit, calls it.
func (e *Env) EnableIncremental() {}
