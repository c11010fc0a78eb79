package config

import (
	"cmp"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"heimdall/internal/netmodel"
)

// Op identifies the kind of a semantic configuration change.
type Op int

const (
	// OpAddInterface creates a new interface with the given state.
	OpAddInterface Op = iota
	// OpSetInterface replaces the state of an existing interface.
	OpSetInterface
	// OpAddACLEntry inserts one ACL entry (creating the ACL if needed).
	OpAddACLEntry
	// OpRemoveACLEntry deletes one ACL entry by sequence number.
	OpRemoveACLEntry
	// OpRemoveACL deletes a whole ACL.
	OpRemoveACL
	// OpAddStaticRoute installs a static route.
	OpAddStaticRoute
	// OpRemoveStaticRoute withdraws a static route.
	OpRemoveStaticRoute
	// OpSetOSPF replaces the device's OSPF process configuration.
	OpSetOSPF
	// OpRemoveOSPF deletes the OSPF process.
	OpRemoveOSPF
	// OpSetVLAN creates or renames a VLAN.
	OpSetVLAN
	// OpRemoveVLAN deletes a VLAN definition.
	OpRemoveVLAN
	// OpSetGateway changes the device's default gateway.
	OpSetGateway
	// OpSetBGP replaces the device's BGP process configuration.
	OpSetBGP
	// OpRemoveBGP deletes the BGP process.
	OpRemoveBGP
	// OpSetACLEntry replaces the contents of one existing ACL entry, keyed
	// by its sequence number.
	OpSetACLEntry
	// OpAddACL creates an ACL with no entries, which denies every flow it
	// is bound to (an undefined ACL denies none).
	OpAddACL
)

var opNames = map[Op]string{
	OpAddInterface: "add-interface", OpSetInterface: "set-interface",
	OpAddACLEntry: "add-acl-entry", OpRemoveACLEntry: "remove-acl-entry",
	OpRemoveACL: "remove-acl", OpAddStaticRoute: "add-static-route",
	OpRemoveStaticRoute: "remove-static-route", OpSetOSPF: "set-ospf",
	OpRemoveOSPF: "remove-ospf", OpSetVLAN: "set-vlan",
	OpRemoveVLAN: "remove-vlan", OpSetGateway: "set-gateway",
	OpSetBGP: "set-bgp", OpRemoveBGP: "remove-bgp",
	OpSetACLEntry: "set-acl-entry", OpAddACL: "add-acl",
}

// String returns the kebab-case name of the op.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Change is one semantic configuration change on one device. Exactly the
// payload fields relevant to Op are set.
type Change struct {
	Device string
	Op     Op

	Interface *netmodel.Interface // OpAddInterface, OpSetInterface
	ACLName   string              // ACL ops
	Entry     *netmodel.ACLEntry  // OpAddACLEntry, OpSetACLEntry
	Seq       int                 // OpRemoveACLEntry
	Route     *netmodel.StaticRoute
	OSPF      *netmodel.OSPFProcess
	BGP       *netmodel.BGPProcess
	VLAN      *netmodel.VLAN
	VLANID    int // OpRemoveVLAN
	Gateway   netip.Addr
}

// Resource returns the privilege-resource path the change touches, in the
// form consumed by the Privilegemsp evaluator, e.g.
// "device:r3:acl:WEB-IN" or "device:r1:interface:Gi0/0".
func (c Change) Resource() string {
	switch c.Op {
	case OpAddInterface, OpSetInterface:
		return fmt.Sprintf("device:%s:interface:%s", c.Device, c.Interface.Name)
	case OpAddACLEntry, OpSetACLEntry, OpRemoveACLEntry, OpRemoveACL, OpAddACL:
		return fmt.Sprintf("device:%s:acl:%s", c.Device, c.ACLName)
	case OpAddStaticRoute, OpRemoveStaticRoute:
		return fmt.Sprintf("device:%s:route:%s", c.Device, c.Route.Prefix)
	case OpSetOSPF, OpRemoveOSPF:
		return fmt.Sprintf("device:%s:ospf", c.Device)
	case OpSetBGP, OpRemoveBGP:
		return fmt.Sprintf("device:%s:bgp", c.Device)
	case OpSetVLAN:
		return fmt.Sprintf("device:%s:vlan:%d", c.Device, c.VLAN.ID)
	case OpRemoveVLAN:
		return fmt.Sprintf("device:%s:vlan:%d", c.Device, c.VLANID)
	case OpSetGateway:
		return fmt.Sprintf("device:%s:gateway", c.Device)
	}
	return "device:" + c.Device
}

// Action returns the privilege-action name of the change, e.g.
// "config.acl.add". A replaced entry's "config.acl.set" names a remove and
// an add: the enforcer's review requires both of those on its ACL.
func (c Change) Action() string {
	switch c.Op {
	case OpAddInterface:
		return "config.interface.add"
	case OpSetInterface:
		return "config.interface.set"
	case OpAddACLEntry, OpAddACL:
		return "config.acl.add"
	case OpSetACLEntry:
		return "config.acl.set"
	case OpRemoveACLEntry:
		return "config.acl.remove"
	case OpRemoveACL:
		return "config.acl.remove"
	case OpAddStaticRoute:
		return "config.route.add"
	case OpRemoveStaticRoute:
		return "config.route.remove"
	case OpSetOSPF:
		return "config.ospf.set"
	case OpRemoveOSPF:
		return "config.ospf.remove"
	case OpSetBGP:
		return "config.bgp.set"
	case OpRemoveBGP:
		return "config.bgp.remove"
	case OpSetVLAN:
		return "config.vlan.set"
	case OpRemoveVLAN:
		return "config.vlan.remove"
	case OpSetGateway:
		return "config.gateway.set"
	}
	return "config.unknown"
}

// String renders the change for logs and audit entries.
func (c Change) String() string {
	switch c.Op {
	case OpAddACLEntry, OpSetACLEntry:
		return fmt.Sprintf("%s %s: %s", c.Device, c.Op, FormatACLEntry(c.Entry))
	case OpRemoveACLEntry:
		return fmt.Sprintf("%s %s: %s seq %d", c.Device, c.Op, c.ACLName, c.Seq)
	case OpAddStaticRoute, OpRemoveStaticRoute:
		return fmt.Sprintf("%s %s: %s via %s", c.Device, c.Op, c.Route.Prefix, c.Route.NextHop)
	case OpAddInterface, OpSetInterface:
		state := "up"
		if c.Interface.Shutdown {
			state = "shutdown"
		}
		return fmt.Sprintf("%s %s: %s (%s)", c.Device, c.Op, c.Interface.Name, state)
	default:
		return fmt.Sprintf("%s %s: %s", c.Device, c.Op, c.Resource())
	}
}

// Additive reports whether the change can only add connectivity (safe to
// apply early) as opposed to removing it. The enforcer's scheduler applies
// additive changes before subtractive ones to avoid transient blackholes.
func (c Change) Additive() bool {
	switch c.Op {
	case OpAddACLEntry:
		return c.Entry.Action == netmodel.Permit
	case OpAddStaticRoute, OpSetVLAN, OpAddInterface, OpSetOSPF, OpSetBGP, OpSetGateway:
		return true
	case OpSetInterface:
		return !c.Interface.Shutdown
	}
	return false
}

// DiffDevice computes the semantic changes that transform old into new.
// Both devices must have the same name, each ACL's entries must be in
// ascending sequence order with no number twice, and no static route may
// appear twice: ACL.InsertEntry, Parse and the console keep all three. new
// must hold every interface old holds, since no Op removes one: a device
// ApplyChange built from old does, and so does every twin device. An
// unchanged ACL, or unchanged static routes, cost one comparison; an
// interface or an ACL both devices share (ApplyChange shares what it does
// not write) costs a pointer comparison.
func DiffDevice(old, new *netmodel.Device) []Change {
	var out []Change
	dev := old.Name

	// Interfaces.
	for _, name := range new.InterfaceNames() {
		switch ni, oi := new.Interfaces[name], old.Interfaces[name]; {
		case oi == nil:
			out = append(out, Change{Device: dev, Op: OpAddInterface, Interface: ni.Clone()})
		case oi != ni && !sameInterface(oi, ni):
			out = append(out, Change{Device: dev, Op: OpSetInterface, Interface: ni.Clone()})
		}
	}

	// ACLs: a merge walk over the sequence numbers; an ACL old lacks is
	// empty, and created as such when new's is.
	for _, name := range new.ACLNames() {
		oa, na := old.ACLs[name], new.ACLs[name]
		if oa == na {
			continue
		}
		if oa == nil && len(na.Entries) == 0 {
			out = append(out, Change{Device: dev, Op: OpAddACL, ACLName: name})
			continue
		}
		oes, nes := cmp.Or(oa, &netmodel.ACL{}).Entries, na.Entries
		if slices.Equal(oes, nes) {
			continue
		}
		i := 0
		for _, e := range nes {
			for i < len(oes) && oes[i].Seq < e.Seq {
				i++
			}
			switch {
			case i == len(oes) || oes[i].Seq != e.Seq:
				ee := e // copied only when it is emitted
				out = append(out, Change{Device: dev, Op: OpAddACLEntry, ACLName: name, Entry: &ee})
			case oes[i] != e:
				ee := e
				out = append(out, Change{Device: dev, Op: OpSetACLEntry, ACLName: name, Entry: &ee})
			}
		}
		i = 0
		for _, e := range oes {
			for i < len(nes) && nes[i].Seq < e.Seq {
				i++
			}
			if i == len(nes) || nes[i].Seq != e.Seq {
				out = append(out, Change{Device: dev, Op: OpRemoveACLEntry, ACLName: name, Seq: e.Seq})
			}
		}
	}
	for _, name := range old.ACLNames() {
		if new.ACLs[name] == nil {
			out = append(out, Change{Device: dev, Op: OpRemoveACL, ACLName: name})
		}
	}

	// Static routes: the added in new's order, then the withdrawn in the
	// order of their "prefix|next hop|distance" renderings.
	if !slices.Equal(old.StaticRoutes, new.StaticRoutes) {
		key := func(r netmodel.StaticRoute) string {
			return r.Prefix.String() + "|" + r.NextHop.String() + "|" + strconv.Itoa(r.Distance)
		}
		for _, r := range new.StaticRoutes {
			if !slices.Contains(old.StaticRoutes, r) {
				out = append(out, Change{Device: dev, Op: OpAddStaticRoute, Route: &r})
			}
		}
		stale := slices.DeleteFunc(slices.Clone(old.StaticRoutes),
			func(r netmodel.StaticRoute) bool { return slices.Contains(new.StaticRoutes, r) })
		slices.SortFunc(stale, func(a, b netmodel.StaticRoute) int { return strings.Compare(key(a), key(b)) })
		for i := range stale {
			out = append(out, Change{Device: dev, Op: OpRemoveStaticRoute, Route: &stale[i]})
		}
	}

	// OSPF.
	switch {
	case old.OSPF == nil && new.OSPF != nil:
		out = append(out, Change{Device: dev, Op: OpSetOSPF, OSPF: new.OSPF.Clone()})
	case old.OSPF != nil && new.OSPF == nil:
		out = append(out, Change{Device: dev, Op: OpRemoveOSPF})
	case old.OSPF != nil && !sameOSPF(old.OSPF, new.OSPF):
		out = append(out, Change{Device: dev, Op: OpSetOSPF, OSPF: new.OSPF.Clone()})
	}

	// BGP.
	switch {
	case old.BGP == nil && new.BGP != nil:
		out = append(out, Change{Device: dev, Op: OpSetBGP, BGP: new.BGP.Clone()})
	case old.BGP != nil && new.BGP == nil:
		out = append(out, Change{Device: dev, Op: OpRemoveBGP})
	case old.BGP != nil && !sameBGP(old.BGP, new.BGP):
		out = append(out, Change{Device: dev, Op: OpSetBGP, BGP: new.BGP.Clone()})
	}

	// VLANs.
	for _, id := range new.VLANIDs() {
		nv, ov := new.VLANs[id], old.VLANs[id]
		if ov == nil || *ov != *nv {
			vv := *nv
			out = append(out, Change{Device: dev, Op: OpSetVLAN, VLAN: &vv})
		}
	}
	for _, id := range old.VLANIDs() {
		if new.VLANs[id] == nil {
			out = append(out, Change{Device: dev, Op: OpRemoveVLAN, VLANID: id})
		}
	}

	// Default gateway.
	if old.DefaultGateway != new.DefaultGateway {
		out = append(out, Change{Device: dev, Op: OpSetGateway, Gateway: new.DefaultGateway})
	}
	return out
}

// sameSlice is slices.Equal telling nil from empty, as reflect.DeepEqual
// does: a process Clone gave an empty list has always diffed as changed.
func sameSlice[S ~[]E, E comparable](a, b S) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// sameInterface is reflect.DeepEqual over every field of the two interfaces.
func sameInterface(a, b *netmodel.Interface) bool {
	return a.Name == b.Name && a.Description == b.Description && a.Addr == b.Addr && a.Shutdown == b.Shutdown &&
		a.ACLIn == b.ACLIn && a.ACLOut == b.ACLOut && a.Mode == b.Mode && a.AccessVLAN == b.AccessVLAN &&
		sameSlice(a.TrunkVLANs, b.TrunkVLANs) && a.OSPFCost == b.OSPFCost
}

// sameOSPF is reflect.DeepEqual over every field of the two processes.
func sameOSPF(a, b *netmodel.OSPFProcess) bool {
	return a.ProcessID == b.ProcessID && a.RouterID == b.RouterID &&
		sameSlice(a.Networks, b.Networks) && sameSlice(a.Ranges, b.Ranges) &&
		(a.Passive == nil) == (b.Passive == nil) && maps.Equal(a.Passive, b.Passive)
}

// sameBGP is reflect.DeepEqual over every field of the two processes.
func sameBGP(a, b *netmodel.BGPProcess) bool {
	return a.LocalAS == b.LocalAS && a.RouterID == b.RouterID &&
		sameSlice(a.Neighbors, b.Neighbors) && sameSlice(a.Networks, b.Networks) &&
		a.RedistributeConnected == b.RedistributeConnected
}

// DiffNetwork computes per-device changes across two snapshots of the same
// network (devices present only in one side are ignored: Heimdall tickets
// never add or remove devices).
func DiffNetwork(old, new *netmodel.Network) []Change {
	var out []Change
	for _, name := range old.DeviceNames() {
		nd := new.Devices[name]
		if nd == nil {
			continue
		}
		out = append(out, DiffDevice(old.Devices[name], nd)...)
	}
	return out
}

// ApplyChange returns the device as c leaves it, or an error when c
// references state that does not exist. It never writes d: the result is a
// copy of d that shares every section c does not write. The section c
// writes is copied (the interface, ACL or VLAN map, the static-route list)
// and an ACL op clones only the one ACL it edits, so d and the result may
// both be shared, as production's published devices are. The interface or
// routing process c carries is shared too: neither a change's payload nor
// a published device is written once built.
func ApplyChange(d *netmodel.Device, c Change) (*netmodel.Device, error) {
	if d.Name != c.Device {
		return nil, fmt.Errorf("config: change for %s applied to %s", c.Device, d.Name)
	}
	nd := *d
	switch c.Op {
	case OpAddInterface, OpSetInterface:
		nd.Interfaces = with(d.Interfaces, c.Interface.Name, c.Interface)
	case OpAddACLEntry, OpSetACLEntry, OpRemoveACLEntry:
		a, seq := cmp.Or(d.ACLs[c.ACLName], &netmodel.ACL{Name: c.ACLName}).Clone(), c.Seq
		if c.Op != OpRemoveACLEntry {
			seq = c.Entry.Seq
		}
		if c.Op != OpAddACLEntry && !a.RemoveEntry(seq) {
			return nil, fmt.Errorf("config: %s: no entry %s seq %d", d.Name, c.ACLName, seq)
		}
		if c.Op != OpRemoveACLEntry {
			a.InsertEntry(*c.Entry)
		}
		nd.ACLs = with(d.ACLs, c.ACLName, a)
	case OpRemoveACL:
		if _, ok := d.ACLs[c.ACLName]; !ok {
			return nil, fmt.Errorf("config: %s: no ACL %s", d.Name, c.ACLName)
		}
		nd.ACLs = without(d.ACLs, c.ACLName)
	case OpAddACL:
		if _, ok := d.ACLs[c.ACLName]; ok {
			return nil, fmt.Errorf("config: %s: ACL %s exists", d.Name, c.ACLName)
		}
		nd.ACLs = with(d.ACLs, c.ACLName, &netmodel.ACL{Name: c.ACLName})
	case OpAddStaticRoute:
		nd.StaticRoutes = append(slices.Clip(d.StaticRoutes), *c.Route)
	case OpRemoveStaticRoute:
		i := slices.Index(d.StaticRoutes, *c.Route)
		if i < 0 {
			return nil, fmt.Errorf("config: %s: no route %s via %s", d.Name, c.Route.Prefix, c.Route.NextHop)
		}
		nd.StaticRoutes = append(d.StaticRoutes[:i:i], d.StaticRoutes[i+1:]...)
	case OpSetOSPF:
		nd.OSPF = c.OSPF
	case OpRemoveOSPF:
		nd.OSPF = nil
	case OpSetBGP:
		nd.BGP = c.BGP
	case OpRemoveBGP:
		nd.BGP = nil
	case OpSetVLAN:
		v := *c.VLAN
		nd.VLANs = with(d.VLANs, v.ID, &v)
	case OpRemoveVLAN:
		if _, ok := d.VLANs[c.VLANID]; !ok {
			return nil, fmt.Errorf("config: %s: no VLAN %d", d.Name, c.VLANID)
		}
		nd.VLANs = without(d.VLANs, c.VLANID)
	case OpSetGateway:
		nd.DefaultGateway = c.Gateway
	default:
		return nil, fmt.Errorf("config: unknown op %v", c.Op)
	}
	return &nd, nil
}

// with is a copy of m with k set to v.
func with[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	c := make(map[K]V, len(m)+1)
	maps.Copy(c, m)
	c[k] = v
	return c
}

// without is a copy of m without k.
func without[K comparable, V any](m map[K]V, k K) map[K]V {
	c := maps.Clone(m)
	delete(c, k)
	return c
}

// ApplyChanges applies every change to the network in order, stopping at
// the first error: each device a change names is replaced in n.Devices by
// ApplyChange's result, and no device is written.
func ApplyChanges(n *netmodel.Network, changes []Change) error {
	for _, c := range changes {
		d := n.Devices[c.Device]
		if d == nil {
			return fmt.Errorf("config: change for unknown device %s", c.Device)
		}
		nd, err := ApplyChange(d, c)
		if err != nil {
			return err
		}
		n.Devices[c.Device] = nd
	}
	return nil
}

// Undo is the section of a device that one change writes, as it was before
// the commit: the interface or the ACL the change names, the static-route
// list, the OSPF or BGP process, the VLAN, or the default gateway, with a
// nil payload where the section was absent. The journal's intent record
// carries one per scheduled change, and RestoreUndo puts it back.
type Undo struct {
	Device  string
	Section string // "interface", "acl", "routes", "ospf", "bgp", "vlan" or "gateway"
	Name    string `json:",omitempty"` // the interface's or the ACL's
	VLANID  int    `json:",omitempty"`

	Interface *netmodel.Interface    `json:",omitempty"`
	ACL       *netmodel.ACL          `json:",omitempty"`
	Routes    []netmodel.StaticRoute `json:",omitempty"`
	OSPF      *netmodel.OSPFProcess  `json:",omitempty"`
	BGP       *netmodel.BGPProcess   `json:",omitempty"`
	VLAN      *netmodel.VLAN         `json:",omitempty"`
	Gateway   *netip.Addr            `json:",omitempty"`
}

// UndoOf returns the undo of c: the section of d that c writes, as d holds
// it. The undo shares d's content, so d must not be written afterwards
// (production's pre-commit devices never are); RestoreUndo copies it.
func UndoOf(d *netmodel.Device, c Change) Undo {
	u := Undo{Device: c.Device}
	switch c.Op {
	case OpAddInterface, OpSetInterface:
		u.Section, u.Name, u.Interface = "interface", c.Interface.Name, d.Interfaces[c.Interface.Name]
	case OpAddACLEntry, OpSetACLEntry, OpRemoveACLEntry, OpRemoveACL, OpAddACL:
		u.Section, u.Name, u.ACL = "acl", c.ACLName, d.ACLs[c.ACLName]
	case OpAddStaticRoute, OpRemoveStaticRoute:
		u.Section, u.Routes = "routes", d.StaticRoutes
	case OpSetOSPF, OpRemoveOSPF:
		u.Section, u.OSPF = "ospf", d.OSPF
	case OpSetBGP, OpRemoveBGP:
		u.Section, u.BGP = "bgp", d.BGP
	case OpSetVLAN:
		u.Section, u.VLANID, u.VLAN = "vlan", c.VLAN.ID, d.VLANs[c.VLAN.ID]
	case OpRemoveVLAN:
		u.Section, u.VLANID, u.VLAN = "vlan", c.VLANID, d.VLANs[c.VLANID]
	case OpSetGateway:
		if u.Section = "gateway"; d.DefaultGateway.IsValid() {
			u.Gateway = &d.DefaultGateway
		}
	}
	return u
}

// Undoes reports whether u restores the section c writes.
func (u Undo) Undoes(c Change) bool {
	w := UndoOf(netmodel.NewDevice(c.Device, 0), c)
	return u.Device == w.Device && u.Section == w.Section && u.Name == w.Name && u.VLANID == w.VLANID
}

// RestoreUndo returns d with the section u recorded put back, an absent
// section deleted; like ApplyChange, it never writes d. Restoring is
// idempotent, and restoring the undo of a change that never landed leaves a
// section no other change wrote as it is.
func RestoreUndo(d *netmodel.Device, u Undo) (*netmodel.Device, error) {
	if d.Name != u.Device {
		return nil, fmt.Errorf("config: undo for %s restored on %s", u.Device, d.Name)
	}
	nd := *d
	switch u.Section {
	case "interface":
		nd.Interfaces = without(d.Interfaces, u.Name)
		if u.Interface != nil {
			nd.Interfaces = with(d.Interfaces, u.Name, u.Interface.Clone())
		}
	case "acl":
		nd.ACLs = without(d.ACLs, u.Name)
		if u.ACL != nil {
			nd.ACLs = with(d.ACLs, u.Name, u.ACL.Clone())
		}
	case "routes":
		nd.StaticRoutes = slices.Clone(u.Routes)
	case "ospf":
		nd.OSPF = nil
		if u.OSPF != nil {
			nd.OSPF = u.OSPF.Clone()
		}
	case "bgp":
		nd.BGP = nil
		if u.BGP != nil {
			nd.BGP = u.BGP.Clone()
		}
	case "vlan":
		nd.VLANs = without(d.VLANs, u.VLANID)
		if u.VLAN != nil {
			v := *u.VLAN
			nd.VLANs = with(d.VLANs, u.VLANID, &v)
		}
	case "gateway":
		nd.DefaultGateway = netip.Addr{}
		if u.Gateway != nil {
			nd.DefaultGateway = *u.Gateway
		}
	default:
		return nil, fmt.Errorf("config: %s: unknown undo section %q", d.Name, u.Section)
	}
	return &nd, nil
}

// RestoreUndos restores undos on n, last first, each replacing the device
// it names with RestoreUndo's result: ApplyChanges undone.
func RestoreUndos(n *netmodel.Network, undos []Undo) error {
	for i := len(undos) - 1; i >= 0; i-- {
		d := n.Devices[undos[i].Device]
		if d == nil {
			return fmt.Errorf("config: undo for unknown device %s", undos[i].Device)
		}
		d, err := RestoreUndo(d, undos[i])
		if err != nil {
			return err
		}
		n.Devices[d.Name] = d
	}
	return nil
}

// String renders what restoring the undo does, for the journal's readers.
func (u Undo) String() string {
	what := strings.TrimSpace(u.Section + " " + u.Name)
	if u.VLANID != 0 {
		what = fmt.Sprintf("vlan %d", u.VLANID)
	}
	switch {
	case u.ACL != nil:
		return fmt.Sprintf("restore %s (%d entries)", what, len(u.ACL.Entries))
	case u.Interface != nil || u.Routes != nil || u.OSPF != nil || u.BGP != nil || u.VLAN != nil || u.Gateway != nil:
		return "restore " + what
	}
	return "remove " + what
}
