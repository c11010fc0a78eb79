// Package netmodel defines the vendor-neutral semantic model of a managed
// network: devices (routers, switches, hosts), their interfaces, links,
// VLANs, access-control lists, static routes and OSPF processes.
//
// The model is deliberately plain data. The config package translates
// between this model and vendor-style configuration text; the dataplane
// package computes routing and forwarding behaviour from it; the twin
// package deep-copies it to build isolated twin networks.
package netmodel

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// DeviceKind classifies a device by its forwarding role.
type DeviceKind int

const (
	// Router forwards packets between L3 subnets using its routing table.
	Router DeviceKind = iota
	// Switch forwards frames within VLANs and may route between VLANs
	// through switched virtual interfaces (SVIs).
	Switch
	// Host is an endpoint: it originates and sinks traffic and forwards
	// nothing. A host uses its default gateway for off-subnet traffic.
	Host
)

// String returns the lowercase name of the device kind.
func (k DeviceKind) String() string {
	switch k {
	case Router:
		return "router"
	case Switch:
		return "switch"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// SwitchportMode describes the L2 role of an interface.
type SwitchportMode int

const (
	// Routed is an L3 interface with an IP address (the default).
	Routed SwitchportMode = iota
	// Access carries exactly one VLAN untagged.
	Access
	// Trunk carries multiple tagged VLANs.
	Trunk
)

// String returns the lowercase name of the switchport mode.
func (m SwitchportMode) String() string {
	switch m {
	case Routed:
		return "routed"
	case Access:
		return "access"
	case Trunk:
		return "trunk"
	default:
		return fmt.Sprintf("SwitchportMode(%d)", int(m))
	}
}

// Interface is a single network interface on a device.
type Interface struct {
	Name        string
	Description string

	// Addr is the interface's IP address and prefix length. The zero
	// value means the interface has no L3 address.
	Addr netip.Prefix

	// Shutdown is true when the interface is administratively down.
	Shutdown bool

	// ACLIn and ACLOut name ACLs applied to traffic entering and leaving
	// the interface. Empty means no ACL.
	ACLIn  string
	ACLOut string

	// Mode, AccessVLAN and TrunkVLANs describe L2 switchport behaviour.
	Mode       SwitchportMode
	AccessVLAN int
	TrunkVLANs []int

	// OSPFCost overrides the interface's OSPF link cost (0 = default 1).
	OSPFCost int
}

// HasAddr reports whether the interface has an IP address configured.
func (i *Interface) HasAddr() bool { return i.Addr.IsValid() }

// Up reports whether the interface is administratively up.
func (i *Interface) Up() bool { return !i.Shutdown }

// IsSVI reports whether the interface is a switched virtual interface
// ("Vlan<N>"), which provides L3 routing into a VLAN.
func (i *Interface) IsSVI() bool { return strings.HasPrefix(i.Name, "Vlan") }

// SVIVLAN returns the VLAN ID of an SVI, or 0 if the interface is not one.
func (i *Interface) SVIVLAN() int {
	if !i.IsSVI() {
		return 0
	}
	var id int
	if _, err := fmt.Sscanf(i.Name, "Vlan%d", &id); err != nil {
		return 0
	}
	return id
}

// CarriesVLAN reports whether the interface carries the given VLAN at L2.
func (i *Interface) CarriesVLAN(id int) bool {
	switch i.Mode {
	case Access:
		return i.AccessVLAN == id
	case Trunk:
		for _, v := range i.TrunkVLANs {
			if v == id {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the interface.
func (i *Interface) Clone() *Interface {
	c := *i
	c.TrunkVLANs = append([]int(nil), i.TrunkVLANs...)
	return &c
}

// VLAN is an L2 broadcast domain definition.
type VLAN struct {
	ID   int
	Name string
}

// ACLAction is the verdict of an ACL entry.
type ACLAction int

const (
	// Deny drops matching traffic.
	Deny ACLAction = iota
	// Permit forwards matching traffic.
	Permit
)

// String returns "permit" or "deny".
func (a ACLAction) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Protocol identifies the protocol an ACL entry or packet uses.
type Protocol int

const (
	// AnyProto matches every IP protocol.
	AnyProto Protocol = iota
	// TCP matches only TCP segments.
	TCP
	// UDP matches only UDP datagrams.
	UDP
	// ICMP matches only ICMP messages.
	ICMP
)

// String returns the lowercase protocol keyword ("ip" for AnyProto).
func (p Protocol) String() string {
	switch p {
	case AnyProto:
		return "ip"
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case ICMP:
		return "icmp"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol converts a protocol keyword to a Protocol value.
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(s) {
	case "ip", "any":
		return AnyProto, nil
	case "tcp":
		return TCP, nil
	case "udp":
		return UDP, nil
	case "icmp":
		return ICMP, nil
	}
	return AnyProto, fmt.Errorf("netmodel: unknown protocol %q", s)
}

// ACLEntry is one rule of an access list. The zero prefix (IsValid()==false)
// on Src or Dst means "any". Port 0 means "any port".
type ACLEntry struct {
	Seq    int
	Action ACLAction
	Proto  Protocol
	Src    netip.Prefix
	Dst    netip.Prefix
	// SrcPort and DstPort match a single port when non-zero ("eq N").
	SrcPort uint16
	DstPort uint16
}

// Matches reports whether the entry matches a flow described by protocol,
// source and destination address, and transport ports.
func (e *ACLEntry) Matches(proto Protocol, src, dst netip.Addr, sport, dport uint16) bool {
	if e.Proto != AnyProto && e.Proto != proto {
		return false
	}
	if e.Src.IsValid() && !e.Src.Contains(src) {
		return false
	}
	if e.Dst.IsValid() && !e.Dst.Contains(dst) {
		return false
	}
	if e.SrcPort != 0 && e.SrcPort != sport {
		return false
	}
	if e.DstPort != 0 && e.DstPort != dport {
		return false
	}
	return true
}

// ACL is an ordered access list. Evaluation is first match wins; a flow
// matching no entry is denied (the implicit deny of IOS-style ACLs).
type ACL struct {
	Name    string
	Entries []ACLEntry
}

// Evaluate returns the verdict for the flow, applying first-match-wins and
// the trailing implicit deny.
func (a *ACL) Evaluate(proto Protocol, src, dst netip.Addr, sport, dport uint16) ACLAction {
	for i := range a.Entries {
		if a.Entries[i].Matches(proto, src, dst, sport, dport) {
			return a.Entries[i].Action
		}
	}
	return Deny
}

// Clone returns a deep copy of the ACL.
func (a *ACL) Clone() *ACL {
	return &ACL{Name: a.Name, Entries: append([]ACLEntry(nil), a.Entries...)}
}

// InsertEntry adds an entry keeping the list ordered by sequence number.
// An entry with a duplicate sequence number replaces the existing one.
func (a *ACL) InsertEntry(e ACLEntry) {
	for i := range a.Entries {
		if a.Entries[i].Seq == e.Seq {
			a.Entries[i] = e
			return
		}
		if a.Entries[i].Seq > e.Seq {
			a.Entries = append(a.Entries[:i], append([]ACLEntry{e}, a.Entries[i:]...)...)
			return
		}
	}
	a.Entries = append(a.Entries, e)
}

// RemoveEntry deletes the entry with the given sequence number and reports
// whether one was removed.
func (a *ACL) RemoveEntry(seq int) bool {
	for i := range a.Entries {
		if a.Entries[i].Seq == seq {
			a.Entries = append(a.Entries[:i], a.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// StaticRoute is a manually configured route.
type StaticRoute struct {
	Prefix  netip.Prefix
	NextHop netip.Addr
	// Distance is the administrative distance; 0 means the IOS default of 1.
	Distance int
}

// AdminDistance returns the effective administrative distance.
func (r StaticRoute) AdminDistance() int {
	if r.Distance == 0 {
		return 1
	}
	return r.Distance
}

// OSPFNetwork enables OSPF on interfaces whose address falls inside Prefix,
// placing them in Area.
type OSPFNetwork struct {
	Prefix netip.Prefix
	Area   int
}

// OSPFProcess is a device's OSPF routing process.
type OSPFProcess struct {
	ProcessID int
	RouterID  netip.Addr
	Networks  []OSPFNetwork
	// Ranges configures ABR route aggregation (`area <n> range <prefix>`):
	// when this router advertises Area's intra-area prefixes into another
	// area, prefixes covered by Prefix collapse into a single summary for
	// Prefix whose cost is the minimum component cost (RFC 1583
	// compatibility semantics). Ranges on non-ABRs are inert.
	Ranges []OSPFNetwork
	// Passive interfaces advertise their subnet but form no adjacency.
	Passive map[string]bool
}

// Clone returns a deep copy of the OSPF process.
func (o *OSPFProcess) Clone() *OSPFProcess {
	c := &OSPFProcess{
		ProcessID: o.ProcessID,
		RouterID:  o.RouterID,
		Networks:  append([]OSPFNetwork(nil), o.Networks...),
		Ranges:    append([]OSPFNetwork(nil), o.Ranges...),
		Passive:   make(map[string]bool, len(o.Passive)),
	}
	for k, v := range o.Passive {
		c.Passive[k] = v
	}
	return c
}

// EnabledArea returns the OSPF area for the given interface address and
// whether OSPF is enabled on it. The longest matching network statement
// wins, following IOS semantics.
func (o *OSPFProcess) EnabledArea(addr netip.Addr) (int, bool) {
	best := -1
	area := 0
	for _, n := range o.Networks {
		if n.Prefix.Contains(addr) && n.Prefix.Bits() > best {
			best = n.Prefix.Bits()
			area = n.Area
		}
	}
	return area, best >= 0
}

// Device is a single managed network element.
type Device struct {
	Name string
	Kind DeviceKind

	// Interfaces holds the device's interfaces keyed by name.
	Interfaces map[string]*Interface

	// ACLs holds named access lists.
	ACLs map[string]*ACL

	// VLANs holds VLAN definitions (switches).
	VLANs map[int]*VLAN

	StaticRoutes []StaticRoute
	OSPF         *OSPFProcess
	BGP          *BGPProcess

	// DefaultGateway is used by hosts for off-subnet traffic.
	DefaultGateway netip.Addr

	// Secrets holds sensitive configuration material (enable secrets,
	// SNMP communities, IPSec keys) keyed by kind. The twin network
	// sanitizes these before exposing any configuration.
	Secrets map[string]string
}

// NewDevice returns an empty device of the given kind.
func NewDevice(name string, kind DeviceKind) *Device {
	return &Device{
		Name:       name,
		Kind:       kind,
		Interfaces: make(map[string]*Interface),
		ACLs:       make(map[string]*ACL),
		VLANs:      make(map[int]*VLAN),
		Secrets:    make(map[string]string),
	}
}

// AddInterface creates (or returns an existing) interface with the name.
func (d *Device) AddInterface(name string) *Interface {
	if itf, ok := d.Interfaces[name]; ok {
		return itf
	}
	itf := &Interface{Name: name}
	d.Interfaces[name] = itf
	return itf
}

// Interface returns the named interface, or nil.
func (d *Device) Interface(name string) *Interface { return d.Interfaces[name] }

// ACL returns the named ACL, creating it when create is true.
func (d *Device) ACL(name string, create bool) *ACL {
	if a, ok := d.ACLs[name]; ok {
		return a
	}
	if !create {
		return nil
	}
	a := &ACL{Name: name}
	d.ACLs[name] = a
	return a
}

// InterfaceNames returns the interface names in sorted order.
func (d *Device) InterfaceNames() []string {
	names := make([]string, 0, len(d.Interfaces))
	for n := range d.Interfaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ACLNames returns the ACL names in sorted order.
func (d *Device) ACLNames() []string {
	names := make([]string, 0, len(d.ACLs))
	for n := range d.ACLs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VLANIDs returns the VLAN IDs in ascending order.
func (d *Device) VLANIDs() []int {
	ids := make([]int, 0, len(d.VLANs))
	for id := range d.VLANs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AddrOnSubnet returns the first up interface address on the same subnet as
// the given address, which is how a device decides it can ARP directly.
func (d *Device) AddrOnSubnet(a netip.Addr) (*Interface, bool) {
	for _, name := range d.InterfaceNames() {
		itf := d.Interfaces[name]
		if itf.Up() && itf.HasAddr() && itf.Addr.Masked().Contains(a) {
			return itf, true
		}
	}
	return nil, false
}

// Clone returns a deep copy of the device.
func (d *Device) Clone() *Device {
	c := NewDevice(d.Name, d.Kind)
	c.DefaultGateway = d.DefaultGateway
	for n, itf := range d.Interfaces {
		c.Interfaces[n] = itf.Clone()
	}
	for n, a := range d.ACLs {
		c.ACLs[n] = a.Clone()
	}
	for id, v := range d.VLANs {
		vv := *v
		c.VLANs[id] = &vv
	}
	c.StaticRoutes = append([]StaticRoute(nil), d.StaticRoutes...)
	if d.OSPF != nil {
		c.OSPF = d.OSPF.Clone()
	}
	if d.BGP != nil {
		c.BGP = d.BGP.Clone()
	}
	for k, v := range d.Secrets {
		c.Secrets[k] = v
	}
	return c
}
