package ticket

import (
	"fmt"
	"net/netip"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
)

// Fault is one injectable misconfiguration or failure. Faults drive the
// evaluation: each is injected into production (enforcer.Enforcer.Inject)
// or a copy of it (Inject), a ticket is filed for the symptom, and the
// technician's job is to find and undo the root cause.
type Fault struct {
	Name        string
	Kind        privilege.TaskKind
	Description string
	// RootCause is the device that must be reachable (and fixable) for a
	// technique to count as feasible in the Figure 8/9 experiments.
	RootCause string
	// Changes returns the change set that creates the issue on n, which it
	// reads and never writes; every change names RootCause
	// (generate.TestFaultsWriteOnlyRootCause pins it for every fault).
	Changes func(n *netmodel.Network) ([]config.Change, error)
	// Fix is the prepared command list (paper §5, "level playing field")
	// that an experienced technician would run on the root-cause device to
	// resolve the issue.
	Fix []FixCommand
}

// Inject creates the issue on n, a network the caller owns: Changes, then
// config.ApplyChanges, which replaces the devices it writes.
func (f Fault) Inject(n *netmodel.Network) error {
	changes, err := f.Changes(n)
	if err != nil {
		return err
	}
	return config.ApplyChanges(n, changes)
}

// FixCommand is one console command of a prepared fix script.
type FixCommand struct {
	Device string
	Line   string
}

// InterfaceDown injects an administrative shutdown.
func InterfaceDown(device, itf string) Fault {
	return Fault{
		Name:        fmt.Sprintf("if-down-%s-%s", device, itf),
		Kind:        privilege.TaskInterface,
		Description: fmt.Sprintf("interface %s on %s is down", itf, device),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			d := n.Devices[device]
			if d == nil || d.Interface(itf) == nil {
				return nil, fmt.Errorf("ticket: no interface %s:%s", device, itf)
			}
			down := d.Interface(itf).Clone()
			down.Shutdown = true
			return []config.Change{{Device: device, Op: config.OpSetInterface, Interface: down}}, nil
		},
		Fix: []FixCommand{{Device: device, Line: fmt.Sprintf("interface %s no shutdown", itf)}},
	}
}

// ACLDeny injects a deny entry that blocks the given destination/port into
// an existing ACL, reproducing the paper's running example of a
// misconfigured access-control rule (§4.2/§4.3).
func ACLDeny(device, aclName string, seq int, dst netip.Prefix, port uint16) Fault {
	return Fault{
		Name:        fmt.Sprintf("acl-deny-%s-%s-%d", device, aclName, seq),
		Kind:        privilege.TaskACL,
		Description: fmt.Sprintf("ACL %s on %s denies traffic to %s:%d", aclName, device, dst.Addr(), port),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			d := n.Devices[device]
			if d == nil {
				return nil, fmt.Errorf("ticket: no device %s", device)
			}
			if d.ACL(aclName, false) == nil {
				return nil, fmt.Errorf("ticket: no ACL %s on %s", aclName, device)
			}
			return []config.Change{{Device: device, Op: config.OpAddACLEntry, ACLName: aclName, Entry: &netmodel.ACLEntry{
				Seq: seq, Action: netmodel.Deny, Proto: netmodel.TCP, Dst: dst, DstPort: port,
			}}}, nil
		},
		Fix: []FixCommand{{Device: device, Line: fmt.Sprintf("no access-list %s %d", aclName, seq)}},
	}
}

// WrongAccessVLAN moves an access port into the wrong VLAN — the classic
// StackExchange "access port config" issue.
func WrongAccessVLAN(device, port string, wrongVLAN, rightVLAN int) Fault {
	return Fault{
		Name:        fmt.Sprintf("vlan-%s-%s", device, port),
		Kind:        privilege.TaskVLAN,
		Description: fmt.Sprintf("port %s on %s assigned to vlan %d instead of %d", port, device, wrongVLAN, rightVLAN),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			d := n.Devices[device]
			if d == nil || d.Interface(port) == nil {
				return nil, fmt.Errorf("ticket: no port %s:%s", device, port)
			}
			if d.Interface(port).Mode != netmodel.Access {
				return nil, fmt.Errorf("ticket: %s:%s is not an access port", device, port)
			}
			itf := d.Interface(port).Clone()
			itf.AccessVLAN = wrongVLAN
			return []config.Change{{Device: device, Op: config.OpSetInterface, Interface: itf}}, nil
		},
		Fix: []FixCommand{{Device: device, Line: fmt.Sprintf("interface %s switchport access vlan %d", port, rightVLAN)}},
	}
}

// OSPFPassive marks a transit interface passive, silently killing the
// adjacency — the "I can't ping the other router using OSPF" issue.
func OSPFPassive(device, itf string) Fault {
	return Fault{
		Name:        fmt.Sprintf("ospf-passive-%s-%s", device, itf),
		Kind:        privilege.TaskOSPF,
		Description: fmt.Sprintf("OSPF on %s has passive-interface %s, adjacency lost", device, itf),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			return PassiveInterfaces(n, device, itf)
		},
		Fix: []FixCommand{{Device: device, Line: fmt.Sprintf("router ospf no passive-interface %s", itf)}},
	}
}

// BadStaticRoute replaces a static route's next hop with a wrong address —
// the "changing configuration on Cisco router" ISP-reconfiguration issue.
func BadStaticRoute(device string, prefix netip.Prefix, wrongNH, rightNH netip.Addr) Fault {
	mask := maskString(prefix.Bits())
	return Fault{
		Name:        fmt.Sprintf("isp-route-%s-%s", device, prefix),
		Kind:        privilege.TaskISP,
		Description: fmt.Sprintf("static route %s on %s points at %s instead of %s", prefix, device, wrongNH, rightNH),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			d := n.Devices[device]
			if d == nil {
				return nil, fmt.Errorf("ticket: no device %s", device)
			}
			for _, r := range d.StaticRoutes {
				if r.Prefix == prefix {
					wrong := r
					wrong.NextHop = wrongNH
					return []config.Change{{Device: device, Op: config.OpRemoveStaticRoute, Route: &r},
						{Device: device, Op: config.OpAddStaticRoute, Route: &wrong}}, nil
				}
			}
			return nil, fmt.Errorf("ticket: no route %s on %s", prefix, device)
		},
		Fix: []FixCommand{
			{Device: device, Line: fmt.Sprintf("no ip route %s %s %s", prefix.Addr(), mask, wrongNH)},
			{Device: device, Line: fmt.Sprintf("ip route %s %s %s", prefix.Addr(), mask, rightNH)},
		},
	}
}

// BGPWrongAS corrupts an eBGP neighbor statement's remote-as, tearing the
// session down — the other classic ISP-reconfiguration mistake (the ISP
// migrated to a new AS and the enterprise edge still peers with the old
// number, or a typo during turn-up).
func BGPWrongAS(device string, localAS int, neighbor netip.Addr, wrongAS, rightAS int) Fault {
	return Fault{
		Name:        fmt.Sprintf("bgp-as-%s-%s", device, neighbor),
		Kind:        privilege.TaskISP,
		Description: fmt.Sprintf("BGP neighbor %s on %s configured with remote-as %d instead of %d; session down", neighbor, device, wrongAS, rightAS),
		RootCause:   device,
		Changes: func(n *netmodel.Network) ([]config.Change, error) {
			d := n.Devices[device]
			if d == nil || d.BGP == nil {
				return nil, fmt.Errorf("ticket: no BGP process on %s", device)
			}
			if d.BGP.Neighbor(neighbor) == nil {
				return nil, fmt.Errorf("ticket: no BGP neighbor %s on %s", neighbor, device)
			}
			bgp := d.BGP.Clone()
			bgp.SetNeighbor(neighbor, wrongAS)
			return []config.Change{{Device: device, Op: config.OpSetBGP, BGP: bgp}}, nil
		},
		Fix: []FixCommand{{Device: device,
			Line: fmt.Sprintf("router bgp %d neighbor %s remote-as %d", localAS, neighbor, rightAS)}},
	}
}

// PassiveInterfaces is the change that marks the named interfaces of
// device's OSPF process passive, silencing the adjacencies they carry.
func PassiveInterfaces(n *netmodel.Network, device string, interfaces ...string) ([]config.Change, error) {
	d := n.Devices[device]
	if d == nil || d.OSPF == nil {
		return nil, fmt.Errorf("ticket: no OSPF process on %s", device)
	}
	ospf := d.OSPF.Clone()
	for _, itf := range interfaces {
		ospf.Passive[itf] = true
	}
	return []config.Change{{Device: device, Op: config.OpSetOSPF, OSPF: ospf}}, nil
}

func maskString(bits int) string {
	v := uint32(0)
	if bits > 0 {
		v = ^uint32(0) << (32 - bits)
	}
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
