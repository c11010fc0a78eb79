package ticket

import (
	"fmt"
	"net/netip"

	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
)

// Fault is one injectable misconfiguration or failure. Faults drive the
// evaluation: each is injected into a copy of the production network, a
// ticket is filed for the symptom, and the technician's job is to find and
// undo the root cause.
type Fault struct {
	Name        string
	Kind        privilege.TaskKind
	Description string
	// RootCause is the device that must be reachable (and fixable) for a
	// technique to count as feasible in the Figure 8/9 experiments.
	RootCause string
	// Inject mutates the network to create the issue. It writes RootCause
	// and no other device — what the service declares to MutateProduction to
	// keep the production snapshot (generate.TestFaultsWriteOnlyRootCause
	// pins it for every fault); a fault that writes a second device needs a
	// write-set field here first.
	Inject func(n *netmodel.Network) error
	// Fix is the prepared command list (paper §5, "level playing field")
	// that an experienced technician would run on the root-cause device to
	// resolve the issue.
	Fix []FixCommand
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil || d.Interface(itf) == nil {
				return fmt.Errorf("ticket: no interface %s:%s", device, itf)
			}
			d.Interface(itf).Shutdown = true
			return nil
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil {
				return fmt.Errorf("ticket: no device %s", device)
			}
			a := d.ACL(aclName, false)
			if a == nil {
				return fmt.Errorf("ticket: no ACL %s on %s", aclName, device)
			}
			a.InsertEntry(netmodel.ACLEntry{
				Seq: seq, Action: netmodel.Deny, Proto: netmodel.TCP, Dst: dst, DstPort: port,
			})
			return nil
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil || d.Interface(port) == nil {
				return fmt.Errorf("ticket: no port %s:%s", device, port)
			}
			itf := d.Interface(port)
			if itf.Mode != netmodel.Access {
				return fmt.Errorf("ticket: %s:%s is not an access port", device, port)
			}
			itf.AccessVLAN = wrongVLAN
			return nil
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil || d.OSPF == nil {
				return fmt.Errorf("ticket: no OSPF process on %s", device)
			}
			d.OSPF.Passive[itf] = true
			return nil
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil {
				return fmt.Errorf("ticket: no device %s", device)
			}
			for i, r := range d.StaticRoutes {
				if r.Prefix == prefix {
					d.StaticRoutes[i].NextHop = wrongNH
					return nil
				}
			}
			return fmt.Errorf("ticket: no route %s on %s", prefix, device)
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
		Inject: func(n *netmodel.Network) error {
			d := n.Devices[device]
			if d == nil || d.BGP == nil {
				return fmt.Errorf("ticket: no BGP process on %s", device)
			}
			if d.BGP.Neighbor(neighbor) == nil {
				return fmt.Errorf("ticket: no BGP neighbor %s on %s", neighbor, device)
			}
			d.BGP.SetNeighbor(neighbor, wrongAS)
			return nil
		},
		Fix: []FixCommand{{Device: device,
			Line: fmt.Sprintf("router bgp %d neighbor %s remote-as %d", localAS, neighbor, rightAS)}},
	}
}

func maskString(bits int) string {
	v := uint32(0)
	if bits > 0 {
		v = ^uint32(0) << (32 - bits)
	}
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// FileFor creates the ticket an admin would file for the fault's symptom.
func (s *System) FileFor(f Fault, srcHost, dstHost string, proto netmodel.Protocol, port uint16) *Ticket {
	return s.Create(Ticket{
		Summary:   f.Description,
		Kind:      f.Kind,
		SrcHost:   srcHost,
		DstHost:   dstHost,
		Proto:     proto,
		DstPort:   port,
		CreatedBy: "netadmin",
	})
}
