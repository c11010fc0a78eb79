package config

import (
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"heimdall/internal/netmodel"
)

// Print renders a device model as canonical configuration text. Print and
// Parse round-trip: Parse(Print(d)) yields a device semantically equal to d.
// Output is deterministic (sections and names are sorted) so diffs of
// rendered text are stable. It is AppendConfig into 16 KiB of stack scratch,
// twice the largest shipped device's config, so the returned string is
// usually the only allocation of that size.
func Print(d *netmodel.Device) string {
	return string(AppendConfig(make([]byte, 0, 16<<10), d))
}

// AppendConfig appends Print's rendering of d to b: every line is appended
// in place, nothing is formatted through fmt and no line is allocated.
func AppendConfig(b []byte, d *netmodel.Device) []byte {
	b = cat(b, "! kind: ", d.Kind.String(), "\nhostname ", d.Name, "\n!\n")

	for _, k := range sortedSecretKinds(d) {
		switch k {
		case "enable":
			b = cat(b, "enable secret ", d.Secrets[k], "\n")
		case "snmp":
			b = cat(b, "snmp-server community ", d.Secrets[k], " RO\n")
		case "isakmp":
			b = cat(b, "crypto isakmp key ", d.Secrets[k], " address 0.0.0.0\n")
		}
	}
	if len(d.Secrets) > 0 {
		b = append(b, "!\n"...)
	}

	for _, id := range d.VLANIDs() {
		v := d.VLANs[id]
		b = appendInt(append(b, "vlan "...), v.ID)
		b = append(b, '\n')
		if v.Name != "" {
			b = cat(b, " name ", v.Name, "\n")
		}
		b = append(b, "!\n"...)
	}

	for _, name := range d.InterfaceNames() {
		b = appendInterface(b, d.Interfaces[name])
	}

	for _, name := range d.ACLNames() {
		a := d.ACLs[name]
		b = cat(b, "ip access-list extended ", a.Name, "\n")
		for i := range a.Entries {
			b = AppendACLEntry(append(b, ' '), &a.Entries[i])
			b = append(b, '\n')
		}
		b = append(b, "!\n"...)
	}

	routes := append([]netmodel.StaticRoute(nil), d.StaticRoutes...)
	sortRoutes(routes)
	for _, r := range routes {
		b = appendAddr(append(b, "ip route "...), r.Prefix.Addr())
		b = appendMask(append(b, ' '), r.Prefix.Bits())
		b = appendAddr(append(b, ' '), r.NextHop)
		if r.Distance != 0 {
			b = appendInt(append(b, ' '), r.Distance)
		}
		b = append(b, '\n')
	}
	if len(routes) > 0 {
		b = append(b, "!\n"...)
	}

	if d.DefaultGateway.IsValid() {
		b = appendAddr(append(b, "ip default-gateway "...), d.DefaultGateway)
		b = append(b, "\n!\n"...)
	}

	if o := d.OSPF; o != nil {
		b = appendInt(append(b, "router ospf "...), o.ProcessID)
		b = append(b, '\n')
		if o.RouterID.IsValid() {
			b = appendAddr(append(b, " router-id "...), o.RouterID)
			b = append(b, '\n')
		}
		for _, n := range o.Networks {
			b = appendAddr(append(b, " network "...), n.Prefix.Addr())
			b = appendWildcard(append(b, ' '), n.Prefix.Bits())
			b = appendInt(append(b, " area "...), n.Area)
			b = append(b, '\n')
		}
		for _, r := range o.Ranges {
			b = appendInt(append(b, " area "...), r.Area)
			b = appendAddr(append(b, " range "...), r.Prefix.Masked().Addr())
			b = appendMask(append(b, ' '), r.Prefix.Bits())
			b = append(b, '\n')
		}
		var passive []string
		for name, on := range o.Passive {
			if on {
				passive = append(passive, name)
			}
		}
		sort.Strings(passive)
		for _, name := range passive {
			b = cat(b, " passive-interface ", name, "\n")
		}
		b = append(b, "!\n"...)
	}
	if g := d.BGP; g != nil {
		b = appendInt(append(b, "router bgp "...), g.LocalAS)
		b = append(b, '\n')
		if g.RouterID.IsValid() {
			b = appendAddr(append(b, " bgp router-id "...), g.RouterID)
			b = append(b, '\n')
		}
		for _, nb := range g.Neighbors {
			b = appendAddr(append(b, " neighbor "...), nb.Addr)
			b = appendInt(append(b, " remote-as "...), nb.RemoteAS)
			b = append(b, '\n')
		}
		for _, net := range g.Networks {
			b = appendAddr(append(b, " network "...), net.Addr())
			b = appendMask(append(b, " mask "...), net.Bits())
			b = append(b, '\n')
		}
		if g.RedistributeConnected {
			b = append(b, " redistribute connected\n"...)
		}
		b = append(b, "!\n"...)
	}
	// The trailer is a comment: "end" is cosmetic and Parse knows no such
	// statement.
	return append(b, "! end\n"...)
}

// cat appends each string in turn.
func cat(b []byte, parts ...string) []byte {
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// appendAddr appends a as fmt's %s does: String()'s spelling of the zero
// address, which AppendTo renders as nothing.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

func sortedSecretKinds(d *netmodel.Device) []string {
	kinds := make([]string, 0, len(d.Secrets))
	for k := range d.Secrets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func appendInterface(b []byte, itf *netmodel.Interface) []byte {
	b = cat(b, "interface ", itf.Name, "\n")
	if itf.Description != "" {
		b = cat(b, " description ", itf.Description, "\n")
	}
	switch itf.Mode {
	case netmodel.Access:
		b = append(b, " switchport mode access\n"...)
		if itf.AccessVLAN != 0 {
			b = appendInt(append(b, " switchport access vlan "...), itf.AccessVLAN)
			b = append(b, '\n')
		}
	case netmodel.Trunk:
		b = append(b, " switchport mode trunk\n"...)
		if len(itf.TrunkVLANs) > 0 {
			b = append(b, " switchport trunk allowed vlan "...)
			for i, v := range itf.TrunkVLANs {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendInt(b, v)
			}
			b = append(b, '\n')
		}
	}
	if itf.HasAddr() {
		b = appendAddr(append(b, " ip address "...), itf.Addr.Addr())
		b = appendMask(append(b, ' '), itf.Addr.Bits())
		b = append(b, '\n')
	}
	if itf.OSPFCost != 0 {
		b = appendInt(append(b, " ip ospf cost "...), itf.OSPFCost)
		b = append(b, '\n')
	}
	if itf.ACLIn != "" {
		b = cat(b, " ip access-group ", itf.ACLIn, " in\n")
	}
	if itf.ACLOut != "" {
		b = cat(b, " ip access-group ", itf.ACLOut, " out\n")
	}
	if itf.Shutdown {
		b = append(b, " shutdown\n"...)
	} else {
		b = append(b, " no shutdown\n"...)
	}
	return append(b, "!\n"...)
}

// FormatACLEntry renders one ACL entry in IOS syntax.
func FormatACLEntry(e *netmodel.ACLEntry) string {
	return string(AppendACLEntry(make([]byte, 0, 64), e))
}

// AppendACLEntry appends one ACL entry in IOS syntax to b.
func AppendACLEntry(b []byte, e *netmodel.ACLEntry) []byte {
	b = cat(appendInt(b, e.Seq), " ", e.Action.String(), " ", e.Proto.String())
	b = appendACLSpec(b, e.Src, e.SrcPort)
	return appendACLSpec(b, e.Dst, e.DstPort)
}

// appendACLSpec appends one side of an entry: any, a host or a wildcarded
// network, then the port if one is matched.
func appendACLSpec(b []byte, pfx netip.Prefix, port uint16) []byte {
	switch {
	case !pfx.IsValid():
		b = append(b, " any"...)
	case pfx.Bits() == 32:
		b = appendAddr(append(b, " host "...), pfx.Addr())
	default:
		b = appendAddr(append(b, ' '), pfx.Masked().Addr())
		b = appendWildcard(append(b, ' '), pfx.Bits())
	}
	if port != 0 {
		b = appendInt(append(b, " eq "...), int(port))
	}
	return b
}

// CountLines returns the number of configuration lines (non-blank, non-"!")
// in the text, the unit used by Table 1's "lines of configs" column.
func CountLines(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "!") {
			continue
		}
		n++
	}
	return n
}

// Sanitize returns the device with secret material removed, applied to
// every device config before it enters the twin network. Only the Secrets
// map is the copy's own: the rest is d's, written by neither side.
func Sanitize(d *netmodel.Device) *netmodel.Device {
	c := *d
	c.Secrets = make(map[string]string, len(d.Secrets))
	for k := range d.Secrets {
		c.Secrets[k] = "<redacted>"
	}
	return &c
}
