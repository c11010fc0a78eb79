package config

import (
	"net/netip"
	"slices"
	"strconv"
	"unicode/utf8"

	"heimdall/internal/chain"
	"heimdall/internal/netmodel"
)

// The journal's intent record carries a change set and its undos, and the
// chain seals a record by its JSON encoding (chain.AppendContent). These
// appenders write that encoding by hand, byte for byte what
// encoding/json.Marshal writes for the same value: every field in
// declaration order, nil pointers, slices and maps as null, Undo's
// omitempty fields left out when empty, a map's keys sorted, addresses and
// prefixes as their MarshalText, every string escaped as chain.AppendString
// escapes it. json.Marshal is the oracle they are tested against.

// AppendChanges appends changes as encoding/json.Marshal encodes them.
func AppendChanges(b []byte, changes []Change) []byte {
	return jsonList(b, changes, jsonChange)
}

// AppendUndos appends undos as encoding/json.Marshal encodes them.
func AppendUndos(b []byte, undos []Undo) []byte {
	return jsonList(b, undos, jsonUndo)
}

func jsonChange(b []byte, c *Change) []byte {
	b = chain.AppendString(append(b, `{"Device":`...), c.Device)
	b = jsonInt(b, `,"Op":`, int(c.Op))
	b = jsonPtr(append(b, `,"Interface":`...), c.Interface, jsonInterface)
	b = chain.AppendString(append(b, `,"ACLName":`...), c.ACLName)
	b = jsonPtr(append(b, `,"Entry":`...), c.Entry, jsonEntry)
	b = jsonInt(b, `,"Seq":`, c.Seq)
	b = jsonPtr(append(b, `,"Route":`...), c.Route, jsonRoute)
	b = jsonPtr(append(b, `,"OSPF":`...), c.OSPF, jsonOSPF)
	b = jsonPtr(append(b, `,"BGP":`...), c.BGP, jsonBGP)
	b = jsonPtr(append(b, `,"VLAN":`...), c.VLAN, jsonVLAN)
	b = jsonInt(b, `,"VLANID":`, c.VLANID)
	b = jsonAddr(append(b, `,"Gateway":`...), c.Gateway)
	return append(b, '}')
}

func jsonUndo(b []byte, u *Undo) []byte {
	b = chain.AppendString(append(b, `{"Device":`...), u.Device)
	b = chain.AppendString(append(b, `,"Section":`...), u.Section)
	if u.Name != "" {
		b = chain.AppendString(append(b, `,"Name":`...), u.Name)
	}
	if u.VLANID != 0 {
		b = jsonInt(b, `,"VLANID":`, u.VLANID)
	}
	if u.Interface != nil {
		b = jsonInterface(append(b, `,"Interface":`...), u.Interface)
	}
	if u.ACL != nil {
		b = chain.AppendString(append(b, `,"ACL":{"Name":`...), u.ACL.Name)
		b = append(jsonList(append(b, `,"Entries":`...), u.ACL.Entries, jsonEntry), '}')
	}
	if len(u.Routes) > 0 {
		b = jsonList(append(b, `,"Routes":`...), u.Routes, jsonRoute)
	}
	if u.OSPF != nil {
		b = jsonOSPF(append(b, `,"OSPF":`...), u.OSPF)
	}
	if u.BGP != nil {
		b = jsonBGP(append(b, `,"BGP":`...), u.BGP)
	}
	if u.VLAN != nil {
		b = jsonVLAN(append(b, `,"VLAN":`...), u.VLAN)
	}
	if u.Gateway != nil {
		b = jsonAddr(append(b, `,"Gateway":`...), *u.Gateway)
	}
	return append(b, '}')
}

func jsonInterface(b []byte, i *netmodel.Interface) []byte {
	b = chain.AppendString(append(b, `{"Name":`...), i.Name)
	b = chain.AppendString(append(b, `,"Description":`...), i.Description)
	b = jsonPrefix(append(b, `,"Addr":`...), i.Addr)
	b = strconv.AppendBool(append(b, `,"Shutdown":`...), i.Shutdown)
	b = chain.AppendString(append(b, `,"ACLIn":`...), i.ACLIn)
	b = chain.AppendString(append(b, `,"ACLOut":`...), i.ACLOut)
	b = jsonInt(b, `,"Mode":`, int(i.Mode))
	b = jsonInt(b, `,"AccessVLAN":`, i.AccessVLAN)
	b = jsonList(append(b, `,"TrunkVLANs":`...), i.TrunkVLANs, func(b []byte, v *int) []byte { return jsonInt(b, "", *v) })
	b = jsonInt(b, `,"OSPFCost":`, i.OSPFCost)
	return append(b, '}')
}

func jsonEntry(b []byte, e *netmodel.ACLEntry) []byte {
	b = jsonInt(b, `{"Seq":`, e.Seq)
	b = jsonInt(b, `,"Action":`, int(e.Action))
	b = jsonInt(b, `,"Proto":`, int(e.Proto))
	b = jsonPrefix(append(b, `,"Src":`...), e.Src)
	b = jsonPrefix(append(b, `,"Dst":`...), e.Dst)
	b = jsonInt(b, `,"SrcPort":`, int(e.SrcPort))
	b = jsonInt(b, `,"DstPort":`, int(e.DstPort))
	return append(b, '}')
}

func jsonRoute(b []byte, r *netmodel.StaticRoute) []byte {
	b = jsonPrefix(append(b, `{"Prefix":`...), r.Prefix)
	b = jsonAddr(append(b, `,"NextHop":`...), r.NextHop)
	return append(jsonInt(b, `,"Distance":`, r.Distance), '}')
}

func jsonOSPF(b []byte, o *netmodel.OSPFProcess) []byte {
	b = jsonInt(b, `{"ProcessID":`, o.ProcessID)
	b = jsonAddr(append(b, `,"RouterID":`...), o.RouterID)
	b = jsonList(append(b, `,"Networks":`...), o.Networks, jsonArea)
	b = jsonList(append(b, `,"Ranges":`...), o.Ranges, jsonArea)
	b = append(b, `,"Passive":`...)
	if o.Passive == nil {
		return append(b, "null}"...)
	}
	keys := make([]string, 0, 8) // on the stack for a process with up to 8 passive interfaces
	for k := range o.Passive {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(append(chain.AppendString(b, k), ':'), o.Passive[k])
	}
	return append(b, "}}"...)
}

func jsonArea(b []byte, n *netmodel.OSPFNetwork) []byte {
	b = jsonPrefix(append(b, `{"Prefix":`...), n.Prefix)
	return append(jsonInt(b, `,"Area":`, n.Area), '}')
}

func jsonBGP(b []byte, p *netmodel.BGPProcess) []byte {
	b = jsonInt(b, `{"LocalAS":`, p.LocalAS)
	b = jsonAddr(append(b, `,"RouterID":`...), p.RouterID)
	b = jsonList(append(b, `,"Neighbors":`...), p.Neighbors, func(b []byte, n *netmodel.BGPNeighbor) []byte {
		b = jsonAddr(append(b, `{"Addr":`...), n.Addr)
		return append(jsonInt(b, `,"RemoteAS":`, n.RemoteAS), '}')
	})
	b = jsonList(append(b, `,"Networks":`...), p.Networks, func(b []byte, p *netip.Prefix) []byte { return jsonPrefix(b, *p) })
	b = strconv.AppendBool(append(b, `,"RedistributeConnected":`...), p.RedistributeConnected)
	return append(b, '}')
}

func jsonVLAN(b []byte, v *netmodel.VLAN) []byte {
	b = jsonInt(b, `{"ID":`, v.ID)
	return append(chain.AppendString(append(b, `,"Name":`...), v.Name), '}')
}

// jsonInt appends key, then v in decimal.
func jsonInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// jsonPtr appends *v by enc, or null for a nil v.
func jsonPtr[E any](b []byte, v *E, enc func([]byte, *E) []byte) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	return enc(b, v)
}

// jsonList appends v as an array of elements each encoded by enc, or
// null for a nil v.
func jsonList[E any](b []byte, v []E, enc func([]byte, *E) []byte) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = enc(b, &v[i])
	}
	return append(b, ']')
}

func jsonAddr(b []byte, a netip.Addr) []byte { return jsonQuoted(a.AppendTo(append(b, '"')), len(b)) }

func jsonPrefix(b []byte, p netip.Prefix) []byte {
	return jsonQuoted(p.AppendTo(append(b, '"')), len(b))
}

// jsonQuoted closes the JSON string that opens at b[open] and holds the text of
// an address or a prefix (AppendTo writes what MarshalText does). Only a
// zone can hold a byte that needs escaping; text that has one is escaped
// again as a string.
func jsonQuoted(b []byte, open int) []byte {
	for _, c := range b[open+1:] {
		if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return chain.AppendString(b[:open], string(b[open+1:]))
		}
	}
	return append(b, '"')
}
