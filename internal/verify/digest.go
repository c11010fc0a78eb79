package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"slices"

	"heimdall/internal/config"
	"heimdall/internal/netmodel"
)

// ChangeSetDigest returns a canonical content digest of a change set: two
// change sets digest equal exactly when their changes are deeply equal, the
// same operations with the same payloads in the same order. The enforcer's
// review cache keys on it — two technicians replaying the same scripted
// ticket produce the same twin diff, so their reviews share one
// verification.
//
// The encoding writes every exported field of config.Change and of its
// payloads in declaration order, each self-delimiting (enc), and is hashed
// with SHA-256. A field it leaves out would serve one change set another's
// verdict: the field-coverage test fails it.
func ChangeSetDigest(changes []config.Change) string {
	var buf [512]byte
	e := enc(buf[:0])
	for i := range changes {
		e = e.change(&changes[i])
	}
	sum := sha256.Sum256(e)
	return hex.EncodeToString(sum[:])
}

// enc is an encoding under construction. A string is its length and bytes;
// a slice or map its length plus one and its elements (a map's in key
// order), 0 when nil; a pointer 1 and its fields, 0 when nil; a bool 1 or
// 0; an address its family, its 16 bytes and its zone.
type enc []byte

func (e enc) int(v int) enc    { return binary.AppendVarint(e, int64(v)) }
func (e enc) str(s string) enc { return append(binary.AppendUvarint(e, uint64(len(s))), s...) }
func (e enc) bool(v bool) enc  { return e.n(!v, 0) }

// n writes 0 when isNil, else n plus one: a slice's or map's length, or 0
// for a pointer that is set and a bool that is true.
func (e enc) n(isNil bool, n int) enc {
	if isNil {
		return append(e, 0)
	}
	return binary.AppendUvarint(e, uint64(n)+1)
}

func (e enc) addr(a netip.Addr) enc {
	b := a.As16()
	return append(append(e, byte(a.BitLen()/32)), b[:]...).str(a.Zone())
}

func (e enc) prefix(p netip.Prefix) enc { return e.addr(p.Addr()).int(p.Bits()) }

func (e enc) change(c *config.Change) enc {
	e = e.str(c.Device).int(int(c.Op)).n(c.Interface == nil, 0)
	if i := c.Interface; i != nil {
		e = e.str(i.Name).str(i.Description).prefix(i.Addr).bool(i.Shutdown).str(i.ACLIn).str(i.ACLOut).
			int(int(i.Mode)).int(i.AccessVLAN).n(i.TrunkVLANs == nil, len(i.TrunkVLANs))
		for _, v := range i.TrunkVLANs {
			e = e.int(v)
		}
		e = e.int(i.OSPFCost)
	}
	e = e.str(c.ACLName).n(c.Entry == nil, 0)
	if a := c.Entry; a != nil {
		e = e.int(a.Seq).int(int(a.Action)).int(int(a.Proto)).prefix(a.Src).prefix(a.Dst).int(int(a.SrcPort)).int(int(a.DstPort))
	}
	e = e.int(c.Seq).n(c.Route == nil, 0)
	if r := c.Route; r != nil {
		e = e.prefix(r.Prefix).addr(r.NextHop).int(r.Distance)
	}
	e = e.n(c.OSPF == nil, 0)
	if o := c.OSPF; o != nil {
		e = e.int(o.ProcessID).addr(o.RouterID)
		for _, areas := range [][]netmodel.OSPFNetwork{o.Networks, o.Ranges} {
			e = e.n(areas == nil, len(areas))
			for _, a := range areas {
				e = e.prefix(a.Prefix).int(a.Area)
			}
		}
		passive := make([]string, 0, len(o.Passive))
		for itf := range o.Passive {
			passive = append(passive, itf)
		}
		slices.Sort(passive)
		e = e.n(o.Passive == nil, len(passive))
		for _, itf := range passive {
			e = e.str(itf).bool(o.Passive[itf])
		}
	}
	e = e.n(c.BGP == nil, 0)
	if g := c.BGP; g != nil {
		e = e.int(g.LocalAS).addr(g.RouterID).n(g.Neighbors == nil, len(g.Neighbors))
		for _, nb := range g.Neighbors {
			e = e.addr(nb.Addr).int(nb.RemoteAS)
		}
		e = e.n(g.Networks == nil, len(g.Networks))
		for _, p := range g.Networks {
			e = e.prefix(p)
		}
		e = e.bool(g.RedistributeConnected)
	}
	e = e.n(c.VLAN == nil, 0)
	if v := c.VLAN; v != nil {
		e = e.int(v.ID).str(v.Name)
	}
	return e.int(c.VLANID).addr(c.Gateway)
}
