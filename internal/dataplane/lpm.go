// Package dataplane computes the forwarding behaviour of a modeled network:
// L2 adjacency (switch fabrics, VLANs), per-device routing tables
// (connected, static, OSPF), longest-prefix-match FIBs, and hop-by-hop
// packet traces with ACL evaluation.
//
// A Snapshot freezes the behaviour of one network state. The verifier
// evaluates policies against snapshots; the twin network serves "show" and
// "ping" commands from them.
package dataplane

import (
	"cmp"
	"math/bits"
	"net/netip"
	"slices"
)

// lpmSlot is one prefix of the table. key orders slots by prefix length,
// then masked network address (see slotKey); routes are the FIB entries
// terminating exactly at that prefix.
type lpmSlot struct {
	key    uint64
	routes []FIBEntry
}

// LPM is a longest-prefix-match table mapping IPv4 prefixes to FIB entries.
// The zero value is an empty table.
//
// A router holds a few hundred prefixes over three or four distinct prefix
// lengths, so the table is flat: one key-sorted slice of slots plus a
// bitmask of the lengths present. A lookup masks the address to each
// present length, longest first, and binary-searches for that key. The
// model is IPv4-only: prefixes of another family are not stored and
// addresses of another family match nothing (4-in-6 is unmapped first).
type LPM struct {
	slots   []lpmSlot
	present uint64
}

// slotKey is the sort key of the l-bit prefix containing addr.
func slotKey(addr uint32, l int) uint64 {
	return uint64(l)<<32 | uint64(addr&(^uint32(0)<<(32-uint(l))))
}

// newLPM bulk-fills a table from a RIB whose equal-prefix entries are
// contiguous: each run becomes one slot aliasing the RIB's backing array
// (both are immutable once the snapshot is built), and one sort replaces
// the per-Insert shifting. The result equals calling Insert once per run.
func newLPM(rib []FIBEntry) *LPM {
	runs := 0
	for i := 0; i < len(rib); i = runEnd(rib, i) {
		runs++
	}
	t := &LPM{slots: make([]lpmSlot, 0, runs)}
	for i := 0; i < len(rib); {
		j := runEnd(rib, i)
		if p := rib[i].Prefix; p.Addr().Is4() {
			t.slots = append(t.slots, lpmSlot{key: slotKey(addrBits(p.Addr()), p.Bits()), routes: rib[i:j:j]})
			t.present |= 1 << p.Bits()
		}
		i = j
	}
	slices.SortFunc(t.slots, func(a, b lpmSlot) int { return cmp.Compare(a.key, b.key) })
	for k := 1; k < len(t.slots); k++ {
		if t.slots[k].key == t.slots[k-1].key {
			// Two runs masked to one network (an unmasked prefix in the
			// input): only Insert's replace-in-place says which one wins.
			*t = LPM{}
			for i := 0; i < len(rib); {
				j := runEnd(rib, i)
				t.Insert(rib[i].Prefix, rib[i:j:j])
				i = j
			}
			break
		}
	}
	return t
}

// runEnd returns the end of the equal-prefix run starting at rib[i].
func runEnd(rib []FIBEntry, i int) int {
	j := i + 1
	for j < len(rib) && rib[j].Prefix == rib[i].Prefix {
		j++
	}
	return j
}

// Insert associates the prefix with the given FIB entries, replacing any
// previous entries for exactly that prefix.
func (t *LPM) Insert(p netip.Prefix, entries []FIBEntry) {
	if !p.Addr().Is4() {
		return
	}
	key := slotKey(addrBits(p.Addr()), p.Bits())
	i, found := t.search(key)
	if found {
		t.slots[i].routes = entries
		return
	}
	t.slots = slices.Insert(t.slots, i, lpmSlot{key: key, routes: entries})
	t.present |= 1 << p.Bits()
}

// Lookup returns the FIB entries of the longest prefix containing addr and
// whether any prefix matched.
func (t *LPM) Lookup(addr netip.Addr) ([]FIBEntry, bool) {
	addr = addr.Unmap()
	if !addr.Is4() {
		return nil, false
	}
	v := addrBits(addr)
	for m := t.present; m != 0; {
		l := bits.Len64(m) - 1
		m &^= 1 << l
		if i, ok := t.search(slotKey(v, l)); ok {
			return t.slots[i].routes, true
		}
	}
	return nil, false
}

// Len returns the number of distinct prefixes in the table.
func (t *LPM) Len() int { return len(t.slots) }

// search binary-searches the slots, returning the position of key (or
// where it would be inserted) and whether it is present. Hand-rolled: it is
// the inner loop of every traced hop, and slices.BinarySearchFunc's
// comparator call per step makes BenchmarkLPM 2.6x slower.
func (t *LPM) search(key uint64) (int, bool) {
	lo, hi := 0, len(t.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.slots[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.slots) && t.slots[lo].key == key
}

func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
