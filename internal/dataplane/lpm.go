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
	"math/bits"
	"net/netip"
	"slices"
)

// lpm is a longest-prefix-match table over a route list's rows: one slot
// per prefix the rows hold, naming the first row of the prefix's run (the
// routes of one prefix are contiguous in RIB order). The zero value is an
// empty table.
//
// A router holds a few hundred prefixes over three or four distinct prefix
// lengths, so the table is flat: slots sorted by key — the prefix length,
// then the masked network address (slotKey) — each packed above its run's
// position into one integer, plus a bitmask of the lengths present. A
// lookup masks the address to each present length, longest first, and
// binary-searches for that key. The model is IPv4-only: addresses of another
// family match nothing (4-in-6 is unmapped first).
type lpm struct {
	slots   []uint64
	present uint64
}

// posBits is how many low bits of a slot hold its run's position, stored
// as posMax less the position (a key takes the 38 bits above).
const posBits, posMax = 26, 1<<26 - 1

// slotKey is the sort key of the l-bit prefix containing addr.
func slotKey(addr uint32, l int) uint64 {
	return uint64(l)<<32 | uint64(addr&(^uint32(0)<<(32-uint(l))))
}

// newLPM fills a table from rows in RIB order with one integer sort. Two
// runs masked to one network (an unmasked prefix among the rows) share a
// slot, and the later run in RIB order takes it: it sorts first, and the
// compaction keeps the first slot of a key.
func newLPM(rows []route) lpm {
	t := lpm{slots: make([]uint64, 0, len(rows))}
	for i := 0; i < len(rows); i = runEnd(rows, i) {
		t.slots = append(t.slots, slotKey(rows[i].addr, int(rows[i].bits))<<posBits|uint64(posMax-i))
		t.present |= 1 << rows[i].bits
	}
	slices.Sort(t.slots)
	t.slots = slices.CompactFunc(t.slots, func(a, b uint64) bool { return a>>posBits == b>>posBits })
	return t
}

// runEnd returns the end of the equal-prefix run starting at rows[i].
func runEnd(rows []route, i int) int {
	j := i + 1
	for j < len(rows) && rows[j].key == rows[i].key {
		j++
	}
	return j
}

// lookup returns the position of the first row of the longest prefix
// holding addr, and whether any prefix does. Its binary search is
// hand-rolled: it is the inner loop of every traced hop, and
// slices.BinarySearchFunc's comparator call per step made the table's
// lookup 2.6x slower.
func (t *lpm) lookup(addr netip.Addr) (int, bool) {
	addr = addr.Unmap()
	if !addr.Is4() {
		return 0, false
	}
	v := addrBits(addr)
	for m := t.present; m != 0; {
		l := bits.Len64(m) - 1
		m &^= 1 << l
		key := slotKey(v, l)
		lo, hi := 0, len(t.slots)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.slots[mid]>>posBits < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(t.slots) && t.slots[lo]>>posBits == key {
			return posMax - int(t.slots[lo]&posMax), true
		}
	}
	return 0, false
}

func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// bitsAddr is addrBits' inverse.
func bitsAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
