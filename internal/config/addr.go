// Package config translates between vendor-style (Cisco IOS-like)
// configuration text and the netmodel semantic model. It provides a parser,
// a canonical printer, and a semantic differ whose output drives the policy
// enforcer's change scheduler.
package config

import (
	"fmt"
	"math/bits"
	"net/netip"
)

// maskToBits converts a dotted-quad netmask (255.255.255.0) to a prefix
// length. It rejects non-contiguous masks.
func maskToBits(mask string) (int, error) {
	a, err := netip.ParseAddr(mask)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("config: bad netmask %q", mask)
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	ones := bits.OnesCount32(v)
	if v != ^uint32(0)<<(32-ones) && v != 0 {
		return 0, fmt.Errorf("config: non-contiguous netmask %q", mask)
	}
	return ones, nil
}

// wildcardToBits converts an IOS wildcard mask (0.0.0.255) to a prefix
// length. It rejects non-contiguous wildcards.
func wildcardToBits(wc string) (int, error) {
	a, err := netip.ParseAddr(wc)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("config: bad wildcard %q", wc)
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	inv := ^v
	ones := bits.OnesCount32(inv)
	if inv != ^uint32(0)<<(32-ones) && inv != 0 {
		return 0, fmt.Errorf("config: non-contiguous wildcard %q", wc)
	}
	return ones, nil
}

// ParseAddrMask combines an address and netmask into a prefix, keeping the
// host bits (the interface address form: 10.0.0.1 255.255.255.0 -> 10.0.0.1/24).
func ParseAddrMask(addr, mask string) (netip.Prefix, error) {
	return parseAddrMask(addr, mask)
}

// ParseNetWildcard combines a network address and IOS wildcard mask into a
// masked prefix (10.1.2.0 0.0.0.255 -> 10.1.2.0/24).
func ParseNetWildcard(addr, wc string) (netip.Prefix, error) {
	return parseNetWildcard(addr, wc)
}

// parseAddrMask combines an address and netmask into a prefix, keeping the
// host bits (the interface address form: 10.0.0.1 255.255.255.0 -> 10.0.0.1/24).
func parseAddrMask(addr, mask string) (netip.Prefix, error) {
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("config: bad address %q", addr)
	}
	ones, err := maskToBits(mask)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, ones), nil
}

// parseNetWildcard combines a network address and wildcard into a masked
// prefix (10.1.2.0 0.0.0.255 -> 10.1.2.0/24).
func parseNetWildcard(addr, wc string) (netip.Prefix, error) {
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("config: bad network %q", addr)
	}
	ones, err := wildcardToBits(wc)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, ones).Masked(), nil
}

// appendMask appends a prefix length as a dotted-quad netmask.
func appendMask(b []byte, ones int) []byte { return appendQuad(b, maskOf(ones)) }

// appendWildcard appends a prefix length as an IOS wildcard mask.
func appendWildcard(b []byte, ones int) []byte { return appendQuad(b, ^maskOf(ones)) }

func maskOf(ones int) uint32 {
	if ones <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - ones)
}

func appendQuad(b []byte, v uint32) []byte {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}).AppendTo(b)
}
