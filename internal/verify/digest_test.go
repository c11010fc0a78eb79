package verify

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/config/changegen"
	"heimdall/internal/netmodel"
)

// fullChange is a change with every pointer set, every slice and map
// holding one element and every leaf non-zero.
func fullChange() config.Change {
	p := func(s string) netip.Prefix { return netip.MustParsePrefix(s) }
	a := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	return config.Change{
		Device: "r1", Op: config.OpSetInterface,
		Interface: &netmodel.Interface{Name: "Gi0/1", Description: "uplink", Addr: p("10.0.0.1/30"), Shutdown: true,
			ACLIn: "IN", ACLOut: "OUT", Mode: netmodel.Trunk, AccessVLAN: 10, TrunkVLANs: []int{20}, OSPFCost: 5},
		ACLName: "GUARD",
		Entry: &netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.TCP, Src: p("10.1.0.0/24"),
			Dst: p("10.2.0.0/24"), SrcPort: 1024, DstPort: 22},
		Seq:   30,
		Route: &netmodel.StaticRoute{Prefix: p("10.9.0.0/16"), NextHop: a("10.0.0.2"), Distance: 5},
		OSPF: &netmodel.OSPFProcess{ProcessID: 1, RouterID: a("1.1.1.1"),
			Networks: []netmodel.OSPFNetwork{{Prefix: p("10.0.0.0/8"), Area: 1}},
			Ranges:   []netmodel.OSPFNetwork{{Prefix: p("10.1.0.0/16"), Area: 2}},
			Passive:  map[string]bool{"Gi0/0": true}},
		BGP: &netmodel.BGPProcess{LocalAS: 65000, RouterID: a("2.2.2.2"),
			Neighbors: []netmodel.BGPNeighbor{{Addr: a("10.0.0.2"), RemoteAS: 65001}},
			Networks:  []netip.Prefix{p("192.0.2.0/24")}, RedistributeConnected: true},
		VLAN:    &netmodel.VLAN{ID: 40, Name: "storage"},
		VLANID:  50,
		Gateway: a("fe80::1%eth0"),
	}
}

// mutation is one change to one field of a value, named by its path.
type mutation struct {
	path  string
	apply func()
}

var (
	addrType   = reflect.TypeOf(netip.Addr{})
	prefixType = reflect.TypeOf(netip.Prefix{})
)

// variants returns values of a leaf's type that differ from v: an address
// or a prefix counts as a leaf, a prefix differing by address and by bits.
func variants(t *testing.T, v reflect.Value) []reflect.Value {
	switch {
	case v.Type() == addrType:
		return []reflect.Value{reflect.ValueOf(v.Interface().(netip.Addr).Next())}
	case v.Type() == prefixType:
		p := v.Interface().(netip.Prefix)
		return []reflect.Value{reflect.ValueOf(netip.PrefixFrom(p.Addr().Next(), p.Bits())), reflect.ValueOf(netip.PrefixFrom(p.Addr(), p.Bits()-1))}
	}
	w := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.SetUint(v.Uint() + 1)
	case reflect.String:
		w.SetString(v.String() + "x")
	case reflect.Bool:
		w.SetBool(!v.Bool())
	default:
		t.Fatalf("no variant of a %s leaf: teach the walk this type", v.Type())
	}
	return []reflect.Value{w}
}

// mutations lists every change to v and what it holds: each leaf to each of
// its variants, each pointer to nil, each slice and map to nil, to empty and
// (a slice) one element longer, each map key renamed, down through every
// exported field, slice element and map entry.
func mutations(t *testing.T, v reflect.Value, path string) []mutation {
	var out []mutation
	set := func(path string, w reflect.Value) { out = append(out, mutation{path, func() { v.Set(w) }}) }
	switch {
	case v.Type() == addrType || v.Type() == prefixType || v.Kind() < reflect.Array || v.Kind() == reflect.String:
		for _, w := range variants(t, v) {
			set(path, w)
		}
	case v.Kind() == reflect.Pointer:
		set(path+"=nil", reflect.Zero(v.Type()))
		out = append(out, mutations(t, v.Elem(), path)...)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out = append(out, mutations(t, v.Field(i), path+"."+f.Name)...)
			}
		}
	case v.Kind() == reflect.Slice:
		set(path+"=nil", reflect.Zero(v.Type()))
		set(path+"=empty", reflect.MakeSlice(v.Type(), 0, 0))
		set(path+"+1", reflect.Append(v, v.Index(0)))
		for i := 0; i < v.Len(); i++ {
			out = append(out, mutations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case v.Kind() == reflect.Map:
		set(path+"=nil", reflect.Zero(v.Type()))
		set(path+"=empty", reflect.MakeMap(v.Type()))
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
		for _, k := range keys {
			val := v.MapIndex(k)
			for _, nk := range variants(t, k) {
				out = append(out, mutation{fmt.Sprintf("%s[%v]:key", path, k), func() { v.SetMapIndex(k, reflect.Value{}); v.SetMapIndex(nk, val) }})
			}
			for _, nv := range variants(t, val) {
				out = append(out, mutation{fmt.Sprintf("%s[%v]", path, k), func() { v.SetMapIndex(k, nv) }})
			}
		}
	default:
		t.Fatalf("%s: no walk into a %s: teach the walk this type", path, v.Type())
	}
	return out
}

// TestChangeSetDigestCoversEveryField: changing any exported field of
// config.Change or of its payloads, inside nested slices and maps too,
// changes the digest, so no two reviews that differ in one share a cached
// verdict. The fields are found by reflection: one added later is covered
// the day it is declared, and fails here until the digest encodes it.
func TestChangeSetDigestCoversEveryField(t *testing.T) {
	base := fullChange()
	want := ChangeSetDigest([]config.Change{base})
	if again := fullChange(); ChangeSetDigest([]config.Change{again}) != want {
		t.Fatal("two equal changes digest apart")
	}
	n := len(mutations(t, reflect.ValueOf(&base).Elem(), "Change"))
	for i := 0; i < n; i++ {
		c := fullChange()
		m := mutations(t, reflect.ValueOf(&c).Elem(), "Change")[i]
		m.apply()
		if reflect.DeepEqual(c, base) {
			t.Fatalf("%s: the mutation changed nothing", m.path)
		}
		if ChangeSetDigest([]config.Change{c}) == want {
			t.Errorf("changing %s leaves the digest as it was", m.path)
		}
	}
	t.Logf("%d mutations, each moved the digest", n)
}

// FuzzChangeSetDigest: two change sets digest equal exactly when their
// changes are deeply equal. The second set is decoded from the first's bytes with one
// byte flipped, so the two are often equal — the flip landed where the
// decoder reads nothing, or drew the same value — and as often apart by one
// field.
func FuzzChangeSetDigest(f *testing.F) {
	f.Add([]byte{2, 1, 2, 63, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(3), byte(1))
	f.Add([]byte{3, 3, 0, 8, 2, 1, 1, 1, 1, 2, 2, 3, 3}, uint16(9), byte(0x80))
	f.Add([]byte{1, 4, 9, 32, 1, 2, 1, 2, 2, 2, 2}, uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, at uint16, flip byte) {
		other := slices.Clone(data)
		if len(other) > 0 {
			other[int(at)%len(other)] ^= flip
		}
		a, _ := changegen.Draw(data)
		b, _ := changegen.Draw(other)
		if equal, same := reflect.DeepEqual(a, b), ChangeSetDigest(a) == ChangeSetDigest(b); equal != same {
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			t.Fatalf("deeply equal %v, digests equal %v\na: %s\nb: %s", equal, same, ja, jb)
		}
	})
}
