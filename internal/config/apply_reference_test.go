package config_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/enforcer"
	"heimdall/internal/netmodel"
)

// applyInPlace is ApplyChange as it was before it became persistent: it
// writes d itself. ApplyChange's result must print as d does after it.
func applyInPlace(d *netmodel.Device, c config.Change) error {
	if d.Name != c.Device {
		return fmt.Errorf("config: change for %s applied to %s", c.Device, d.Name)
	}
	switch c.Op {
	case config.OpAddInterface, config.OpSetInterface:
		d.Interfaces[c.Interface.Name] = c.Interface.Clone()
	case config.OpAddACLEntry:
		d.ACL(c.ACLName, true).InsertEntry(*c.Entry)
	case config.OpSetACLEntry:
		a := d.ACL(c.ACLName, false)
		if a == nil || !a.RemoveEntry(c.Entry.Seq) {
			return fmt.Errorf("config: %s: no entry %s seq %d", d.Name, c.ACLName, c.Entry.Seq)
		}
		a.InsertEntry(*c.Entry)
	case config.OpRemoveACLEntry:
		a := d.ACL(c.ACLName, false)
		if a == nil || !a.RemoveEntry(c.Seq) {
			return fmt.Errorf("config: %s: no entry %s seq %d", d.Name, c.ACLName, c.Seq)
		}
	case config.OpRemoveACL:
		if _, ok := d.ACLs[c.ACLName]; !ok {
			return fmt.Errorf("config: %s: no ACL %s", d.Name, c.ACLName)
		}
		delete(d.ACLs, c.ACLName)
	case config.OpAddACL:
		if _, ok := d.ACLs[c.ACLName]; ok {
			return fmt.Errorf("config: %s: ACL %s exists", d.Name, c.ACLName)
		}
		d.ACL(c.ACLName, true)
	case config.OpAddStaticRoute:
		d.StaticRoutes = append(d.StaticRoutes, *c.Route)
	case config.OpRemoveStaticRoute:
		for i, r := range d.StaticRoutes {
			if r == *c.Route {
				d.StaticRoutes = append(d.StaticRoutes[:i], d.StaticRoutes[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: %s: no route %s via %s", d.Name, c.Route.Prefix, c.Route.NextHop)
	case config.OpSetOSPF:
		d.OSPF = c.OSPF.Clone()
	case config.OpRemoveOSPF:
		d.OSPF = nil
	case config.OpSetBGP:
		d.BGP = c.BGP.Clone()
	case config.OpRemoveBGP:
		d.BGP = nil
	case config.OpSetVLAN:
		v := *c.VLAN
		d.VLANs[v.ID] = &v
	case config.OpRemoveVLAN:
		if _, ok := d.VLANs[c.VLANID]; !ok {
			return fmt.Errorf("config: %s: no VLAN %d", d.Name, c.VLANID)
		}
		delete(d.VLANs, c.VLANID)
	case config.OpSetGateway:
		d.DefaultGateway = c.Gateway
	default:
		return fmt.Errorf("config: unknown op %v", c.Op)
	}
	return nil
}

// applyHolds pushes the diff from pre to edited, in Schedule's order, one
// change at a time through ApplyChange and through applyInPlace on a clone
// of pre. Every step's result must print as the reference does, and every
// device an earlier step left (pre among them) must print as it did: a
// result shares what its change did not write, so a write to a shared
// section shows on its source. It returns the change set.
func applyHolds(t *testing.T, pre, edited *netmodel.Device) []config.Change {
	t.Helper()
	changes := enforcer.Schedule(config.DiffDevice(pre, edited))
	ref := pre.Clone()
	steps := []*netmodel.Device{pre}
	prints := []string{config.Print(pre)}
	for _, c := range changes {
		got, err := config.ApplyChange(steps[len(steps)-1], c)
		if wantErr := applyInPlace(ref, c); (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: %v: ApplyChange says %v, the in-place reference %v", pre.Name, c, err, wantErr)
		} else if err != nil {
			continue
		}
		if g, w := config.Print(got), config.Print(ref); g != w {
			t.Fatalf("%s: %v: ApplyChange's result\n%s\nthe in-place reference\n%s", pre.Name, c, g, w)
		}
		for i, d := range steps {
			if config.Print(d) != prints[i] {
				t.Fatalf("%s: %v wrote the device %d steps before it", pre.Name, c, len(steps)-i)
			}
		}
		steps, prints = append(steps, got), append(prints, config.Print(got))
	}
	return changes
}

// TestApplyLeavesSource: over every device of six scenario families,
// seeded random change sets covering every op, both diff directions, hold
// applyHolds' properties.
func TestApplyLeavesSource(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	ops := map[config.Op]int{}
	for _, n := range diffScenarios() {
		for _, name := range n.DeviceNames() {
			for trial := 0; trial < 3; trial++ {
				for _, c := range editsApply(t, r, n.Devices[name], 1+r.Intn(6)) {
					ops[c.Op]++
				}
			}
		}
	}
	for op := config.OpAddInterface; op <= config.OpAddACL; op++ {
		if ops[op] == 0 {
			t.Errorf("no change set held %v: %v", op, ops)
		}
	}
}

// editsApply makes k random edits to a copy of d and holds the change sets
// between the two, both ways, to applyHolds' properties.
func editsApply(t *testing.T, r *rand.Rand, d *netmodel.Device, k int) []config.Change {
	t.Helper()
	edited := d.Clone()
	diffEdits(r, edited, k)
	return slices.Concat(applyHolds(t, d, edited), applyHolds(t, edited, d))
}

// FuzzApplyLeavesSource is TestApplyLeavesSource with the scenario, the
// device, the edits and their number fuzzed.
func FuzzApplyLeavesSource(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(uint8(i), int64(i), uint8(4))
	}
	nets := diffScenarios()
	f.Fuzz(func(t *testing.T, scen uint8, seed int64, k uint8) {
		n := nets[int(scen)%len(nets)]
		r := rand.New(rand.NewSource(seed))
		names := n.DeviceNames()
		editsApply(t, r, n.Devices[names[r.Intn(len(names))]], int(k%16))
	})
}
