package config_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/enforcer"
	"heimdall/internal/netmodel"
)

// undoHolds pushes the diff from pre to edited onto a copy of pre in
// Schedule's order, and holds the undos taken from pre — as they are and after a JSON round trip, as Recover reads
// them — to their three properties at every prefix of the push:
//   - undoing the pushed prefix, last change first, prints as pre;
//   - so does undoing every change of the set, landed or not;
//   - undoing the last pushed change twice is undoing it once;
//   - the undo of a change not yet pushed, whose section no pushed change
//     wrote, changes nothing.
//
// It returns the change set.
func undoHolds(t *testing.T, pre, edited *netmodel.Device) []config.Change {
	t.Helper()
	changes := enforcer.Schedule(config.DiffDevice(pre, edited))
	undos := make([]config.Undo, len(changes))
	for i, c := range changes {
		undos[i] = config.UndoOf(pre, c)
	}
	data, err := json.Marshal(undos)
	if err != nil {
		t.Fatal(err)
	}
	var read []config.Undo
	if err := json.Unmarshal(data, &read); err != nil {
		t.Fatal(err)
	}
	want := config.Print(pre)
	restored := func(d *netmodel.Device, us ...config.Undo) string {
		for i := len(us) - 1; i >= 0; i-- {
			var err error
			if d, err = config.RestoreUndo(d, us[i]); err != nil {
				t.Fatal(err)
			}
		}
		return config.Print(d)
	}
	pushed := pre.Clone()
	for n := 0; n <= len(changes); n++ {
		for _, us := range [][]config.Undo{undos, read} {
			if got := restored(pushed, us[:n]...); got != want {
				t.Fatalf("%s: undoing %d of %v does not land the pre-state:\n%s\nwant\n%s", pre.Name, n, changes, got, want)
			}
			if got := restored(pushed, us...); got != want {
				t.Fatalf("%s: undoing all of %v after %d landed does not land the pre-state", pre.Name, changes, n)
			}
			if n > 0 && restored(pushed, us[n-1], us[n-1]) != restored(pushed, us[n-1]) {
				t.Fatalf("%s: undoing %v twice differs from undoing it once", pre.Name, changes[n-1])
			}
			for m := n; m < len(changes); m++ {
				if !writtenBy(us[m], changes[:n]) && restored(pushed, us[m]) != config.Print(pushed) {
					t.Fatalf("%s: undoing %v, which never landed, changed the device", pre.Name, changes[m])
				}
			}
		}
		if n < len(changes) {
			var err error
			if pushed, err = config.ApplyChange(pushed, changes[n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if config.Print(pre) != want {
		t.Fatalf("%s: the device undos were taken from was written", pre.Name)
	}
	return changes
}

// writtenBy reports whether one of changes writes the section u restores.
func writtenBy(u config.Undo, changes []config.Change) bool {
	for _, c := range changes {
		if u.Undoes(c) {
			return true
		}
	}
	return false
}

// editsUndo makes k random edits of every kind to a copy of d and holds
// the change sets between the two, both ways, to undoHolds' properties.
func editsUndo(t *testing.T, r *rand.Rand, d *netmodel.Device, k int) []config.Change {
	t.Helper()
	edited := d.Clone()
	diffEdits(r, edited, k)
	return append(undoHolds(t, d, edited), undoHolds(t, edited, d)...)
}

// TestUndoRestoresPreState: over every device of six scenario families,
// seeded random change sets covering every op hold undoHolds' properties.
func TestUndoRestoresPreState(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ops := map[config.Op]int{}
	for _, n := range diffScenarios() {
		for _, name := range n.DeviceNames() {
			for trial := 0; trial < 3; trial++ {
				for _, c := range editsUndo(t, r, n.Devices[name], 1+r.Intn(6)) {
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
	t.Logf("changes by op: %v", ops)
}

// FuzzUndoRestoresPreState is TestUndoRestoresPreState with the scenario,
// the device, the edits and their number fuzzed.
func FuzzUndoRestoresPreState(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(uint8(i), int64(i), uint8(4))
	}
	nets := diffScenarios()
	f.Fuzz(func(t *testing.T, scen uint8, seed int64, k uint8) {
		n := nets[int(scen)%len(nets)]
		r := rand.New(rand.NewSource(seed))
		names := n.DeviceNames()
		editsUndo(t, r, n.Devices[names[r.Intn(len(names))]], int(k%16))
	})
}
