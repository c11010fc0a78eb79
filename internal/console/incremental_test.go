package console

import (
	"reflect"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

// TestIncrementalSnapshotOracle is the correctness oracle for the
// incremental post-write derivation of NewEnv: after every command
// in a write-heavy script, the environment's snapshot must match a
// from-scratch dataplane.Compute of the same network — routing state on
// every device and end-to-end reachability included. The script mixes
// classified writes (ACL, static route, interface, OSPF, VLAN), a write
// the classifier punts on (ACL application, which falls back to full
// invalidation), and reads that force derivation of the queued changes.
// The seeded case is the twin's: the environment derives its first
// snapshot from another network's (production's) instead of computing its
// own, sharing that snapshot's routing state until the first write.
func TestIncrementalSnapshotOracle(t *testing.T) {
	t.Run("computed", func(t *testing.T) {
		n := testNet()
		incrementalSnapshotOracle(t, n, NewEnv(n))
	})
	t.Run("seeded", func(t *testing.T) {
		prod := testNet()
		n := prod.Clone()
		from := dataplane.Compute(prod)
		env := NewEnvSeeded(n, from)
		if got, want := env.Snapshot().RIB("r1"), from.RIB("r1"); len(want) == 0 || &got[0] != &want[0] {
			t.Fatal("seeded environment computed its own first snapshot")
		}
		incrementalSnapshotOracle(t, n, env)
	})
}

func incrementalSnapshotOracle(t *testing.T, n *netmodel.Network, env *Env) {
	r1 := New("r1", env)

	script := []string{
		"show ip route",
		"access-list EDGE 5 deny tcp any any eq 23",
		"show access-lists EDGE",
		"interface Gi0/1 shutdown",
		"show interfaces",
		"interface Gi0/1 no shutdown",
		"ip route 192.168.0.0 255.255.0.0 10.2.0.10",
		"show ip route",
		"no ip route 192.168.0.0 255.255.0.0 10.2.0.10",
		"no access-list EDGE 5",
		"interface Gi0/0 ip access-group EDGE in", // unclassified write: full recompute path
		"router ospf passive-interface Gi0/0",
		"vlan 40 name lab",
		"ping h2",
	}
	for i, line := range script {
		prev := env.Snapshot()
		if _, err := r1.Run(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		got := env.Snapshot()
		// An ACL write derives: the routing state is the previous
		// snapshot's, not a recomputation that happens to agree.
		if i == 1 && &got.RIB("r1")[0] != &prev.RIB("r1")[0] {
			t.Fatalf("after %q: snapshot recomputed instead of derived", line)
		}
		want := dataplane.Compute(n)
		for dev := range n.Devices {
			if g, w := got.FormatRIB(dev), want.FormatRIB(dev); g != w {
				t.Fatalf("after %q: %s RIB diverged from fresh compute:\nderived:\n%s\nfresh:\n%s",
					line, dev, g, w)
			}
		}
		gotTr, gotErr := got.Reach("h1", "h2", netmodel.TCP, 22)
		wantTr, wantErr := want.Reach("h1", "h2", netmodel.TCP, 22)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("after %q: reachability diverged: derived (%+v, %v) fresh (%+v, %v)",
				line, gotTr, gotErr, wantTr, wantErr)
		}
	}
}

// TestIncrementalSnapshotInvalidate pins that a full invalidation (what an
// unclassified write gets) discards queued incremental changes rather than
// deriving on top of a stale base.
func TestIncrementalSnapshotInvalidate(t *testing.T) {
	n := testNet()
	env := NewEnv(n)
	r1 := New("r1", env)

	env.Snapshot() // warm the cache so writes queue derivations
	if _, err := r1.Run("ip route 192.168.0.0 255.255.0.0 10.2.0.10"); err != nil {
		t.Fatal(err)
	}
	// Out-of-band mutation the console never saw.
	n.Devices["r1"].Interface("Gi0/1").Shutdown = true
	env.invalidate()
	got := env.Snapshot()
	want := dataplane.Compute(n)
	for dev := range n.Devices {
		if g, w := got.FormatRIB(dev), want.FormatRIB(dev); g != w {
			t.Fatalf("%s RIB stale after invalidate:\n%s\nwant:\n%s", dev, g, w)
		}
	}
}
