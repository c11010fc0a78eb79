package console

import (
	"reflect"
	"slices"
	"testing"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
)

// TestIncrementalSnapshotOracle is the correctness oracle for the
// incremental post-write derivation of NewEnv: after every command
// in a write-heavy script, the environment's snapshot must match a
// from-scratch dataplane.Compute of the same network — routing state on
// every device and end-to-end reachability included. The router script
// mixes writes of every class (ACL, static route, interface, ACL
// application, OSPF, VLAN) with reads that force derivation of the queued
// changes. The switch script edits access ports, which the console
// classifies as the enforcer does: an L2-only port edit is dataplane.ChangeL2.
// The seeded case is the twin's: the environment derives its first
// snapshot from another network's (production's) instead of computing its
// own, sharing that snapshot's routing state until the first write.
func TestIncrementalSnapshotOracle(t *testing.T) {
	t.Run("computed", func(t *testing.T) {
		n := testNet()
		incrementalSnapshotOracle(t, n, NewEnv(n), "r1", routerScript, [2]string{"h1", "h2"})
	})
	t.Run("seeded", func(t *testing.T) {
		prod := testNet()
		n := prod.Clone()
		from := dataplane.Compute(prod)
		env := NewEnvSeeded(n, from)
		if got, want := env.Snapshot().RIB("r1"), from.RIB("r1"); len(want) == 0 || &got[0] != &want[0] {
			t.Fatal("seeded environment computed its own first snapshot")
		}
		incrementalSnapshotOracle(t, n, env, "r1", routerScript, [2]string{"h1", "h2"})
	})
	t.Run("switch", func(t *testing.T) {
		n := scenarios.Enterprise().Network
		incrementalSnapshotOracle(t, n, NewEnv(n), "sw2", switchScript, [2]string{"h3", "h1"})
	})
}

// scriptLine is one line of an oracle script, and the change class its
// write must queue (read: a read, which queues none).
type scriptLine struct {
	line string
	kind dataplane.ChangeKind
}

const read dataplane.ChangeKind = -1

var routerScript = []scriptLine{
	{"show ip route", read},
	{"access-list EDGE 5 deny tcp any any eq 23", dataplane.ChangeACL},
	{"show access-lists EDGE", read},
	{"interface Gi0/1 shutdown", dataplane.ChangeL3Topology},
	{"show interfaces", read},
	{"interface Gi0/1 no shutdown", dataplane.ChangeL3Topology},
	{"ip route 192.168.0.0 255.255.0.0 10.2.0.10", dataplane.ChangeStatic},
	{"show ip route", read},
	{"no ip route 192.168.0.0 255.255.0.0 10.2.0.10", dataplane.ChangeStatic},
	{"no access-list EDGE 5", dataplane.ChangeACL},
	{"interface Gi0/0 ip access-group EDGE in", dataplane.ChangeL3Topology},
	{"router ospf passive-interface Gi0/0", dataplane.ChangeOSPF},
	{"vlan 40 name lab", dataplane.ChangeL2},
	{"ping h2", read},
}

// switchScript moves h3's access port on enterprise's sw2 out of its VLAN
// and back, shutting it in between.
var switchScript = []scriptLine{
	{"show ip route", read},
	{"interface Gi1/0/1 switchport access vlan 10", dataplane.ChangeL2},
	{"interface Gi1/0/1 shutdown", dataplane.ChangeL2},
	{"interface Gi1/0/1 no shutdown", dataplane.ChangeL2},
	{"interface Gi1/0/1 switchport access vlan 20", dataplane.ChangeL2},
	{"interface Gi1/0/1 shutdown", dataplane.ChangeL2},
	{"show vlan", read},
	{"interface Gi1/0/1 no shutdown", dataplane.ChangeL2},
}

func incrementalSnapshotOracle(t *testing.T, n *netmodel.Network, env *Env, dev string, script []scriptLine, pair [2]string) {
	con := New(dev, env)
	for i, step := range script {
		prev := env.Snapshot()
		if _, err := con.Run(step.line); err != nil {
			t.Fatalf("%q: %v", step.line, err)
		}
		want := dataplane.ChangeSet{{Device: dev, Kind: step.kind}}
		if step.kind == read {
			want = nil
		}
		if !slices.Equal(env.pending, want) {
			t.Fatalf("%q queued %v, want %v", step.line, env.pending, want)
		}
		got := env.Snapshot()
		// An ACL write derives: the routing state is the previous
		// snapshot's, not a recomputation that happens to agree.
		if i == 1 && step.kind == dataplane.ChangeACL && &got.RIB(dev)[0] != &prev.RIB(dev)[0] {
			t.Fatalf("after %q: snapshot recomputed instead of derived", step.line)
		}
		fresh := dataplane.Compute(n)
		for d := range n.Devices {
			if g, w := got.FormatRIB(d), fresh.FormatRIB(d); g != w {
				t.Fatalf("after %q: %s RIB diverged from fresh compute:\nderived:\n%s\nfresh:\n%s",
					step.line, d, g, w)
			}
		}
		for _, p := range [][2]string{pair, {pair[1], pair[0]}} {
			gotTr, gotErr := got.Reach(p[0], p[1], netmodel.TCP, 22)
			wantTr, wantErr := fresh.Reach(p[0], p[1], netmodel.TCP, 22)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("after %q: reachability %s -> %s diverged: derived (%+v, %v) fresh (%+v, %v)",
					step.line, p[0], p[1], gotTr, gotErr, wantTr, wantErr)
			}
		}
	}
}
