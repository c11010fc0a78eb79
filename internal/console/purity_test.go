package console

import (
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// commandCorpus is a broad sample of every command family the console
// accepts, used for classification-invariant tests.
var commandCorpus = []string{
	"show running-config",
	"show ip route",
	"show interfaces",
	"show interfaces Gi0/0",
	"show access-lists",
	"show access-lists EDGE",
	"show vlan",
	"show ip ospf neighbor",
	"show ip bgp",
	"ping h2",
	"ping 10.2.0.10 tcp 80",
	"traceroute h2",
	"interface Gi0/0 shutdown",
	"interface Gi0/0 no shutdown",
	"interface Gi0/0 ip address 10.1.0.2 255.255.255.0",
	"interface Gi0/0 ip access-group EDGE in",
	"interface Gi0/0 no ip access-group in",
	"interface Gi0/0 switchport access vlan 10",
	"interface Gi0/0 ip ospf cost 5",
	"access-list EDGE 30 permit tcp any any eq 443",
	"no access-list EDGE 10",
	"ip route 192.168.0.0 255.255.0.0 10.2.0.10",
	"no ip route 192.168.0.0 255.255.0.0 10.2.0.10",
	"ip default-gateway 10.1.0.1",
	"router ospf passive-interface Gi0/0",
	"router ospf no passive-interface Gi0/0",
	"router ospf network 10.0.0.0 0.255.255.255 area 0",
	"router bgp 65001 neighbor 10.2.0.10 remote-as 65002",
	"router bgp 65001 network 10.1.0.0 mask 255.255.255.0",
	"vlan 40 name lab",
	"no vlan 10",
}

// TestReadCommandsArePure checks the central classification invariant the
// reference monitor depends on: a command parsed with Write=false must not
// change the network — not its device, and no entry of the device map —
// and one with Write=true (that executes successfully) must be reflected in
// the semantic state or be a genuine no-op.
func TestReadCommandsArePure(t *testing.T) {
	for _, line := range commandCorpus {
		n := testNet()
		n.Devices["r1"].VLANs[10] = n.Devices["r1"].VLANs[10] // keep as-is
		env := NewEnv(n)
		con := New("r1", env)
		cmd, err := con.Parse(line)
		if err != nil {
			t.Fatalf("corpus command %q no longer parses: %v", line, err)
		}
		before, held := n.Clone(), maps.Clone(n.Devices)
		_, execErr := con.Execute(cmd)
		if !cmd.Write {
			if !reflect.DeepEqual(before.Devices["r1"], n.Devices["r1"]) {
				t.Errorf("%q is classified read-only but mutated the device", line)
			}
			if !maps.Equal(held, n.Devices) {
				t.Errorf("%q is classified read-only but replaced a device", line)
			}
		}
		if cmd.Action == "" || cmd.Resource == "" {
			t.Errorf("%q: empty action/resource classification", line)
		}
		if !strings.HasPrefix(cmd.Resource, "device:r1") {
			t.Errorf("%q: resource %q not scoped to the device", line, cmd.Resource)
		}
		// Write commands must carry a config.* action; reads never do.
		isConfig := strings.HasPrefix(cmd.Action, "config.")
		if cmd.Write != isConfig {
			t.Errorf("%q: Write=%v but action=%q", line, cmd.Write, cmd.Action)
		}
		_ = execErr // some corpus commands legitimately fail on this net
	}
}

// TestParseNeverPanics throws random token soup at the parser.
func TestParseNeverPanics(t *testing.T) {
	words := []string{
		"show", "ip", "route", "interface", "Gi0/0", "no", "shutdown",
		"access-list", "permit", "deny", "any", "host", "eq", "80", "vlan",
		"router", "ospf", "bgp", "network", "mask", "area", "neighbor",
		"remote-as", "255.255.255.0", "10.0.0.1", "0.0.0.255", "name",
		"ping", "traceroute", "default-gateway", "cost", "passive-interface",
		"", "🦊", "-1", "999999999999999999999",
	}
	r := rand.New(rand.NewSource(123))
	con := New("r1", NewEnv(testNet()))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(8)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		line := strings.Join(parts, " ")
		// Must not panic; errors are expected and fine.
		cmd, err := con.Parse(line)
		if err == nil && (cmd.Action == "" || cmd.Resource == "") {
			t.Fatalf("accepted %q without classification", line)
		}
	}
}

// TestExecuteNeverPanics also executes whatever random soup parses.
func TestExecuteNeverPanics(t *testing.T) {
	words := []string{
		"show", "ip", "route", "interface", "Gi0/0", "Gi9/9", "no",
		"shutdown", "access-list", "EDGE", "10", "permit", "deny", "any",
		"vlan", "20", "name", "x", "router", "ospf", "bgp", "65001",
		"ping", "h2", "tcp", "80", "10.0.0.1", "255.0.0.0",
	}
	r := rand.New(rand.NewSource(321))
	env := NewEnv(testNet())
	con := New("r1", env)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(8)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		cmd, err := con.Parse(strings.Join(parts, " "))
		if err != nil {
			continue
		}
		_, _ = con.Execute(cmd) // must not panic
	}
}
