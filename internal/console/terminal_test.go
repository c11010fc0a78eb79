package console

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"heimdall/internal/netmodel"
)

func newTerminal(t *testing.T) (*Terminal, *netmodel.Network) {
	t.Helper()
	n := testNet()
	env := NewEnv(n)
	con := New("r1", env)
	return NewTerminal(con.Run), n
}

func TestTerminalModalConfig(t *testing.T) {
	term, n := newTerminal(t)

	if term.Prompt() != "#" || term.InConfigMode() {
		t.Fatalf("initial prompt = %q", term.Prompt())
	}
	// Exec-mode commands work directly.
	out, err := term.Input("show ip route")
	if err != nil || !strings.Contains(out, "directly connected") {
		t.Fatalf("show in exec mode: %q %v", out, err)
	}
	// Config statements require conf t.
	if _, err := term.Input("interface Gi0/1"); err == nil {
		t.Fatal("config statement accepted in exec mode")
	}

	steps := []struct{ line, prompt string }{
		{"configure terminal", "(config)#"},
		{"interface Gi0/1", "(config-if)#"},
		{"shutdown", "(config-if)#"},
		{"exit", "(config)#"},
		{"ip access-list extended EDGE", "(config-acl)#"},
		{"5 deny tcp any host 10.2.0.10 eq 443", "(config-acl)#"},
		{"exit", "(config)#"},
		{"vlan 30", "(config-vlan)#"},
		{"name mgmt", "(config-vlan)#"},
		{"exit", "(config)#"},
		{"router ospf 1", "(config-router)#"},
		{"passive-interface Gi0/0", "(config-router)#"},
		{"end", "#"},
	}
	for _, st := range steps {
		if _, err := term.Input(st.line); err != nil {
			t.Fatalf("%q: %v", st.line, err)
		}
		if term.Prompt() != st.prompt {
			t.Fatalf("%q: prompt = %q, want %q", st.line, term.Prompt(), st.prompt)
		}
	}

	r1 := n.Devices["r1"]
	if !r1.Interface("Gi0/1").Shutdown {
		t.Error("interface sub-mode shutdown not applied")
	}
	if got := r1.ACLs["EDGE"].Entries[0]; got.Seq != 5 || got.DstPort != 443 {
		t.Errorf("ACL sub-mode entry = %+v", got)
	}
	if r1.VLANs[30] == nil || r1.VLANs[30].Name != "mgmt" {
		t.Error("vlan sub-mode not applied")
	}
	if !r1.OSPF.Passive["Gi0/0"] {
		t.Error("router sub-mode not applied")
	}
}

func TestTerminalDoAndNo(t *testing.T) {
	term, n := newTerminal(t)
	script := `
configure terminal
ip route 192.168.9.0 255.255.255.0 10.2.0.10
do show ip route
ip access-list extended EDGE
no 10
end
show access-lists EDGE
`
	out, err := term.Script(script)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "192.168.9.0/24") {
		t.Fatalf("do-command output missing route:\n%s", out)
	}
	if len(n.Devices["r1"].ACLs["EDGE"].Entries) != 0 {
		t.Fatal("no <seq> in ACL sub-mode did not remove the entry")
	}
	if len(n.Devices["r1"].StaticRoutes) != 1 {
		t.Fatal("global config statement not applied")
	}
}

func TestTerminalBGPSubMode(t *testing.T) {
	n := testNet()
	n.Devices["r1"].BGP = &netmodel.BGPProcess{LocalAS: 65001}
	term := NewTerminal(New("r1", NewEnv(n)).Run)
	script := `
configure terminal
router bgp 65001
neighbor 10.2.0.10 remote-as 65002
network 10.1.0.0 mask 255.255.255.0
end
`
	if _, err := term.Script(script); err != nil {
		t.Fatal(err)
	}
	g := n.Devices["r1"].BGP
	if g.Neighbor(netip.MustParseAddr("10.2.0.10")) == nil || len(g.Networks) != 1 {
		t.Fatalf("BGP sub-mode not applied: %+v", g)
	}
}

func TestTerminalErrors(t *testing.T) {
	term, _ := newTerminal(t)
	if _, err := term.Input("configure terminal"); err != nil {
		t.Fatal(err)
	}
	if _, err := term.Input("configure terminal"); err == nil {
		t.Fatal("nested conf t accepted")
	}
	// Errors from the runner propagate with the line context via Script.
	term2, _ := newTerminal(t)
	_, err := term2.Script("configure terminal\ninterface Gi9/9\nshutdown\n")
	if err == nil || !strings.Contains(err.Error(), "Gi9/9") && !strings.Contains(err.Error(), "line") {
		t.Fatalf("script error context: %v", err)
	}
	// Blank lines and comments are skipped.
	if _, err := term.Script("\n! comment\n\n"); err != nil {
		t.Fatal(err)
	}
	// exit in exec mode is a no-op.
	if _, err := term.Input("exit"); err != nil {
		t.Fatal(err)
	}
}

// TestTerminalOverTwinMediation proves the modal terminal composes with the
// twin's reference monitor: the same Runner signature, the same denials.
func TestTerminalMediationComposes(t *testing.T) {
	denied := func(line string) (string, error) {
		if strings.HasPrefix(line, "show") {
			return "ok", nil
		}
		return "", &deniedErr{}
	}
	term := NewTerminal(denied)
	if out, err := term.Input("show ip route"); err != nil || out != "ok" {
		t.Fatalf("read: %q %v", out, err)
	}
	if _, err := term.Input("configure terminal"); err != nil {
		t.Fatal(err)
	}
	if _, err := term.Input("interface Gi0/0"); err != nil {
		t.Fatal(err) // mode entry is local, no command issued yet
	}
	if _, err := term.Input("shutdown"); err == nil {
		t.Fatal("denied write should propagate")
	}
}

type deniedErr struct{}

func (*deniedErr) Error() string { return "permission denied" }

// Script feeds a multi-line modal script through the terminal, returning
// the concatenated non-empty outputs. It stops at the first error. It is
// the tests' shorthand; a session feeds the terminal line by line.
func (t *Terminal) Script(text string) (string, error) {
	var outputs []string
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "!") {
			continue
		}
		out, err := t.Input(trimmed)
		if err != nil {
			return strings.Join(outputs, "\n"), fmt.Errorf("console: line %d (%q): %w", i+1, trimmed, err)
		}
		if out != "" {
			outputs = append(outputs, out)
		}
	}
	return strings.Join(outputs, "\n"), nil
}
