package console

import (
	"fmt"
	"strings"
)

// Runner executes one flat console command line — a direct console's Run, a
// twin session's Exec, or an emergency session's Exec.
type Runner func(line string) (string, error)

// Terminal adds IOS-style modal editing on top of the flat command grammar:
//
//	r1# configure terminal
//	r1(config)# interface Gi0/1
//	r1(config-if)# shutdown
//	r1(config-if)# exit
//	r1(config)# ip access-list extended EDGE
//	r1(config-acl)# 10 permit tcp any any eq 443
//	r1(config-acl)# end
//	r1# show ip route
//
// Each modal line is translated into the equivalent flat command and passed
// to the Runner, so mediation (the reference monitor) sees exactly the same
// (action, resource) classification whichever input style the technician
// uses. The terminal itself holds no device state.
type Terminal struct {
	run Runner
	// mode is the sub-mode context stack: empty = exec mode,
	// ["config"] = global config, ["config", "interface Gi0/1"] = sub-mode.
	mode []string
}

// NewTerminal wraps a Runner in a modal terminal.
func NewTerminal(run Runner) *Terminal {
	return &Terminal{run: run}
}

// Prompt renders the IOS-style prompt suffix for the current mode.
func (t *Terminal) Prompt() string {
	switch {
	case len(t.mode) == 0:
		return "#"
	case len(t.mode) == 1:
		return "(config)#"
	default:
		head := strings.Fields(t.mode[1])[0]
		switch head {
		case "interface":
			return "(config-if)#"
		case "router":
			return "(config-router)#"
		case "ip": // ip access-list
			return "(config-acl)#"
		case "vlan":
			return "(config-vlan)#"
		default:
			return "(config)#"
		}
	}
}

// InConfigMode reports whether the terminal is inside configure terminal.
func (t *Terminal) InConfigMode() bool { return len(t.mode) > 0 }

// Input processes one line of modal input: mode navigation is handled
// locally, everything else is translated to a flat command and executed.
func (t *Terminal) Input(line string) (string, error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" {
		return "", nil
	}
	f := strings.Fields(trimmed)

	switch {
	case trimmed == "exit":
		if len(t.mode) > 0 {
			t.mode = t.mode[:len(t.mode)-1]
		}
		return "", nil
	case trimmed == "end":
		t.mode = nil
		return "", nil
	case trimmed == "configure terminal" || trimmed == "conf t":
		if t.InConfigMode() {
			return "", fmt.Errorf("console: already in configuration mode")
		}
		t.mode = []string{"config"}
		return "", nil
	}

	// Exec mode: flat commands pass through; config commands need conf t.
	if !t.InConfigMode() {
		switch f[0] {
		case "show", "ping", "traceroute":
			return t.run(trimmed)
		}
		return "", fmt.Errorf("console: %q requires configuration mode (try 'configure terminal')", f[0])
	}

	// "do CMD" runs an exec-mode command from inside config mode.
	if f[0] == "do" {
		return t.run(strings.TrimSpace(strings.TrimPrefix(trimmed, "do")))
	}

	// Global config mode: sub-mode entries and direct config statements.
	if len(t.mode) == 1 {
		switch {
		case f[0] == "interface" && len(f) == 2:
			t.mode = append(t.mode, "interface "+f[1])
			return "", nil
		case f[0] == "router" && len(f) == 3 && (f[1] == "ospf" || f[1] == "bgp"):
			t.mode = append(t.mode, trimmed)
			return "", nil
		case f[0] == "ip" && len(f) == 4 && f[1] == "access-list" && f[2] == "extended":
			t.mode = append(t.mode, "ip access-list "+f[3])
			return "", nil
		case f[0] == "vlan" && len(f) == 2:
			t.mode = append(t.mode, "vlan "+f[1])
			return "", nil
		}
		// Direct global statements map 1:1 onto the flat grammar.
		return t.run(trimmed)
	}

	// Inside a sub-mode: translate relative statements.
	sub := strings.Fields(t.mode[1])
	switch sub[0] {
	case "interface":
		return t.run("interface " + sub[1] + " " + trimmed)
	case "router":
		if sub[1] == "ospf" {
			return t.run("router ospf " + trimmed)
		}
		return t.run("router bgp " + sub[2] + " " + trimmed)
	case "ip": // ip access-list NAME
		name := sub[2]
		if f[0] == "no" && len(f) == 2 {
			return t.run("no access-list " + name + " " + f[1])
		}
		return t.run("access-list " + name + " " + trimmed)
	case "vlan":
		return t.run("vlan " + sub[1] + " " + trimmed)
	}
	return "", fmt.Errorf("console: unhandled mode %q", t.mode[1])
}
