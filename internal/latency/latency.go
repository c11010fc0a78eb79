// Package latency models the wall-clock costs of the paper's pilot study
// (Figure 7). Our emulated devices execute commands in microseconds, so the
// human-scale step costs (connecting to consoles, command round trips,
// policy verification) are modeled with a calibrated virtual clock instead
// of being measured. The calibration constants come from the paper's own
// numbers: checking 175 constraints takes ~25 s (§4.3), and Heimdall's
// extra steps add 15 s (simple issue) to 42 s (complex issue), 28 s on
// average, over the direct approach.
package latency

import (
	"fmt"
	"strings"
	"time"
)

// Model holds the per-step cost constants.
type Model struct {
	// Connect is the cost of logging into a console.
	Connect time.Duration
	// Command is the round-trip cost of one console command.
	Command time.Duration
	// Save is the cost of persisting changes (both approaches).
	Save time.Duration

	// GenPrivilege is Heimdall's Privilegemsp generation step.
	GenPrivilege time.Duration
	// TwinSetupBase + TwinSetupPerDevice model twin instantiation: a fixed
	// orchestration cost plus a per-emulated-device boot cost for the
	// devices in the slice. L2 switches carry an extra surcharge: booting
	// a switch image and materialising its per-VLAN fabric state is the
	// costliest emulation step, which is what made the paper's VLAN
	// ticket its most expensive issue (42 s overhead).
	TwinSetupBase      time.Duration
	TwinSetupPerDevice time.Duration
	TwinSetupPerSwitch time.Duration
	// VerifyPerPolicy is the verification cost per checked policy,
	// calibrated to 25 s / 175 policies ≈ 143 ms.
	VerifyPerPolicy time.Duration
	// SchedulePerChange is the cost of ordering and pushing one change.
	SchedulePerChange time.Duration
}

// Default returns the calibrated model.
func Default() Model {
	return Model{
		Connect:            2 * time.Second,
		Command:            1500 * time.Millisecond,
		Save:               3 * time.Second,
		GenPrivilege:       2 * time.Second,
		TwinSetupBase:      3 * time.Second,
		TwinSetupPerDevice: 800 * time.Millisecond,
		TwinSetupPerSwitch: 10 * time.Second,
		VerifyPerPolicy:    143 * time.Millisecond,
		SchedulePerChange:  1 * time.Second,
	}
}

// Step is one named phase of a resolution run.
type Step struct {
	Name     string
	Duration time.Duration
}

// Breakdown is the per-step timing of one issue resolution, the unit
// Figure 7 plots.
type Breakdown struct {
	Approach string // "Current" or "Heimdall"
	Issue    string
	Steps    []Step
}

// Total sums the step durations.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, s := range b.Steps {
		t += s.Duration
	}
	return t
}

// Add appends a step.
func (b *Breakdown) Add(name string, d time.Duration) {
	b.Steps = append(b.Steps, Step{Name: name, Duration: d})
}

// String renders the breakdown as one table row.
func (b *Breakdown) String() string {
	var parts []string
	for _, s := range b.Steps {
		parts = append(parts, fmt.Sprintf("%s=%.1fs", s.Name, s.Duration.Seconds()))
	}
	return fmt.Sprintf("%-8s %-6s total=%5.1fs  (%s)",
		b.Approach, b.Issue, b.Total().Seconds(), strings.Join(parts, " "))
}

// Current models the direct-access workflow: connect, run the prepared
// command list, save.
func (m Model) Current(issue string, commands int) *Breakdown {
	b := &Breakdown{Approach: "Current", Issue: issue}
	b.Add("connect", m.Connect)
	b.Add("operate", time.Duration(commands)*m.Command)
	b.Add("save", m.Save)
	return b
}

// Heimdall models the twin workflow: generate the Privilegemsp, set up the
// twin (scaled by slice size, with the switch surcharge), run the same
// prepared command list, verify (scaled by checked policies), schedule the
// changes, save.
func (m Model) Heimdall(issue string, commands, sliceDevices, sliceSwitches, policiesChecked, changes int) *Breakdown {
	b := &Breakdown{Approach: "Heimdall", Issue: issue}
	b.Add("connect", m.Connect)
	b.Add("gen-privilege", m.GenPrivilege)
	b.Add("twin-setup", m.TwinSetupBase+
		time.Duration(sliceDevices)*m.TwinSetupPerDevice+
		time.Duration(sliceSwitches)*m.TwinSetupPerSwitch)
	b.Add("operate", time.Duration(commands)*m.Command)
	b.Add("verify", time.Duration(policiesChecked)*m.VerifyPerPolicy)
	b.Add("schedule", time.Duration(changes)*m.SchedulePerChange)
	b.Add("save", m.Save)
	return b
}

// Overhead returns how much longer the Heimdall run takes than the current
// run for the same issue.
func Overhead(current, heimdall *Breakdown) time.Duration {
	return heimdall.Total() - current.Total()
}
