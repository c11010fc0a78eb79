// Package twin implements Heimdall's twin network (paper §4.2): an
// isolated, emulated copy of the production network a technician works on
// instead of the production network itself.
//
// The twin decouples the traditional monolithic emulator into:
//
//   - an emulation layer: a full-fidelity, sanitized clone of every device,
//     so faults reproduce exactly (security comes from mediation, not from
//     omitting devices that might be the root cause);
//   - a presentation layer: the topology view and consoles exposed to the
//     technician, restricted to a task-driven slice of devices relevant to
//     the ticket;
//   - a reference monitor between them that mediates every command against
//     the ticket's Privilegemsp and records every decision in the audit
//     trail.
package twin

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
)

// Config assembles a twin network for one ticket.
type Config struct {
	Ticket     string
	Technician string
	// Production is the network being mimicked; the twin never mutates it.
	Production *netmodel.Network
	// Snapshot, when set, is the dataplane snapshot of Production as it is
	// now. The twin's first snapshot then derives from it instead of being
	// computed from scratch: sanitizing only redacts Secrets, which the
	// dataplane never reads.
	Snapshot *dataplane.Snapshot
	// Spec is the ticket's Privilegemsp enforced by the reference monitor.
	Spec *privilege.Spec
	// Slice is the set of devices visible in the presentation layer.
	// Compute it with ComputeSlice, or pass nil to expose everything
	// (the "All" baseline of the evaluation).
	Slice map[string]bool
	// Trail receives reference-monitor decisions; nil disables auditing.
	Trail *audit.Trail
	// Meter receives reference-monitor metrics (commands mediated,
	// allow/deny decisions per action class, mediation latency); nil
	// means the no-op meter.
	Meter telemetry.Meter
}

// Twin is one instantiated twin network.
type Twin struct {
	ticket     string
	technician string
	spec       *privilege.Spec
	// compiled caches the trie form of spec so the reference monitor
	// checks mediated commands without rescanning the rule list. Callers
	// may extend a ticket's privileges by appending rules (the core engine
	// does), so the cache is keyed by rule count and rebuilt when it grows.
	compiled atomic.Pointer[compiledSpec]
	baseline *netmodel.Network // sanitized clone kept pristine for diffing
	emul     *netmodel.Network // the mutable emulation layer
	slice    map[string]bool   // nil means every device is visible
	env      *console.Env
	trail    *audit.Trail
	meter    telemetry.Meter

	// mu serializes everything that touches the emulation layer or the
	// console environment's snapshot cache: command execution, diffing,
	// and snapshot reads. A twin is shared by every session opened on it
	// (one technician may hold consoles on several devices, and the
	// service layer multiplexes API calls onto the same twin), so the
	// emulation layer itself must be safe for concurrent use.
	mu sync.Mutex
	// written names, sorted, every device an allowed write-class command
	// was dispatched on. The monitor is the emulation layer's only writer
	// and a config command touches only its console's device, so every
	// other device still equals its baseline. changes is the diff of the
	// written devices, current while stale is false.
	written []string
	changes []config.Change
	stale   bool
}

// New builds the twin: the emulation layer is a sanitized deep copy of
// production (secrets redacted), and a second pristine copy is retained as
// the diff baseline.
func New(cfg Config) (*Twin, error) {
	if cfg.Production == nil {
		return nil, fmt.Errorf("twin: nil production network")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("twin: nil Privilegemsp")
	}
	// Sanitize deep-copies each device itself, so the baseline starts from
	// a shell that shares them (and the never-mutated links) with production.
	sanitized := cfg.Production.CloneCOW()
	for name, d := range sanitized.Devices {
		sanitized.Devices[name] = config.Sanitize(d)
	}
	meter := cfg.Meter
	if meter == nil {
		meter = telemetry.Nop()
	}
	tw := &Twin{
		ticket:     cfg.Ticket,
		technician: cfg.Technician,
		spec:       cfg.Spec,
		baseline:   sanitized,
		emul:       sanitized.Clone(),
		slice:      cfg.Slice,
		trail:      cfg.Trail,
		meter:      meter,
	}
	tw.env = console.NewEnvSeeded(tw.emul, cfg.Snapshot)
	// Technician consoles are the emulation layer's only writers (Exec
	// serializes under tw.mu), which is what the env's incremental
	// post-write snapshots require.
	if cfg.Meter != nil {
		tw.env.Meter = cfg.Meter
	}
	tw.log(audit.KindSession, fmt.Sprintf("twin created (%d devices, %d visible)",
		len(tw.emul.Devices), len(tw.VisibleDevices())), true)
	return tw, nil
}

// log appends to the audit trail when one is attached.
func (tw *Twin) log(kind audit.Kind, detail string, allowed bool) {
	if tw.trail != nil {
		tw.trail.Append(tw.ticket, tw.technician, kind, detail, allowed)
	}
}

// VisibleDevices returns the presentation-layer topology: the devices the
// technician can see and open consoles on, sorted.
func (tw *Twin) VisibleDevices() []string {
	if tw.slice == nil {
		return tw.emul.DeviceNames()
	}
	var out []string
	for name := range tw.slice {
		if tw.emul.Devices[name] != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Visible reports whether a device is inside the presentation slice.
func (tw *Twin) Visible(device string) bool {
	if tw.slice == nil {
		return tw.emul.Devices[device] != nil
	}
	return tw.slice[device] && tw.emul.Devices[device] != nil
}

// Network exposes the emulation layer for reading (tests, oracles);
// technicians only ever interact through sessions. It is read-only for
// anyone who calls Changes afterwards: Changes diffs the devices the
// reference monitor dispatched a write on, so a mutation made through this
// pointer is in no change set.
func (tw *Twin) Network() *netmodel.Network { return tw.emul }

// Baseline returns the pristine sanitized copy the twin started from.
func (tw *Twin) Baseline() *netmodel.Network { return tw.baseline }

// Snapshot returns the twin's current dataplane snapshot.
func (tw *Twin) Snapshot() *dataplane.Snapshot {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.env.Snapshot()
}

// Changes returns the semantic configuration diff between the twin's
// baseline and its current state: exactly what the technician changed,
// element for element what config.DiffNetwork(Baseline(), Network())
// returns. Only the devices a write was dispatched on are diffed, once per
// twin state: until the next write the answer is a copy of the last one
// (the payloads the elements point to are shared and never written).
func (tw *Twin) Changes() []config.Change {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	memo := "hit"
	if tw.stale {
		memo = "miss"
		tw.changes = nil
		for _, name := range tw.written {
			tw.changes = append(tw.changes, config.DiffDevice(tw.baseline.Devices[name], tw.emul.Devices[name])...)
		}
		tw.stale = false
		tw.meter.Counter("heimdall_twin_devices_diffed_total").Add(float64(len(tw.written)))
	}
	tw.meter.Counter("heimdall_twin_changes_total", telemetry.L("memo", memo)).Inc()
	return slices.Clone(tw.changes)
}

// Session is a mediated console on one visible device.
type Session struct {
	twin *Twin
	con  *console.Console
}

// OpenConsole opens a session on a device. Devices outside the slice do
// not exist as far as the presentation layer is concerned.
func (tw *Twin) OpenConsole(device string) (*Session, error) {
	if !tw.Visible(device) {
		tw.log(audit.KindDecision, fmt.Sprintf("deny console on %s (outside slice)", device), false)
		tw.decision("deny", "session")
		return nil, fmt.Errorf("twin: no such device %q", device)
	}
	tw.log(audit.KindSession, "console opened on "+device, true)
	tw.decision("allow", "session")
	return &Session{twin: tw, con: console.New(device, tw.env)}, nil
}

// decision counts one reference-monitor verdict by action class.
func (tw *Twin) decision(verdict, class string) {
	tw.meter.Counter("heimdall_monitor_decisions_total",
		telemetry.L("decision", verdict), telemetry.L("class", class)).Inc()
}

// actionClass maps a console action ("config.interface.set") to its
// class ("config") to bound decision-counter cardinality.
func actionClass(action string) string {
	if i := strings.IndexByte(action, '.'); i > 0 {
		return action[:i]
	}
	return action
}

// Device returns the session's device name.
func (s *Session) Device() string { return s.con.Device() }

// ErrDenied is returned (wrapped) when the reference monitor blocks a
// command.
type ErrDenied struct {
	Action   string
	Resource string
}

// Error implements the error interface.
func (e *ErrDenied) Error() string {
	return fmt.Sprintf("twin: permission denied: %s on %s", e.Action, e.Resource)
}

// Exec runs one command line through the reference monitor: parse,
// privilege check, audit, then execute in the emulation layer.
func (s *Session) Exec(line string) (string, error) {
	tw := s.twin
	// One command at a time per twin: parse, decision, audit and execution
	// form one serialized critical section, so concurrent sessions can
	// never interleave half-applied configuration mutations or observe a
	// snapshot mid-invalidation, and the audit trail's command/decision
	// ordering matches the execution order.
	tw.mu.Lock()
	defer tw.mu.Unlock()
	start := time.Now()
	tw.meter.Counter("heimdall_monitor_commands_total").Inc()
	cmd, err := s.con.Parse(line)
	if err != nil {
		tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s (parse error)", s.Device(), line), false)
		tw.decision("deny", "parse-error")
		return "", err
	}
	tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s", s.Device(), line), true)
	if !tw.allows(cmd.Action, cmd.Resource) {
		tw.log(audit.KindDecision, fmt.Sprintf("deny %s on %s", cmd.Action, cmd.Resource), false)
		tw.decision("deny", actionClass(cmd.Action))
		tw.observeMediation(start)
		return "", &ErrDenied{Action: cmd.Action, Resource: cmd.Resource}
	}
	tw.log(audit.KindDecision, fmt.Sprintf("allow %s on %s", cmd.Action, cmd.Resource), true)
	tw.decision("allow", actionClass(cmd.Action))
	// Mediation latency is the monitor's own cost: parse + privilege
	// check + audit, before the command touches the emulation layer.
	tw.observeMediation(start)
	if cmd.Write {
		// Recorded at dispatch, not on success: a write that fails halfway
		// may already have mutated its device.
		if i, ok := slices.BinarySearch(tw.written, cmd.Device); !ok {
			tw.written = slices.Insert(tw.written, i, cmd.Device)
		}
		tw.stale = true
	}
	out, err := s.con.Execute(cmd)
	tw.meter.Histogram("heimdall_monitor_exec_seconds", telemetry.LatencyBuckets).
		ObserveDuration(time.Since(start))
	if err != nil {
		tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s failed: %v", s.Device(), line, err), true)
		return "", err
	}
	return out, nil
}

// compiledSpec pairs a compiled rule trie with the rule count it was built
// from, so the mediation path can detect appended rules.
type compiledSpec struct {
	nrules int
	c      *privilege.CompiledSpec
}

// allows evaluates the mediation decision through the compiled spec,
// recompiling when the rule list grew since the last command. The cache is
// an atomic pointer, so concurrent sessions stay race-free (a concurrent
// append at worst costs one extra compile).
func (tw *Twin) allows(action, resource string) bool {
	n := len(tw.spec.Rules)
	cs := tw.compiled.Load()
	if cs == nil || cs.nrules != n {
		cs = &compiledSpec{nrules: n, c: tw.spec.Compile()}
		tw.compiled.Store(cs)
	}
	return cs.c.Allows(action, resource)
}

func (tw *Twin) observeMediation(start time.Time) {
	tw.meter.Histogram("heimdall_monitor_mediation_seconds", telemetry.LatencyBuckets).
		ObserveDuration(time.Since(start))
}
