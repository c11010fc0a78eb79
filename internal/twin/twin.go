// Package twin implements Heimdall's twin network (paper §4.2): an
// isolated, emulated copy of the production network a technician works on
// instead of the production network itself.
//
// The twin decouples the traditional monolithic emulator into:
//
//   - an emulation layer: a full-fidelity, sanitized view of every device,
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
	"strconv"
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
	// Production is the network being mimicked; the twin never writes its
	// devices (New copies its device map and sanitizes the copy, FromView
	// takes over a map whose devices are sanitized already).
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
	// Instruments receive the twin's metrics (commands mediated, allow/deny
	// decisions per action class, mediation latency, change-set memo); nil
	// means the no-op meter's.
	Instruments *Instruments
}

// Instruments are the metrics a twin counts on, looked up once on a meter
// and shared by every twin opened with them, so an open and a review look
// none up: commands mediated, mediation and exec latency, and Changes'
// memo hits, memo misses and devices diffed. The labeled counters are
// looked up on the meter by each twin at their first use.
type Instruments struct {
	meter                                     telemetry.Meter
	commands, changesHit, changesMiss, diffed telemetry.Counter
	mediation, execTime                       telemetry.Histogram
}

// NewInstruments looks a twin's metrics up on m (nil: the no-op meter).
func NewInstruments(m telemetry.Meter) *Instruments {
	if m == nil {
		m = telemetry.Nop()
	}
	return &Instruments{
		meter:       m,
		commands:    m.Counter("heimdall_monitor_commands_total"),
		mediation:   m.Histogram("heimdall_monitor_mediation_seconds", telemetry.LatencyBuckets),
		execTime:    m.Histogram("heimdall_monitor_exec_seconds", telemetry.LatencyBuckets),
		changesHit:  m.Counter("heimdall_twin_changes_total", telemetry.L("memo", "hit")),
		changesMiss: m.Counter("heimdall_twin_changes_total", telemetry.L("memo", "miss")),
		diffed:      m.Counter("heimdall_twin_devices_diffed_total"),
	}
}

// unmetered is NewInstruments(nil), for a twin opened without any.
var unmetered = NewInstruments(nil)

// Twin is one instantiated twin network.
type Twin struct {
	ticket     string
	technician string
	spec       *privilege.Spec
	// compiled caches the trie form of spec so the reference monitor
	// checks mediated commands without rescanning the rule list, and its
	// rules digest, which every review and commit keys on. Callers may
	// extend a ticket's privileges by appending rules (the core engine
	// does), so the cache is keyed by rule count and rebuilt when it grows.
	compiled atomic.Pointer[compiledSpec]
	emul     *netmodel.Network // the emulation layer: production, sanitized
	visible  []string          // the slice, sorted: fixed, unlike emul's map
	env      *console.Env
	trail    *audit.Trail

	// The metrics: the shared instruments, and each labeled counter looked
	// up at its first use (under labeledMu, since OpenConsole decides
	// outside mu).
	ins       *Instruments
	labeledMu sync.Mutex
	labeled   map[[3]string]telemetry.Counter

	// mu serializes everything that touches the emulation layer or the
	// console environment's snapshot cache: command execution, diffing,
	// and snapshot reads. A twin is shared by every session opened on it
	// (one technician may hold consoles on several devices, and the
	// service layer multiplexes API calls onto the same twin), so the
	// emulation layer itself must be safe for concurrent use.
	mu sync.Mutex
	// pre holds the pre-image of every device an allowed write applied to:
	// the device held until that write replaced it (console.Execute never
	// writes a device). The monitor is the emulation layer's only writer and
	// a config command touches only its console's device, so every other
	// device is still its own baseline (and production's).
	// changes is the diff of the written devices against their pre-images,
	// and mismatch names the first whose diff does not carry it, both
	// current while stale is false.
	pre      map[string]*netmodel.Device
	changes  []config.Change
	mismatch error
	stale    bool
}

// New builds the twin: the emulation layer is production sanitized
// (config.Sanitize), sharing all but secrets with production's devices,
// which no production writer writes: each replaces the device it writes. An open
// copies nothing, and neither does a write: the console replaces the device
// it writes, and the device a first write replaces is kept as the baseline
// its change set is diffed against.
func New(cfg Config) (*Twin, error) {
	if cfg.Production == nil {
		return nil, fmt.Errorf("twin: nil production network")
	}
	emul := cfg.Production.CloneCOW()
	for name, d := range emul.Devices {
		emul.Devices[name] = config.Sanitize(d)
	}
	cfg.Production = emul
	return FromView(cfg)
}

// FromView is New on a sanitized copy of production that the caller hands
// over (an enforcer's SanitizedView): the twin keeps that copy as its
// emulation layer, so an open copies the map once.
func FromView(cfg Config) (*Twin, error) {
	if cfg.Production == nil {
		return nil, fmt.Errorf("twin: nil production network")
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("twin: nil Privilegemsp")
	}
	emul := cfg.Production
	visible := make([]string, 0, len(cfg.Slice))
	if cfg.Slice == nil { // every device is visible
		for name := range emul.Devices {
			visible = append(visible, name)
		}
	}
	for name, in := range cfg.Slice { // a ticket's few devices, not the map's all
		if _, ok := emul.Devices[name]; ok && in {
			visible = append(visible, name)
		}
	}
	sort.Strings(visible)
	ins := cfg.Instruments
	if ins == nil {
		ins = unmetered
	}
	tw := &Twin{
		ticket:     cfg.Ticket,
		technician: cfg.Technician,
		spec:       cfg.Spec,
		emul:       emul,
		pre:        make(map[string]*netmodel.Device),
		visible:    visible,
		trail:      cfg.Trail,
		ins:        ins,
		labeled:    make(map[[3]string]telemetry.Counter),
	}
	// Technician consoles are the emulation layer's only writers (Exec
	// serializes under tw.mu), which is what the env's incremental
	// post-write snapshots require.
	tw.env = console.NewEnvSeeded(tw.emul, cfg.Snapshot)
	tw.log(audit.KindSession, "twin created ("+strconv.Itoa(len(tw.emul.Devices))+" devices, "+
		strconv.Itoa(len(tw.visible))+" visible)", true)
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
func (tw *Twin) VisibleDevices() []string { return slices.Clone(tw.visible) }

// Visible reports whether a device is inside the presentation slice.
func (tw *Twin) Visible(device string) bool {
	_, ok := slices.BinarySearch(tw.visible, device)
	return ok
}

// Network exposes the emulation layer for reading (tests, oracles);
// technicians only ever interact through sessions. It is read-only: a device
// no write replaced is production's, and Changes diffs only the devices a
// write replaced, so a mutation made through this pointer may reach
// production and is in no change set.
func (tw *Twin) Network() *netmodel.Network { return tw.emul }

// Baseline returns the sanitized production the twin started from, as a
// copy-on-write view: the pre-image of every written device, and the
// emulation layer's own device for every other one — still its baseline,
// since nothing but a write changes a device. The view is read-only, and
// later writes do not move it: a device's first write replaces it in the
// emulation layer instead of writing it.
func (tw *Twin) Baseline() *netmodel.Network {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	base := tw.emul.CloneCOW()
	for name, d := range tw.pre {
		base.Devices[name] = d
	}
	return base
}

// Snapshot returns the twin's current dataplane snapshot.
func (tw *Twin) Snapshot() *dataplane.Snapshot {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.env.Snapshot()
}

// Changes returns the semantic configuration diff between the twin's
// baseline and its current state: exactly what the technician changed,
// element for element what config.DiffNetwork(Baseline(), Network())
// returns. Only the devices a write replaced are diffed, once per
// twin state: until the next write the answer is a copy of the last one
// (the payloads the elements point to are shared and never written).
func (tw *Twin) Changes() []config.Change {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	memo := tw.ins.changesHit
	if tw.stale {
		memo = tw.ins.changesMiss
		tw.changes, tw.mismatch = nil, nil
		written := make([]string, 0, len(tw.pre))
		for name := range tw.pre {
			written = append(written, name)
		}
		sort.Strings(written)
		for _, name := range written {
			changes, landed := config.DiffDevice(tw.pre[name], tw.emul.Devices[name]), tw.pre[name]
			var err error
			for i := 0; i < len(changes) && err == nil; i++ {
				landed, err = config.ApplyChange(landed, changes[i])
			}
			if tw.mismatch == nil && (err != nil || config.Print(landed) != config.Print(tw.emul.Devices[name])) {
				tw.mismatch = fmt.Errorf("twin: the change set does not carry %s as the twin shows it", name)
			}
			tw.changes = append(tw.changes, changes...)
		}
		tw.stale = false
		tw.ins.diffed.Add(float64(len(tw.pre)))
	}
	memo.Inc()
	return slices.Clone(tw.changes)
}

// Mismatch names the first written device that the change set Changes last
// returned, applied to the twin's baseline, does not print as the twin
// shows it: a review or commit of it would land another network.
func (tw *Twin) Mismatch() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.mismatch
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
	tw.counter("heimdall_monitor_decisions_total", "decision", verdict, "class", class).Inc()
}

// counter returns a two-label counter, looked up once per pair of values.
func (tw *Twin) counter(name, k1, v1, k2, v2 string) telemetry.Counter {
	key := [3]string{name, v1, v2}
	tw.labeledMu.Lock()
	defer tw.labeledMu.Unlock()
	c, ok := tw.labeled[key]
	if !ok {
		c = tw.ins.meter.Counter(name, telemetry.L(k1, v1), telemetry.L(k2, v2))
		tw.labeled[key] = c
	}
	return c
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
	tw.ins.commands.Inc()
	cmd, err := s.con.Parse(line)
	if err != nil {
		tw.log(audit.KindCommand, "["+s.Device()+"] "+line+" (parse error)", false)
		tw.decision("deny", "parse-error")
		return "", err
	}
	tw.log(audit.KindCommand, "["+s.Device()+"] "+line, true)
	if !tw.rules().c.Allows(cmd.Action, cmd.Resource) {
		tw.log(audit.KindDecision, "deny "+cmd.Action+" on "+cmd.Resource, false)
		tw.decision("deny", actionClass(cmd.Action))
		tw.ins.mediation.ObserveDuration(time.Since(start))
		return "", &ErrDenied{Action: cmd.Action, Resource: cmd.Resource}
	}
	tw.log(audit.KindDecision, "allow "+cmd.Action+" on "+cmd.Resource, true)
	tw.decision("allow", actionClass(cmd.Action))
	// Mediation latency is the monitor's own cost: parse + privilege
	// check + audit, before the command touches the emulation layer.
	tw.ins.mediation.ObserveDuration(time.Since(start))
	write := "read"
	if cmd.Write {
		write = "write"
	}
	tw.counter("heimdall_console_dispatch_total", "action", cmd.Action, "write", write).Inc()
	held := tw.emul.Devices[cmd.Device]
	out, err := s.con.Execute(cmd)
	tw.ins.execTime.ObserveDuration(time.Since(start))
	if err != nil {
		tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s failed: %v", s.Device(), line, err), true)
		return "", err
	}
	// A write that applied replaced its device (a failed or no-op one
	// leaves it in place): the device it replaced first is the pre-image.
	if tw.emul.Devices[cmd.Device] != held {
		if _, ok := tw.pre[cmd.Device]; !ok {
			tw.pre[cmd.Device] = held
		}
		tw.stale = true
	}
	return out, nil
}

// compiledSpec pairs a compiled rule trie and the rules digest with the
// rule count both were taken at, so appended rules are detected.
type compiledSpec struct {
	nrules int
	c      *privilege.CompiledSpec
	digest string
}

// rules is the spec's compiled form and digest, rebuilt when the rule list
// grew since they were taken. The cache is an atomic pointer, so concurrent
// sessions stay race-free (a concurrent append at worst costs one extra
// compile).
func (tw *Twin) rules() *compiledSpec {
	n := len(tw.spec.Rules)
	cs := tw.compiled.Load()
	if cs == nil || cs.nrules != n {
		cs = &compiledSpec{nrules: n, c: tw.spec.Compile(), digest: tw.spec.RulesDigest()}
		tw.compiled.Store(cs)
	}
	return cs
}

// RulesDigest is the twin's Privilegemsp's Spec.RulesDigest, memoized per
// rule count with its compiled form.
func (tw *Twin) RulesDigest() string { return tw.rules().digest }
