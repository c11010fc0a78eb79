package enforcer

// The resilient commit pipeline: production pushes go through a Target
// with per-change retry/backoff, every step is journaled write-ahead, and
// rollback is itself retried — if rollback cannot restore a device the
// enforcer degrades to a quarantined state instead of pretending. The
// invariant the chaos suite proves: after any fault schedule production is
// either fully committed or fully rolled back, never silently partial, and
// the journal + audit trail say which.

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
	"heimdall/internal/verify"
)

// Target abstracts the device-push path of a commit: today an in-memory
// production network, later a channel to real devices. Apply
// and RestoreDevice may fail transiently (see faultinject.IsTransient);
// the pipeline retries around them.
type Target interface {
	// Apply pushes one change to the production device it names, which it
	// replaces (config.ApplyChange): open twins, the review's shadow and the
	// commit's backup share the device it replaces, so never write it.
	Apply(c config.Change) error
	// RestoreDevice replaces a device's running state with the given
	// pre-change device (rollback), which open twins may share: never write d.
	RestoreDevice(name string, d *netmodel.Device) error
}

// memTarget is the in-memory production target, optionally gated by a
// fault injector on the "apply" and "restore" ops.
type memTarget struct {
	net *netmodel.Network
	inj *faultinject.Injector
}

func (t *memTarget) Apply(c config.Change) error {
	if t.inj != nil {
		if err := t.inj.Visit(c.Device, "apply"); err != nil {
			return err
		}
	}
	d := t.net.Devices[c.Device]
	if d == nil {
		return fmt.Errorf("enforcer: no production device %q", c.Device)
	}
	d, err := config.ApplyChange(d, c)
	if err != nil {
		return err
	}
	t.net.Devices[c.Device] = d
	return nil
}

func (t *memTarget) RestoreDevice(name string, d *netmodel.Device) error {
	if t.inj != nil {
		if err := t.inj.Visit(name, "restore"); err != nil {
			return err
		}
	}
	t.net.Devices[name] = d
	return nil
}

// RetryPolicy controls per-change push retries. The zero value means the
// defaults; only transient failures (faultinject.IsTransient) are retried.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (default 3).
	MaxAttempts int
	// BaseBackoff is the delay after the first failure; it doubles per
	// attempt (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the per-attempt delay (default 1s).
	MaxBackoff time.Duration
	// OpTimeout bounds the wall-clock budget of one operation including
	// its retries (default 5s).
	OpTimeout time.Duration
	// JitterSeed seeds the backoff jitter so fault schedules replay
	// identically (default 1).
	JitterSeed int64
	// Sleep is the backoff sink; nil means time.Sleep. Tests install a
	// recording fake so chaos schedules run at full speed.
	Sleep func(time.Duration)
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.OpTimeout <= 0 {
		p.OpTimeout = 5 * time.Second
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// jitter is a commit's backoff jitter source. Most commits never retry, so
// it is seeded at its first draw, from the seed it was made with.
type jitter struct {
	seed int64
	rng  *rand.Rand
}

func (j *jitter) Int63n(n int64) int64 {
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(j.seed))
	}
	return j.rng.Int63n(n)
}

// backoff returns the jittered delay before the given retry (attempt is
// the 1-based number of the attempt that just failed).
func (p RetryPolicy) backoff(attempt int, rng *jitter) time.Duration {
	d := p.BaseBackoff << (attempt - 1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	// Jitter in [d/2, d): desynchronises retries against a recovering
	// device without ever exceeding the cap.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// pushOp runs one target operation with retry, backoff and the per-op
// timeout. phase labels the retry counter ("apply" or "rollback").
func (e *Enforcer) pushOp(p RetryPolicy, rng *jitter, phase string, op func() error) error {
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		if !faultinject.IsTransient(err) || attempt >= p.MaxAttempts ||
			time.Since(start) >= p.OpTimeout {
			return err
		}
		e.retried[phase].Inc()
		p.Sleep(p.backoff(attempt, rng))
	}
}

// SetInjector gates the default in-memory target with a fault injector
// (chaos tests and drills). A nil injector removes the gate.
func (e *Enforcer) SetInjector(inj *faultinject.Injector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.injector = inj
}

// SetTarget replaces the production push path with a custom Target.
// The target must replace devices of the network the enforcer was built on,
// because post-apply verification recomputes from it. A nil target
// restores the built-in in-memory path.
func (e *Enforcer) SetTarget(t Target) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.target = t
}

// pushTarget returns the Target a commit pushes through.
func (e *Enforcer) pushTarget() Target {
	if e.target != nil {
		return e.target
	}
	return &memTarget{net: e.prod, inj: e.injector}
}

// Journal returns the enforcer's write-ahead commit journal.
func (e *Enforcer) Journal() *journal.Journal { return e.journal }

// JournalKey returns a copy of the journal HMAC key (released, like the
// trail key, only over the attested channel).
func (e *Enforcer) JournalKey() []byte {
	k := e.encl.DeriveKey("commit-journal")
	return append([]byte(nil), k...)
}

// Quarantined reports whether a failed rollback left production in the
// degraded state, and why. While quarantined the enforcer refuses new
// commits; Recover clears the state by restoring consistency.
func (e *Enforcer) Quarantined() (bool, string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.quarantined, e.quarReason
}

// touchedDevices returns the sorted unique device names of a change set.
func touchedDevices(changes []config.Change) []string {
	out := make([]string, len(changes))
	for i, c := range changes {
		out[i] = c.Device
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// rollbackPush restores every touched device from the backup through the
// target, retrying each restore. If any device cannot be restored the
// enforcer quarantines instead of leaving a silent partial state. It
// returns the terminal outcome ("rolled-back" or "quarantined").
func (e *Enforcer) rollbackPush(tgt Target, p RetryPolicy, rng *jitter, pre *dataplane.Snapshot, backup *netmodel.Network, devices []string, spec specIdent, cid, why string) string {
	// Production was written, so no cached verdict survives. The built-in
	// target writes only the touched devices: the pre-push snapshot is handed
	// over across what still differs from the backup (nothing, after a clean
	// restore, and it stays held). What a custom target did is not the
	// enforcer's to assume.
	defer func() {
		if e.target != nil {
			e.invalidate()
			return
		}
		snap, verdicts, _, _ := e.handOver("", pre, backup, devices)
		e.invalidate()
		e.prodSnap.Store(&heldSnapshot{snap: snap, verdicts: verdicts})
		e.snapDerived.Inc()
	}()
	var restored, failed []string
	for _, name := range devices {
		d := backup.Devices[name]
		if d == nil {
			continue
		}
		err := e.pushOp(p, rng, "rollback", func() error {
			return tgt.RestoreDevice(name, d)
		})
		if err != nil {
			failed = append(failed, name)
		} else {
			restored = append(restored, name)
		}
	}
	if len(failed) > 0 {
		e.quarantined = true
		e.quarReason = fmt.Sprintf("rollback failed on %v (%s)", failed, why)
		e.journal.Quarantined(cid, restored, failed, why)
		e.trail.Append(spec.ticket, spec.technician, audit.KindSession,
			fmt.Sprintf("QUARANTINE: rollback failed on %v: %s", failed, why), false)
		e.meter.Counter("heimdall_enforcer_quarantines_total").Inc()
		return "quarantined"
	}
	e.journal.RolledBack(cid, restored, why)
	e.trail.Append(spec.ticket, spec.technician, audit.KindChange, "ROLLBACK: "+why, false)
	e.meter.Counter("heimdall_enforcer_rollbacks_total").Inc()
	return "rolled-back"
}

// specIdent is the (ticket, technician) identity trail entries carry.
type specIdent struct{ ticket, technician string }

// RecoveryReport describes what Recover did.
type RecoveryReport struct {
	// Commit is the journal commit id that was open, or "" when the
	// journal had no unfinished commit.
	Commit string
	// Action is "none", "committed" or "rolled-back".
	Action string
	// Changes is how many changes the recovered commit carried.
	Changes int
}

// Recover completes or undoes a commit or an injection the journal left
// open — the state a crash between the intent record and the terminal
// record leaves behind. It restores every change's journaled undo, last
// change first, each replacing the device it restores (config.RestoreUndos;
// open twins keep the devices they share). Undos are idempotent, so a
// change whose applied record the crash lost is undone as safely as one
// that never landed. It then replays the intent's full change set and
// re-runs post-apply verification under its rule: the outcome (and
// the final production state) is therefore identical to the uninterrupted
// run, whichever record the crash interrupted. An intent whose undos do not
// match its changes is rolled back without writing any device. Recovery runs
// without the fault injector — it models the operator-driven repair path —
// and clears a quarantine once production is consistent again.
func (e *Enforcer) Recover() (*RecoveryReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prod := e.prod
	intent, _ := e.journal.Open()
	if intent == nil {
		return &RecoveryReport{Action: "none"}, nil
	}
	// Recovery rewrites production (undo, then replay); no verdict cached
	// against the interrupted state may survive it, whichever way it ends.
	defer e.invalidate()
	e.meter.Counter("heimdall_enforcer_recoveries_total").Inc()
	id := specIdent{intent.Ticket, intent.Technician}
	rep := &RecoveryReport{Commit: intent.Commit, Changes: len(intent.Changes)}
	devices := touchedDevices(intent.Changes)
	undo := func() error {
		if err := config.RestoreUndos(prod, intent.Undos); err != nil {
			return fmt.Errorf("enforcer: recovery: %w", err)
		}
		return nil
	}
	// rollBack closes the commit undone; the devices recovery wrote (none
	// when it refused the intent) are undone first.
	rollBack := func(written bool, why string) (*RecoveryReport, error) {
		var restored []string
		if written {
			if err := undo(); err != nil {
				return nil, err
			}
			restored = devices
		}
		e.journal.RolledBack(intent.Commit, restored, why)
		e.trail.Append(id.ticket, id.technician, audit.KindChange, "ROLLBACK: "+why, false)
		e.meter.Counter("heimdall_enforcer_rollbacks_total").Inc()
		e.quarantined, e.quarReason = false, ""
		rep.Action = "rolled-back"
		return rep, nil
	}
	ok := len(intent.Undos) == len(intent.Changes)
	for i, c := range intent.Changes {
		ok = ok && intent.Undos[i].Undoes(c) && prod.Devices[c.Device] != nil
	}
	if !ok {
		return rollBack(false, "recovery refused: the intent's undos do not match its changes on production")
	}
	if err := undo(); err != nil {
		return nil, err
	}
	e.journal.Recovered(intent.Commit, fmt.Sprintf("undid %d changes on %d devices; replaying them",
		len(intent.Undos), len(devices)))
	for i, c := range intent.Changes {
		d, err := config.ApplyChange(prod.Devices[c.Device], c)
		if err != nil {
			return rollBack(true, fmt.Sprintf("recovery replay failed at change %d: %v", i, err))
		}
		prod.Devices[c.Device] = d
		e.journal.Applied(intent.Commit, i, c.String())
	}
	// An emergency commit's intent names the violations it was allowed to
	// leave standing; the replay answers to the same rule.
	post := verify.CheckCarried(dataplane.ComputeWithOptions(prod, dataplane.Options{Meter: e.meter}), e.policies, nil, nil, e.checks)
	if violations := untolerated(intent.Detail, post.Violations); len(violations) > 0 {
		return rollBack(true, fmt.Sprintf("post-apply verification failed during recovery: %d violations", len(violations)))
	}
	e.journal.Committed(intent.Commit, fmt.Sprintf("recovered: %d changes replayed", len(intent.Changes)))
	e.trail.Append(id.ticket, id.technician, audit.KindSession,
		fmt.Sprintf("recovered commit %s: %d changes replayed to production", intent.Commit, len(intent.Changes)), true)
	e.quarantined, e.quarReason = false, ""
	rep.Action = "committed"
	return rep, nil
}
