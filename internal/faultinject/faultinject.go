// Package faultinject is Heimdall's deterministic fault-injection
// framework. The paper's enforcer exists because production pushes are
// dangerous (§3): devices time out, reject a config, or vanish
// mid-commit. This package lets tests and chaos experiments script those
// failures exactly — a seeded Plan of per-scope/per-op rules decides which
// calls fail, how often, with what latency, and whether the failure is
// transient (worth retrying) or permanent — so the same seed always yields
// the same fault schedule and invariant violations reproduce.
//
// Callers consult Injector.Visit(scope, op) before the operation it
// models: the enforcer's push target before every device apply/restore.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"heimdall/internal/telemetry"
)

// Class classifies an injected failure the way real device errors split:
// transient failures (timeouts, resets, busy devices) deserve a retry,
// permanent ones (rejected config, dead hardware) do not.
type Class int

const (
	// Transient marks failures that a later attempt may not see.
	Transient Class = iota
	// Permanent marks failures every attempt will see.
	Permanent
)

// String returns "transient" or "permanent".
func (c Class) String() string {
	if c == Permanent {
		return "permanent"
	}
	return "transient"
}

// Error is an injected failure. It carries the scope/op it hit and its
// class so callers can classify without string matching.
type Error struct {
	Scope string
	Op    string
	Class Class
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s fault on %s/%s", e.Class, e.Scope, e.Op)
}

// TransientFault reports whether the failure is worth retrying. Any error
// type may implement this interface to opt into retry classification.
func (e *Error) TransientFault() bool { return e.Class == Transient }

// transienter is the classification interface IsTransient looks for.
type transienter interface{ TransientFault() bool }

// IsTransient reports whether any error in err's chain declares itself
// transient (implements TransientFault() bool returning true). Errors
// without a classification are treated as permanent: retrying an apply the
// device deterministically rejects only delays the rollback.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok {
			return t.TransientFault()
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			return false
		}
	}
	return false
}

// Rule schedules faults for the calls matching Scope and Op. Exactly one
// of the trigger fields (FailNth, FailFirst, Outage) is normally set;
// Latency may accompany any of them or stand alone.
type Rule struct {
	// Scope selects the device the rule applies to.
	// Empty or "*" matches every scope.
	Scope string
	// Op selects the operation ("apply", "restore", ...).
	// Empty or "*" matches every op.
	Op string

	// FailNth fails exactly the Nth matching call (1-based), modelling a
	// one-shot glitch.
	FailNth int
	// FailFirst fails the first K matching calls and then recovers,
	// modelling a device that comes back after a reboot.
	FailFirst int
	// Outage fails every matching call: the device is gone for good.
	Outage bool

	// Class classifies the injected failures (default Transient).
	Class Class
	// Latency is added to every matching call before it proceeds or fails.
	Latency time.Duration
}

// matches reports whether the rule covers the given scope and op.
func (r *Rule) matches(scope, op string) bool {
	if r.Op != "" && r.Op != "*" && r.Op != op {
		return false
	}
	return r.Scope == "" || r.Scope == "*" || r.Scope == scope
}

// Plan is a complete fault schedule: an ordered rule list. Rules are
// evaluated in order per call; latency accumulates across every matching
// rule and the first rule whose trigger fires decides the failure.
type Plan struct {
	Rules []Rule
}

// Injector executes a Plan deterministically. It is safe for concurrent
// use; per-rule hit counters make schedules independent of wall-clock time.
type Injector struct {
	mu       sync.Mutex
	rules    []Rule
	hits     []int // per-rule count of matching calls
	injected int
	meter    telemetry.Meter
	sleep    func(time.Duration)
}

// New builds an injector for the plan. A nil-rule plan injects nothing.
func New(plan Plan) *Injector {
	return &Injector{
		rules: append([]Rule(nil), plan.Rules...),
		hits:  make([]int, len(plan.Rules)),
		meter: telemetry.Nop(),
		sleep: time.Sleep,
	}
}

// SetMeter wires the heimdall_faults_injected_total counter.
func (in *Injector) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.meter = m
}

// SetSleep replaces the latency sink (tests use a recording fake so added
// latency never slows the suite).
func (in *Injector) SetSleep(f func(time.Duration)) {
	if f == nil {
		f = time.Sleep
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = f
}

// Visit counts one call on (scope, op) against every matching rule and
// returns the scheduled fault, or nil when the call should proceed.
// Latency from matching rules is applied before returning.
func (in *Injector) Visit(scope, op string) error {
	in.mu.Lock()
	var delay time.Duration
	var fault *Error
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(scope, op) {
			continue
		}
		in.hits[i]++
		delay += r.Latency
		if fault != nil {
			continue
		}
		n := in.hits[i]
		if r.Outage || (r.FailNth > 0 && n == r.FailNth) || (r.FailFirst > 0 && n <= r.FailFirst) {
			fault = &Error{Scope: scope, Op: op, Class: r.Class}
		}
	}
	sleep := in.sleep
	meter := in.meter
	if fault != nil {
		in.injected++
		meter.Counter("heimdall_faults_injected_total",
			telemetry.L("op", op), telemetry.L("class", fault.Class.String())).Inc()
	}
	in.mu.Unlock()
	if delay > 0 {
		sleep(delay)
	}
	if fault != nil {
		return fault
	}
	return nil
}

// Injected returns how many faults the injector has delivered.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// RandomPlan derives a fault schedule from a seed: for each scope it rolls
// zero or more rules over the given ops, mixing one-shot, fail-then-recover
// and outage triggers with both classes and occasional latency. The same
// (seed, scopes, ops) always yields the same plan, which is what makes the
// chaos suite reproducible.
func RandomPlan(seed int64, scopes, ops []string) Plan {
	rng := rand.New(rand.NewSource(seed))
	var plan Plan
	for _, scope := range scopes {
		for _, op := range ops {
			switch rng.Intn(4) {
			case 0:
				// No rule: this scope/op behaves.
			case 1:
				plan.Rules = append(plan.Rules, Rule{
					Scope: scope, Op: op,
					FailNth: 1 + rng.Intn(3),
					Class:   Class(rng.Intn(2)),
				})
			case 2:
				plan.Rules = append(plan.Rules, Rule{
					Scope: scope, Op: op,
					FailFirst: 1 + rng.Intn(2),
					Class:     Transient,
					Latency:   time.Duration(rng.Intn(3)) * time.Millisecond,
				})
			case 3:
				plan.Rules = append(plan.Rules, Rule{
					Scope: scope, Op: op,
					Outage: true,
					Class:  Class(rng.Intn(2)),
				})
			}
		}
	}
	return plan
}
