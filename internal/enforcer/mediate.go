package enforcer

// Conflict mediation: two tickets racing on overlapping parts of the
// network are a classic MSP failure mode — each change verifies against
// the state it saw, but the loser's verification is stale the moment the
// winner lands. Commits are already serialized by commitMu, which keeps
// production consistent; mediation makes the race *visible and governed*:
// the scope of a commit (the devices it touches plus every device on the
// forwarding path of any policy the change could affect, via
// verify.Scope) is reserved before the commit runs, an overlapping
// ticket is either serialized behind the holder or rejected, and either
// verdict lands on the audit trail under the losing ticket.

import (
	"fmt"
	"sort"
	"sync"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
	"heimdall/internal/verify"
)

// ConflictPolicy selects how a commit whose scope overlaps an in-flight
// reservation is mediated.
type ConflictPolicy int

const (
	// MediateOff (the zero value) disables mediation: commits still
	// serialize on commitMu, but overlaps are neither audited nor refused.
	// Mediation is opt-in because computing a commit's scope costs a
	// dataplane snapshot per reservation.
	MediateOff ConflictPolicy = iota
	// MediateSerialize parks the later ticket until the holder releases,
	// with an audited "serialized" verdict.
	MediateSerialize
	// MediateReject refuses the later ticket outright with an audited
	// rejection; the technician must re-review against the post-winner
	// network state.
	MediateReject
)

// String names the policy.
func (p ConflictPolicy) String() string {
	switch p {
	case MediateSerialize:
		return "serialize"
	case MediateReject:
		return "reject"
	default:
		return "off"
	}
}

// commitScope computes the device scope a change set contends on: the
// devices it touches plus every device on the trace of a policy whose
// traffic the change could affect (every policy, when it touches a
// switch). Taking commitMu makes the read of prod safe against an
// in-flight commit.
func (e *Enforcer) commitScope(prod *netmodel.Network, changes []config.Change) map[string]bool {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	touched := make(map[string]bool)
	for _, c := range changes {
		touched[c.Device] = true
	}
	scope := make(map[string]bool, len(touched))
	for d := range touched {
		scope[d] = true
	}
	snap := e.ProductionSnapshot(prod)
	for _, p := range verify.Scope(prod, snap, e.policies, touched) {
		tr, err := snap.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		if err != nil || tr == nil {
			continue
		}
		for _, h := range tr.Hops {
			scope[h.Device] = true
		}
	}
	return scope
}

// overlap returns the sorted devices two scopes share.
func overlap(a, b map[string]bool) []string {
	var out []string
	for d := range a {
		if b[d] {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// Reserve claims the commit scope of a change set for a ticket before its
// commit runs. If the scope overlaps another ticket's live reservation the
// conflict is mediated per e.Conflict: serialized (block until the holder
// releases) or rejected — both with an audited verdict under the losing
// ticket. The returned release function must be called when the ticket is
// done (idempotent). Commit reserves automatically; call Reserve directly
// to hold a scope across review + commit.
func (e *Enforcer) Reserve(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (func(), error) {
	if e.Conflict == MediateOff {
		return func() {}, nil
	}
	scope := e.commitScope(prod, changes)
	e.scopeMu.Lock()
	defer e.scopeMu.Unlock()
	if e.scopeCond == nil {
		e.scopeCond = sync.NewCond(&e.scopeMu)
	}
	if e.reservations == nil {
		e.reservations = make(map[string]map[string]bool)
	}
	serialized := false
	for {
		holder, shared := e.findConflict(spec.Ticket, scope)
		if holder == "" {
			break
		}
		if e.Conflict == MediateReject {
			e.meter.Counter("heimdall_enforcer_conflicts_total", telemetry.L("verdict", "rejected")).Inc()
			e.trail.Append(spec.Ticket, spec.Technician, audit.KindSession,
				fmt.Sprintf("CONFLICT: scope overlaps in-flight ticket %s on %v; rejected", holder, shared), false)
			return nil, fmt.Errorf("enforcer: ticket %s conflicts with in-flight ticket %s on devices %v",
				spec.Ticket, holder, shared)
		}
		if !serialized {
			serialized = true
			e.meter.Counter("heimdall_enforcer_conflicts_total", telemetry.L("verdict", "serialized")).Inc()
			e.trail.Append(spec.Ticket, spec.Technician, audit.KindSession,
				fmt.Sprintf("CONFLICT: scope overlaps in-flight ticket %s on %v; serialized behind it", holder, shared), true)
		}
		e.scopeCond.Wait()
	}
	e.reservations[spec.Ticket] = scope
	released := false
	return func() {
		e.scopeMu.Lock()
		defer e.scopeMu.Unlock()
		if released {
			return
		}
		released = true
		delete(e.reservations, spec.Ticket)
		e.scopeCond.Broadcast()
	}, nil
}

// findConflict returns the first other ticket (in sorted order, for
// deterministic verdicts) whose reservation overlaps the scope.
func (e *Enforcer) findConflict(ticket string, scope map[string]bool) (string, []string) {
	holders := make([]string, 0, len(e.reservations))
	for t := range e.reservations {
		holders = append(holders, t)
	}
	sort.Strings(holders)
	for _, t := range holders {
		if t == ticket {
			continue
		}
		if shared := overlap(scope, e.reservations[t]); len(shared) > 0 {
			return t, shared
		}
	}
	return "", nil
}

// reserveForCommit auto-reserves for Commit/CommitApproved, unless the
// ticket already holds a reservation (taken via Reserve) — then the commit
// runs under the existing claim and its release stays with the caller.
func (e *Enforcer) reserveForCommit(prod *netmodel.Network, changes []config.Change, spec *privilege.Spec) (func(), error) {
	if e.Conflict == MediateOff {
		return func() {}, nil
	}
	e.scopeMu.Lock()
	_, held := e.reservations[spec.Ticket]
	e.scopeMu.Unlock()
	if held {
		return func() {}, nil
	}
	return e.Reserve(prod, changes, spec)
}
