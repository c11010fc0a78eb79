// Package audit implements Heimdall's tamper-evident audit trail
// (paper §4.3): every mediated technician command, reference-monitor
// decision, applied change and verification result is appended to the
// enforcer's hash chain (internal/chain), so any later modification,
// reordering or truncation-in-the-middle of the trail is detected by
// Verify. This package is the trail's vocabulary — what an entry says —
// and the auditor's per-ticket summary of it.
package audit

import (
	"strconv"

	"heimdall/internal/chain"
	"heimdall/internal/telemetry"
)

// Kind classifies an audit entry.
type Kind string

const (
	// KindCommand records a technician command submitted to the twin.
	KindCommand Kind = "command"
	// KindDecision records a reference-monitor allow/deny decision.
	KindDecision Kind = "decision"
	// KindChange records a configuration change applied to production.
	KindChange Kind = "change"
	// KindVerify records a verification run and its outcome.
	KindVerify Kind = "verify"
	// KindEscalation records a privilege escalation request/approval.
	KindEscalation Kind = "escalation"
	// KindSession records session lifecycle events (open/close/commit).
	KindSession Kind = "session"
)

// Entry is one link of the audit chain.
type Entry struct {
	chain.Header
	Ticket     string `json:"ticket"`
	Technician string `json:"technician"`
	Kind       Kind   `json:"kind"`
	Detail     string `json:"detail"`
	Allowed    bool   `json:"allowed"`
	chain.Seal
}

// AppendFields writes the entry's payload for the chain's content rule.
func (e *Entry) AppendFields(b []byte) []byte {
	b = chain.AppendString(append(b, `"ticket":`...), e.Ticket)
	b = chain.AppendString(append(b, `,"technician":`...), e.Technician)
	b = chain.AppendString(append(b, `,"kind":`...), string(e.Kind))
	b = chain.AppendString(append(b, `,"detail":`...), e.Detail)
	b = strconv.AppendBool(append(b, `,"allowed":`...), e.Allowed)
	return append(b, ',')
}

// Trail is the audit log: a chain.Log of entries, which supplies SetClock,
// Len, Verify and Export. It is safe for concurrent use.
type Trail struct {
	*chain.Log[Entry, *Entry]
}

// NewTrail creates a trail authenticated with the given HMAC key, which in
// Heimdall never leaves the enforcer's enclave.
func NewTrail(key []byte) *Trail {
	return &Trail{chain.New[Entry](key)}
}

// SetMeter wires audit metrics (entries appended by kind, chain length).
// Both are updated under the log's lock, so the gauge never reads lower
// than a length already observed; it reads the length the trail has when
// wired (an imported one's). Each kind's counter is looked up once,
// at its first entry: a labeled lookup through the Meter interface
// allocates its labels, and every console line appends two entries.
func (t *Trail) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	byKind, length := make(map[Kind]telemetry.Counter), m.Gauge("heimdall_audit_chain_length")
	t.OnAppend(func(e *Entry) {
		c, ok := byKind[e.Kind]
		if !ok {
			c = m.Counter("heimdall_audit_entries_total", telemetry.L("kind", string(e.Kind)))
			byKind[e.Kind] = c
		}
		c.Inc()
		length.Set(float64(e.Index + 1))
	})
	t.View(func(pages [][]Entry) {
		n := 0
		for _, pg := range pages {
			n += len(pg)
		}
		length.Set(float64(n))
	})
}

// Append adds an entry to the chain, filling in index, time, hashes and
// MAC, and returns the completed entry.
func (t *Trail) Append(ticket, technician string, kind Kind, detail string, allowed bool) Entry {
	return t.Log.Append(Entry{Ticket: ticket, Technician: technician, Kind: kind, Detail: detail, Allowed: allowed})
}

// Import parses an exported trail strictly and verifies it against the key
// before returning it. Tampered exports are rejected.
func Import(key, data []byte) (*Trail, error) {
	log, err := chain.Import[Entry](key, data)
	if err != nil {
		return nil, err
	}
	return &Trail{log}, nil
}
