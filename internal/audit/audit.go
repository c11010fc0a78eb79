// Package audit implements Heimdall's tamper-evident audit trail
// (paper §4.3): every mediated technician command, reference-monitor
// decision, applied change and verification result is appended to a
// SHA-256 hash chain whose links are authenticated with an HMAC key held
// by the policy enforcer's trusted execution environment. Any later
// modification, reordering or truncation-in-the-middle of the trail is
// detected by Verify.
package audit

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

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
	Index      int       `json:"index"`
	Time       time.Time `json:"time"`
	Ticket     string    `json:"ticket"`
	Technician string    `json:"technician"`
	Kind       Kind      `json:"kind"`
	Detail     string    `json:"detail"`
	Allowed    bool      `json:"allowed"`
	PrevHash   string    `json:"prevHash"`
	Hash       string    `json:"hash"`
	MAC        string    `json:"mac"`
}

// content returns the canonical byte string covered by the entry hash.
func (e *Entry) content() []byte {
	return []byte(fmt.Sprintf("%d|%d|%s|%s|%s|%s|%t|%s",
		e.Index, e.Time.UnixNano(), e.Ticket, e.Technician, e.Kind, e.Detail, e.Allowed, e.PrevHash))
}

// Trail is an append-only, hash-chained audit log. It is safe for
// concurrent use.
type Trail struct {
	mu      sync.Mutex
	key     []byte
	entries []Entry
	now     func() time.Time
	meter   telemetry.Meter
}

// NewTrail creates a trail authenticated with the given HMAC key. The key
// is what makes the trail tamper-evident against anyone who can rewrite
// storage but does not hold the key — in Heimdall it never leaves the
// enforcer's enclave.
func NewTrail(key []byte) *Trail {
	k := make([]byte, len(key))
	copy(k, key)
	return &Trail{key: k, now: time.Now, meter: telemetry.Nop()}
}

// SetClock replaces the time source (tests and deterministic replays).
func (t *Trail) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// SetMeter wires audit metrics (entries appended by kind, chain length).
func (t *Trail) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meter = m
}

// Append adds an entry to the chain, filling in index, time, hashes and
// MAC, and returns the completed entry.
func (t *Trail) Append(ticket, technician string, kind Kind, detail string, allowed bool) Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{
		Index:      len(t.entries),
		Time:       t.now(),
		Ticket:     ticket,
		Technician: technician,
		Kind:       kind,
		Detail:     detail,
		Allowed:    allowed,
	}
	if len(t.entries) > 0 {
		e.PrevHash = t.entries[len(t.entries)-1].Hash
	}
	sum := sha256.Sum256(e.content())
	e.Hash = hex.EncodeToString(sum[:])
	mac := hmac.New(sha256.New, t.key)
	mac.Write(sum[:])
	e.MAC = hex.EncodeToString(mac.Sum(nil))
	t.entries = append(t.entries, e)
	t.meter.Counter("heimdall_audit_entries_total", telemetry.L("kind", string(kind))).Inc()
	t.meter.Gauge("heimdall_audit_chain_length").Set(float64(len(t.entries)))
	return e
}

// Entries returns a copy of the trail.
func (t *Trail) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Len returns the number of entries.
func (t *Trail) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Verify checks the whole chain: per-entry hashes, the prev-hash links,
// index continuity, and every HMAC. It returns the first inconsistency.
func (t *Trail) Verify() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return verifyEntries(t.entries, t.key)
}

func verifyEntries(entries []Entry, key []byte) error {
	prev := ""
	for i := range entries {
		e := &entries[i]
		if e.Index != i {
			return fmt.Errorf("audit: entry %d has index %d (reordered or truncated)", i, e.Index)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("audit: entry %d chain break", i)
		}
		sum := sha256.Sum256(e.content())
		if hex.EncodeToString(sum[:]) != e.Hash {
			return fmt.Errorf("audit: entry %d content hash mismatch (tampered)", i)
		}
		mac := hmac.New(sha256.New, key)
		mac.Write(sum[:])
		got, err := hex.DecodeString(e.MAC)
		// hex.DecodeString accepts uppercase; require the canonical lowercase
		// encoding too, so no byte of an exported MAC can be altered without
		// failing verification (the journal's rule).
		if err != nil || e.MAC != hex.EncodeToString(got) || !hmac.Equal(mac.Sum(nil), got) {
			return fmt.Errorf("audit: entry %d MAC mismatch (forged)", i)
		}
		prev = e.Hash
	}
	return nil
}

// Export serialises the trail as JSON for offline review.
func (t *Trail) Export() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.MarshalIndent(t.entries, "", "  ")
}

// Import parses an exported trail and verifies it against the key before
// returning it. Tampered exports are rejected. Parsing is strict — one JSON
// document, no unknown fields, nothing after it — so every byte of an
// export is covered by either the parser or the chain.
func Import(key, data []byte) (*Trail, error) {
	var entries []Entry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("audit: parsing export: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("audit: trailing data after export")
	}
	if err := verifyEntries(entries, key); err != nil {
		return nil, err
	}
	t := NewTrail(key)
	t.entries = entries
	return t, nil
}
