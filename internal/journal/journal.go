// Package journal implements the enforcer's write-ahead commit journal:
// a tamper-evident record of every production push, detailed enough to
// finish or undo a half-applied commit after a crash.
//
// Where the audit trail (internal/audit) answers "what happened, for the
// customer's auditor", the journal answers "what was I doing, for the
// recovering enforcer": the intent record written before the first device
// is touched carries the scheduled change set and the pre-change
// configuration of every affected device, each applied change lands as its
// own record, and exactly one terminal record (committed / rolled-back /
// quarantined) closes the commit. Records are hash-chained and HMAC'd with
// an enclave-derived key using the same discipline as the audit trail, so
// a journal that survived a crash can be authenticated before it drives
// recovery.
package journal

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/telemetry"
)

// Kind classifies a journal record.
type Kind string

const (
	// KindIntent opens a commit: scheduled changes + device pre-state,
	// written before anything touches production.
	KindIntent Kind = "intent"
	// KindApplied records one change successfully pushed to production.
	KindApplied Kind = "applied"
	// KindCommitted closes a commit that fully applied and post-verified.
	KindCommitted Kind = "committed"
	// KindRolledBack closes a commit undone back to its pre-state.
	KindRolledBack Kind = "rolled-back"
	// KindQuarantined closes a commit whose rollback itself failed:
	// production is in the recorded mixed state and needs recovery.
	KindQuarantined Kind = "quarantined"
	// KindRecovered records a crash-recovery pass over an open commit.
	KindRecovered Kind = "recovered"
)

// closes reports whether the kind settles a commit for good. Quarantined
// is terminal for the push but NOT settled: production is partial, so the
// commit stays open for Recover to finish.
func closes(k Kind) bool {
	return k == KindCommitted || k == KindRolledBack
}

// Approval is one signer's HMAC endorsement of a commit's scheduled
// change set. High-risk changes (see internal/authz) require M of them,
// from both the customer and the MSP, recorded in the intent record before
// the push phase may start — so the journal itself proves who authorized
// what.
type Approval struct {
	// Signer names the approving party's key.
	Signer string `json:"signer"`
	// Role is the signer's side of the engagement ("customer" or "msp").
	Role string `json:"role,omitempty"`
	// MAC is the hex HMAC-SHA256 of the authorization digest (ticket +
	// canonical change set) under the signer's key.
	MAC string `json:"mac"`
}

// Record is one link of the journal chain. Payload fields are set per
// kind: Changes, PreState and Approvals only on intent records, ChangeIndex
// only on applied records (-1 elsewhere), Restored/Unrestored only on
// rollback and quarantine records.
type Record struct {
	Index      int       `json:"index"`
	Time       time.Time `json:"time"`
	Kind       Kind      `json:"kind"`
	Commit     string    `json:"commit"`
	Ticket     string    `json:"ticket,omitempty"`
	Technician string    `json:"technician,omitempty"`

	Changes     []config.Change   `json:"changes,omitempty"`
	PreState    map[string]string `json:"preState,omitempty"`
	Approvals   []Approval        `json:"approvals,omitempty"`
	ChangeIndex int               `json:"changeIndex"`
	Detail      string            `json:"detail,omitempty"`
	Restored    []string          `json:"restored,omitempty"`
	Unrestored  []string          `json:"unrestored,omitempty"`

	PrevHash string `json:"prevHash"`
	Hash     string `json:"hash"`
	MAC      string `json:"mac"`
}

// content returns the canonical byte string covered by the record hash:
// the record itself with the chain-output fields cleared, in Go's
// deterministic JSON field order.
func (r *Record) content() []byte {
	c := *r
	c.Hash = ""
	c.MAC = ""
	b, err := json.Marshal(&c)
	if err != nil {
		// Record payloads are plain data; marshal cannot fail for values
		// the enforcer constructs. Panic beats silently unverifiable links.
		panic(fmt.Sprintf("journal: marshal record: %v", err))
	}
	return b
}

// Journal is an append-only, hash-chained commit log. It is safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	key     []byte
	records []Record
	now     func() time.Time
	meter   telemetry.Meter
}

// New creates a journal authenticated with the given HMAC key (in
// Heimdall, derived inside the enforcer's enclave and never released).
func New(key []byte) *Journal {
	k := make([]byte, len(key))
	copy(k, key)
	return &Journal{key: k, now: time.Now, meter: telemetry.Nop()}
}

// SetClock replaces the time source (tests and deterministic replays).
func (j *Journal) SetClock(now func() time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.now = now
}

// SetMeter wires journal metrics (records appended by kind).
func (j *Journal) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.meter = m
}

// append chains and stores one record, filling Index, Time, hashes, MAC.
func (j *Journal) append(r Record) Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.Index = len(j.records)
	r.Time = j.now()
	if len(j.records) > 0 {
		r.PrevHash = j.records[len(j.records)-1].Hash
	}
	sum := sha256.Sum256(r.content())
	r.Hash = hex.EncodeToString(sum[:])
	mac := hmac.New(sha256.New, j.key)
	mac.Write(sum[:])
	r.MAC = hex.EncodeToString(mac.Sum(nil))
	j.records = append(j.records, r)
	j.meter.Counter("heimdall_journal_records_total", telemetry.L("kind", string(r.Kind))).Inc()
	return r
}

// Intent opens a commit: the scheduled change set, the canonical
// pre-change configuration of every device the set touches, and — for
// high-risk changes — the M-of-N approvals that authorized it. It must be
// appended before the first change is pushed — that write-ahead ordering
// is what makes crash recovery possible. With no approvals the record
// serialises byte-identically to the pre-authorization format.
func (j *Journal) Intent(commit, ticket, technician string, changes []config.Change, preState map[string]string, approvals ...Approval) Record {
	return j.append(Record{
		Kind: KindIntent, Commit: commit, Ticket: ticket, Technician: technician,
		Changes: changes, PreState: preState, Approvals: approvals, ChangeIndex: -1,
	})
}

// Applied records that the change at the given index of the intent's
// scheduled set has been pushed to production.
func (j *Journal) Applied(commit string, index int, detail string) Record {
	return j.append(Record{Kind: KindApplied, Commit: commit, ChangeIndex: index, Detail: detail})
}

// Committed closes the commit as fully applied and post-verified.
func (j *Journal) Committed(commit, detail string) Record {
	return j.append(Record{Kind: KindCommitted, Commit: commit, ChangeIndex: -1, Detail: detail})
}

// RolledBack closes the commit as fully undone: every touched device was
// restored to its pre-state.
func (j *Journal) RolledBack(commit string, restored []string, why string) Record {
	return j.append(Record{
		Kind: KindRolledBack, Commit: commit, ChangeIndex: -1,
		Restored: restored, Detail: why,
	})
}

// Quarantined closes the commit in the degraded state: rollback restored
// only some devices and the listed ones remain in their pushed state.
func (j *Journal) Quarantined(commit string, restored, unrestored []string, why string) Record {
	return j.append(Record{
		Kind: KindQuarantined, Commit: commit, ChangeIndex: -1,
		Restored: restored, Unrestored: unrestored, Detail: why,
	})
}

// Recovered records a crash-recovery pass and its action.
func (j *Journal) Recovered(commit, action string) Record {
	return j.append(Record{Kind: KindRecovered, Commit: commit, ChangeIndex: -1, Detail: action})
}

// AppendVerbatim appends an already-chained record without re-stamping
// it — the replica-mirroring primitive: an enforcer replica copies the
// coordinator's records byte-for-byte, so honest replica journals are
// bit-identical by construction. The record must authenticate under the
// journal's key (content hash and HMAC intact) and extend the current head
// exactly (contiguous index, matching prev-hash); any other record is
// refused, which is how a replica notices it has lagged or diverged.
func (j *Journal) AppendVerbatim(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.Index != len(j.records) {
		return fmt.Errorf("journal: verbatim record index %d, head is %d", r.Index, len(j.records)-1)
	}
	prev := ""
	if len(j.records) > 0 {
		prev = j.records[len(j.records)-1].Hash
	}
	if r.PrevHash != prev {
		return fmt.Errorf("journal: verbatim record %d does not extend this chain", r.Index)
	}
	if err := r.authenticate(j.key); err != nil {
		return fmt.Errorf("journal: verbatim record %d %v", r.Index, err)
	}
	j.records = append(j.records, r)
	j.meter.Counter("heimdall_journal_records_total", telemetry.L("kind", string(r.Kind))).Inc()
	return nil
}

// Records returns a copy of the journal.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.records))
	copy(out, j.records)
	return out
}

// Len returns the number of records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Open returns a copy of the intent record of the last commit that is not
// settled — the commit a crashed enforcer was in the middle of, or a
// quarantined commit whose partial state still needs repair — along with
// the indexes of its applied changes, or nil when every commit is closed.
func (j *Journal) Open() (*Record, []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var intent *Record
	var applied []int
	for i := range j.records {
		r := &j.records[i]
		switch {
		case r.Kind == KindIntent:
			intent = r
			applied = nil
		case intent != nil && r.Commit == intent.Commit && r.Kind == KindApplied:
			applied = append(applied, r.ChangeIndex)
		case intent != nil && r.Commit == intent.Commit && closes(r.Kind):
			intent = nil
			applied = nil
		}
	}
	if intent == nil {
		return nil, nil
	}
	cp := *intent
	return &cp, applied
}

// Verify checks the whole chain: per-record hashes, prev-hash links,
// index continuity and every HMAC. It returns the first inconsistency.
func (j *Journal) Verify() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return verifyRecords(j.records, j.key)
}

// VerifyChain checks a detached record slice the way Verify checks the
// journal's own chain — the cross-audit entry point for chains received
// from another replica.
func VerifyChain(records []Record, key []byte) error {
	return verifyRecords(records, key)
}

func verifyRecords(records []Record, key []byte) error {
	prev := ""
	for i := range records {
		r := &records[i]
		if r.Index != i {
			return fmt.Errorf("journal: record %d has index %d (reordered or truncated)", i, r.Index)
		}
		if r.PrevHash != prev {
			return fmt.Errorf("journal: record %d chain break", i)
		}
		if err := r.authenticate(key); err != nil {
			return fmt.Errorf("journal: record %d %v", i, err)
		}
		prev = r.Hash
	}
	return nil
}

// authenticate checks one record on its own: the content hash and the HMAC
// under key. Verify, Import and AppendVerbatim all admit a record by this
// one rule, so a record a replica mirrors is a record its chain verifies.
func (r *Record) authenticate(key []byte) error {
	sum := sha256.Sum256(r.content())
	if hex.EncodeToString(sum[:]) != r.Hash {
		return errors.New("content hash mismatch (tampered)")
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(sum[:])
	got, err := hex.DecodeString(r.MAC)
	// hex.DecodeString accepts uppercase; require the canonical lowercase
	// encoding too, so no byte of an exported MAC can be altered without
	// failing verification.
	if err != nil || r.MAC != hex.EncodeToString(got) || !hmac.Equal(mac.Sum(nil), got) {
		return errors.New("MAC mismatch (forged)")
	}
	return nil
}

// Export serialises the journal as JSON. A crashed enforcer's journal is
// what survives; Import authenticates it before recovery trusts it.
func (j *Journal) Export() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return json.MarshalIndent(j.records, "", "  ")
}

// Head is a compact claim about a chain's tip — what replicas exchange
// during cross-audit. Index is -1 for an empty chain.
type Head struct {
	Index int    `json:"index"`
	Hash  string `json:"hash"`
}

// Head returns the journal's current chain tip.
func (j *Journal) Head() Head {
	j.mu.Lock()
	defer j.mu.Unlock()
	return HeadOf(j.records)
}

// HeadOf returns the chain tip of a record slice.
func HeadOf(records []Record) Head {
	if len(records) == 0 {
		return Head{Index: -1}
	}
	last := records[len(records)-1]
	return Head{Index: last.Index, Hash: last.Hash}
}

// Rechain recomputes every hash, prev-hash link and MAC of a record slice
// in place — exactly the forgery a compromised replica that holds the
// journal key can produce. Verify cannot catch a rechained journal (the
// insider has the key); majority cross-audit between replicas can, which
// is why Byzantine drills need this helper to simulate the attack.
func Rechain(records []Record, key []byte) {
	prev := ""
	for i := range records {
		r := &records[i]
		r.Index = i
		r.PrevHash = prev
		sum := sha256.Sum256(r.content())
		r.Hash = hex.EncodeToString(sum[:])
		mac := hmac.New(sha256.New, key)
		mac.Write(sum[:])
		r.MAC = hex.EncodeToString(mac.Sum(nil))
		prev = r.Hash
	}
}

// Import parses an exported journal and verifies it against the key
// before returning it. Tampered journals are rejected; a journal truncated
// at a record boundary — the shape a crash leaves — verifies, because
// every prefix of a valid chain is a valid chain. Parsing is strict
// (unknown fields and trailing data are errors): a field name altered in
// transit must not silently degrade to the field's zero value.
func Import(key, data []byte) (*Journal, error) {
	var records []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&records); err != nil {
		return nil, fmt.Errorf("journal: parsing export: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("journal: trailing data after export")
	}
	if err := verifyRecords(records, key); err != nil {
		return nil, err
	}
	j := New(key)
	j.records = records
	return j, nil
}
