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
// quarantined) closes the commit. Records are links of the enforcer's hash
// chain (internal/chain), sealed under an enclave-derived key exactly as
// the audit trail's entries are, so a journal that survived a crash can be
// authenticated before it drives recovery.
package journal

import (
	"heimdall/internal/chain"
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
	chain.Header
	Kind       Kind   `json:"kind"`
	Commit     string `json:"commit"`
	Ticket     string `json:"ticket,omitempty"`
	Technician string `json:"technician,omitempty"`

	Changes     []config.Change   `json:"changes,omitempty"`
	PreState    map[string]string `json:"preState,omitempty"`
	Approvals   []Approval        `json:"approvals,omitempty"`
	ChangeIndex int               `json:"changeIndex"`
	Detail      string            `json:"detail,omitempty"`
	Restored    []string          `json:"restored,omitempty"`
	Unrestored  []string          `json:"unrestored,omitempty"`

	chain.Seal
}

// Journal is the commit log: a chain.Log of records, which supplies
// SetClock, Len, Verify, Export and AppendVerbatim — the replica-mirroring
// primitive by which an enforcer replica copies the coordinator's records
// byte for byte. It is safe for concurrent use.
type Journal struct {
	*chain.Log[Record, *Record]
}

// New creates a journal authenticated with the given HMAC key (in
// Heimdall, derived inside the enforcer's enclave and never released).
func New(key []byte) *Journal {
	return &Journal{chain.New[Record](key)}
}

// FromRecords verifies a detached record chain against the key and
// returns a journal holding a copy of it — how a replica is seeded or
// healed from the coordinator's chain.
func FromRecords(key []byte, records []Record) (*Journal, error) {
	log, err := chain.FromLinks(key, records)
	if err != nil {
		return nil, err
	}
	return &Journal{log}, nil
}

// Import parses an exported journal strictly and verifies it against the
// key before returning it. Tampered journals are rejected; a journal
// truncated at a record boundary — the shape a crash leaves — verifies,
// because every prefix of a valid chain is a valid chain.
func Import(key, data []byte) (*Journal, error) {
	log, err := chain.Import[Record](key, data)
	if err != nil {
		return nil, err
	}
	return &Journal{log}, nil
}

// SetMeter wires journal metrics (records appended or mirrored, by kind).
func (j *Journal) SetMeter(m telemetry.Meter) {
	if m == nil {
		m = telemetry.Nop()
	}
	j.OnAppend(func(r *Record) {
		m.Counter("heimdall_journal_records_total", telemetry.L("kind", string(r.Kind))).Inc()
	})
}

// Intent opens a commit: the scheduled change set, the canonical
// pre-change configuration of every device the set touches, and — for
// high-risk changes — the M-of-N approvals that authorized it. It must be
// appended before the first change is pushed — that write-ahead ordering
// is what makes crash recovery possible. With no approvals the record
// serialises byte-identically to the pre-authorization format.
func (j *Journal) Intent(commit, ticket, technician string, changes []config.Change, preState map[string]string, approvals ...Approval) Record {
	return j.Append(Record{
		Kind: KindIntent, Commit: commit, Ticket: ticket, Technician: technician,
		Changes: changes, PreState: preState, Approvals: approvals, ChangeIndex: -1,
	})
}

// Applied records that the change at the given index of the intent's
// scheduled set has been pushed to production.
func (j *Journal) Applied(commit string, index int, detail string) Record {
	return j.Append(Record{Kind: KindApplied, Commit: commit, ChangeIndex: index, Detail: detail})
}

// Committed closes the commit as fully applied and post-verified.
func (j *Journal) Committed(commit, detail string) Record {
	return j.Append(Record{Kind: KindCommitted, Commit: commit, ChangeIndex: -1, Detail: detail})
}

// RolledBack closes the commit as fully undone: every touched device was
// restored to its pre-state.
func (j *Journal) RolledBack(commit string, restored []string, why string) Record {
	return j.Append(Record{
		Kind: KindRolledBack, Commit: commit, ChangeIndex: -1,
		Restored: restored, Detail: why,
	})
}

// Quarantined closes the commit in the degraded state: rollback restored
// only some devices and the listed ones remain in their pushed state.
func (j *Journal) Quarantined(commit string, restored, unrestored []string, why string) Record {
	return j.Append(Record{
		Kind: KindQuarantined, Commit: commit, ChangeIndex: -1,
		Restored: restored, Unrestored: unrestored, Detail: why,
	})
}

// Recovered records a crash-recovery pass and its action.
func (j *Journal) Recovered(commit, action string) Record {
	return j.Append(Record{Kind: KindRecovered, Commit: commit, ChangeIndex: -1, Detail: action})
}

// Records returns a copy of the journal.
func (j *Journal) Records() []Record { return j.Links() }

// Open returns a copy of the intent record of the last commit that is not
// settled — the commit a crashed enforcer was in the middle of, or a
// quarantined commit whose partial state still needs repair — along with
// the indexes of its applied changes, or nil when every commit is closed.
func (j *Journal) Open() (*Record, []int) {
	var intent *Record
	var applied []int
	j.View(func(records []Record) {
		for i := range records {
			r := &records[i]
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
		if intent != nil {
			cp := *intent
			intent = &cp
		}
	})
	return intent, applied
}
