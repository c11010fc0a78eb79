package journal

import (
	"bytes"
	"strings"
	"testing"
)

// fullJournal builds a chain containing every record kind, with an intent
// that carries multi-party approvals — the complete surface a tamper sweep
// must cover.
func fullJournal(key []byte) *Journal {
	j := New(key)
	j.SetClock(testClock())
	j.Intent("T1#1", "T1", "alice", sampleChanges(),
		map[string]string{"r1": "! kind: router\nhostname r1\n"},
		Approval{Signer: "cust-ops", Role: "customer", MAC: strings.Repeat("ab", 32)},
		Approval{Signer: "msp-noc", Role: "msp", MAC: strings.Repeat("cd", 32)})
	j.Applied("T1#1", 0, "add acl entry")
	j.Committed("T1#1", "1 change")
	j.Intent("T2#1", "T2", "bob", sampleChanges(), nil)
	j.Applied("T2#1", 0, "add acl entry")
	j.RolledBack("T2#1", []string{"r1"}, "post-verify failed")
	j.Intent("T3#1", "T3", "carol", sampleChanges(), nil)
	j.Quarantined("T3#1", []string{"r1"}, []string{"r2"}, "restore failed on r2")
	j.Recovered("T3#1", "operator restored r2 from backup")
	return j
}

func kindSet(records []Record) map[Kind]bool {
	out := make(map[Kind]bool)
	for _, r := range records {
		out[r.Kind] = true
	}
	return out
}

// TestTamperAnySingleByteFailsImport is the satellite property test: flip
// any single byte of an exported journal (every byte offset, two different
// bit positions) and Import must refuse it — either the JSON no longer
// parses, or a record's index/chain/hash/MAC check fails. The fixture
// contains every record kind, so the sweep covers the full payload surface
// including approvals.
func TestTamperAnySingleByteFailsImport(t *testing.T) {
	key := []byte("tamper-key")
	j := fullJournal(key)
	if err := j.Verify(); err != nil {
		t.Fatalf("fixture does not verify: %v", err)
	}
	have := kindSet(j.Records())
	for _, k := range []Kind{KindIntent, KindApplied, KindCommitted, KindRolledBack, KindQuarantined, KindRecovered} {
		if !have[k] {
			t.Fatalf("fixture missing record kind %q", k)
		}
	}
	data, err := j.Export()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Import(key, data); err != nil {
		t.Fatalf("untampered export rejected: %v", err)
	}
	for _, bit := range []byte{0x01, 0x80} {
		for i := range data {
			mutated := bytes.Clone(data)
			mutated[i] ^= bit
			if _, err := Import(key, mutated); err == nil {
				t.Fatalf("flip of byte %d (xor %#02x, %q -> %q) accepted by Import",
					i, bit, data[i], mutated[i])
			}
		}
	}
}

// TestTamperPerKindPayloadFailsVerify mutates one payload field of each
// record kind in a parsed export (no re-hashing) and checks the chain is
// rejected — the table-driven per-kind complement to the raw byte sweep.
func TestTamperPerKindPayloadFailsVerify(t *testing.T) {
	key := []byte("tamper-key")
	base := fullJournal(key).Records()
	cases := []struct {
		kind   Kind
		mutate func(r *Record)
	}{
		{KindIntent, func(r *Record) { r.Changes[0].Device = "r9" }},
		{KindIntent, func(r *Record) { r.Approvals[0].Signer = "mallory" }},
		{KindIntent, func(r *Record) { r.PreState["r1"] = "hostname evil\n" }},
		{KindApplied, func(r *Record) { r.ChangeIndex++ }},
		{KindApplied, func(r *Record) { r.Detail += "!" }},
		{KindCommitted, func(r *Record) { r.Detail = "2 changes" }},
		{KindRolledBack, func(r *Record) { r.Restored = nil }},
		{KindQuarantined, func(r *Record) { r.Unrestored = nil }},
		{KindRecovered, func(r *Record) { r.Technician = "mallory" }},
		{KindIntent, func(r *Record) { r.Ticket = "T9" }},
		{KindCommitted, func(r *Record) { r.Commit = "T9#9" }},
	}
	for ci, tc := range cases {
		records := make([]Record, len(base))
		copy(records, base)
		found := false
		for i := range records {
			if records[i].Kind != tc.kind || found {
				continue
			}
			found = true
			// Deep-copy mutable payload so the base fixture stays pristine.
			r := base[i]
			r.Changes = append(r.Changes[:0:0], r.Changes...)
			r.Approvals = append(r.Approvals[:0:0], r.Approvals...)
			r.Restored = append(r.Restored[:0:0], r.Restored...)
			r.Unrestored = append(r.Unrestored[:0:0], r.Unrestored...)
			if r.PreState != nil {
				ps := make(map[string]string, len(r.PreState))
				for k, v := range r.PreState {
					ps[k] = v
				}
				r.PreState = ps
			}
			tc.mutate(&r)
			records[i] = r
		}
		if !found {
			t.Fatalf("case %d: no record of kind %q", ci, tc.kind)
		}
		if err := VerifyChain(records, key); err == nil {
			t.Fatalf("case %d (%s): payload mutation passed VerifyChain", ci, tc.kind)
		}
	}
}

// TestTruncationSemantics: chopping whole records off the END of a chain
// leaves a valid chain (that is exactly what a crash does, and recovery
// depends on it), while removing or reordering records anywhere in the
// middle breaks it. Byte-level truncation of the export always fails to
// parse.
func TestTruncationSemantics(t *testing.T) {
	key := []byte("tamper-key")
	j := fullJournal(key)
	records := j.Records()

	// Every prefix of a valid chain is a valid chain.
	for n := 0; n <= len(records); n++ {
		if err := VerifyChain(records[:n], key); err != nil {
			t.Fatalf("prefix of %d records rejected: %v", n, err)
		}
	}
	// Dropping any single non-final record is detected.
	for drop := 0; drop < len(records)-1; drop++ {
		cut := make([]Record, 0, len(records)-1)
		cut = append(cut, records[:drop]...)
		cut = append(cut, records[drop+1:]...)
		if err := VerifyChain(cut, key); err == nil {
			t.Fatalf("chain with record %d removed passed verification", drop)
		}
	}
	// Swapping any adjacent pair is detected.
	for i := 0; i < len(records)-1; i++ {
		swapped := make([]Record, len(records))
		copy(swapped, records)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		if err := VerifyChain(swapped, key); err == nil {
			t.Fatalf("chain with records %d,%d swapped passed verification", i, i+1)
		}
	}
	// Byte-level truncation mid-export never parses.
	data, err := j.Export()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(data); n++ {
		if _, err := Import(key, data[:n]); err == nil {
			t.Fatalf("export truncated to %d bytes accepted", n)
		}
	}
	// Wrong key is detected even on an untampered export.
	if _, err := Import([]byte("other-key"), data); err == nil {
		t.Fatal("export imported under the wrong key")
	}
}

// TestAppendVerbatimRejectsBrokenRecords covers the replica-side mirror
// entry point: a record that does not extend the local chain exactly — bad
// index, bad prev-hash, tampered content, forged MAC — must be refused.
func TestAppendVerbatimRejectsBrokenRecords(t *testing.T) {
	key := []byte("tamper-key")
	src := fullJournal(key)
	records := src.Records()

	mirror := New(key)
	for _, r := range records[:2] {
		if err := mirror.AppendVerbatim(r); err != nil {
			t.Fatalf("valid record refused: %v", err)
		}
	}
	next := records[2]

	bad := next
	bad.Index = 5
	if err := mirror.AppendVerbatim(bad); err == nil {
		t.Fatal("wrong index accepted")
	}
	bad = next
	bad.PrevHash = strings.Repeat("00", 32)
	if err := mirror.AppendVerbatim(bad); err == nil {
		t.Fatal("wrong prev-hash accepted")
	}
	bad = next
	bad.Detail += " (doctored)"
	if err := mirror.AppendVerbatim(bad); err == nil {
		t.Fatal("tampered content accepted")
	}
	bad = next
	bad.MAC = strings.Repeat("00", 32)
	if err := mirror.AppendVerbatim(bad); err == nil {
		t.Fatal("forged MAC accepted")
	}
	// The true record still fits: rejections must not advance the chain.
	if err := mirror.AppendVerbatim(next); err != nil {
		t.Fatalf("valid record refused after rejected attempts: %v", err)
	}
	if err := mirror.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendVerbatimRejectsRecasedMAC holds the mirror entry point to the
// rule Verify and Import apply: a record whose MAC decodes to the right
// bytes but is not the canonical lowercase encoding must be refused —
// otherwise a peer could plant a record in an honest replica that makes
// that replica's own chain fail Verify.
func TestAppendVerbatimRejectsRecasedMAC(t *testing.T) {
	key := []byte("tamper-key")
	records := fullJournal(key).Records()

	mirror := New(key)
	if err := mirror.AppendVerbatim(records[0]); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	recased := records[1]
	recased.MAC = strings.ToUpper(recased.MAC)
	if recased.MAC == records[1].MAC {
		t.Fatal("fixture: MAC has no letter to re-case")
	}
	if err := mirror.AppendVerbatim(recased); err == nil {
		t.Error("re-cased MAC accepted")
	}
	if err := mirror.Verify(); err != nil {
		t.Errorf("mirror no longer verifies its own chain: %v", err)
	}
	if err := mirror.AppendVerbatim(records[1]); err != nil {
		t.Errorf("valid record refused after the rejected attempt: %v", err)
	}
}

func TestDiffRelations(t *testing.T) {
	key := []byte("tamper-key")
	records := fullJournal(key).Records()

	if d := Diff(records, records); d.Relation != RelEqual || !d.Equal() {
		t.Fatalf("self diff = %v", d)
	}
	if d := Diff(records[:3], records); d.Relation != RelPrefix {
		t.Fatalf("prefix diff = %v", d)
	}
	if d := Diff(records, records[:3]); d.Relation != RelExtends {
		t.Fatalf("extends diff = %v", d)
	}
	forged := make([]Record, len(records))
	copy(forged, records)
	forged[2].Detail = "forged"
	Rechain(forged, key)
	d := Diff(records, forged)
	if d.Relation != RelDiverged {
		t.Fatalf("diverged diff = %v", d)
	}
	if d.Index != 2 {
		t.Fatalf("divergence index = %d, want 2", d.Index)
	}
	if !strings.Contains(d.String(), "diverge") {
		t.Fatalf("diff string %q does not name the divergence", d.String())
	}
}
