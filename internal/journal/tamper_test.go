package journal

// The chain's tamper suite: every property here is stated once, generic
// over the link type, and run on both payloads of internal/chain — the
// audit trail and the commit journal — through chain's own entry points
// (audit.Import and journal.Import are one-line views over chain.Import).
// It lives beside the journal fixture; the trail fixture arrives as its
// checked-in export, which internal/audit pins to its own fullTrail.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/chain"
	"heimdall/internal/config"
	"heimdall/internal/config/changegen"
)

// fullJournal builds a chain containing every record kind, with an intent
// that carries multi-party approvals — the complete surface a tamper sweep
// must cover. Its export is testdata/export.golden.json.
func fullJournal(key []byte) *Journal {
	j := New(key)
	j.SetClock(testClock())
	j.Intent("T1#1", "T1", "alice", sampleChanges(), sampleUndos(),
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

// payload is one link type's fixture as the generic properties see it: a
// chain holding every kind of link, its key, and the only thing generic
// code cannot do for itself — reach into a link.
type payload[T any, P chain.Link[T]] struct {
	key []byte
	log *chain.Log[T, P]
	// parts returns the link's chain fields and one payload string.
	parts func(*T) (*chain.Header, *string, *chain.Seal)
}

func export[T any, P chain.Link[T]](t testing.TB, log *chain.Log[T, P]) []byte {
	t.Helper()
	data, err := log.Export()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var (
	journalKey = []byte("tamper-key")
	trailKey   = []byte("test-key")
)

func journalPayload(t testing.TB) payload[Record, *Record] {
	j := fullJournal(journalKey)
	have := make(map[Kind]bool)
	for _, r := range j.Records() {
		have[r.Kind] = true
	}
	for _, k := range []Kind{KindIntent, KindApplied, KindCommitted, KindRolledBack, KindQuarantined, KindRecovered} {
		if !have[k] {
			t.Fatalf("fixture missing record kind %q", k)
		}
	}
	return payload[Record, *Record]{journalKey, j.Log,
		func(r *Record) (*chain.Header, *string, *chain.Seal) { return &r.Header, &r.Detail, &r.Seal }}
}

const trailGolden = "../audit/testdata/export.golden.json"

func trailPayload(t testing.TB) payload[audit.Entry, *audit.Entry] {
	data, err := os.ReadFile(trailGolden)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := audit.Import(trailKey, data)
	if err != nil {
		t.Fatalf("trail fixture: %v", err)
	}
	have := make(map[audit.Kind]bool)
	for _, e := range tr.Links() {
		have[e.Kind] = true
	}
	for _, k := range []audit.Kind{audit.KindCommand, audit.KindDecision, audit.KindChange,
		audit.KindVerify, audit.KindEscalation, audit.KindSession} {
		if !have[k] {
			t.Fatalf("fixture missing entry kind %q", k)
		}
	}
	return payload[audit.Entry, *audit.Entry]{trailKey, tr.Log,
		func(e *audit.Entry) (*chain.Header, *string, *chain.Seal) { return &e.Header, &e.Detail, &e.Seal }}
}

// TestExportGolden pins the journal's wire format and content rule. The
// golden was regenerated when the intent record's whole-device pre-state
// became one undo per change; the trail's golden has not moved since it was
// written by the build before internal/chain existed.
func TestExportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/export.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := export(t, journalPayload(t).log); !bytes.Equal(got, want) {
		t.Fatalf("journal export moved:\n%s", got)
	}
}

// TestTamperAnySingleByteFailsImport flips every byte of an export (two
// different bit positions) and requires Import to refuse each: either the
// JSON no longer parses strictly, or a link's index/chain/hash/MAC check
// fails. Both fixtures hold every kind of link, so the sweep covers the
// whole payload surface, approvals included.
func TestTamperAnySingleByteFailsImport(t *testing.T) {
	t.Run("trail", func(t *testing.T) { byteFlipSweep(t, trailPayload(t)) })
	t.Run("journal", func(t *testing.T) { byteFlipSweep(t, journalPayload(t)) })
}

func byteFlipSweep[T any, P chain.Link[T]](t *testing.T, p payload[T, P]) {
	data := export(t, p.log)
	if _, err := chain.Import[T, P](p.key, data); err != nil {
		t.Fatalf("untampered export rejected: %v", err)
	}
	for _, bit := range []byte{0x01, 0x80} {
		for i := range data {
			mutated := bytes.Clone(data)
			mutated[i] ^= bit
			if _, err := chain.Import[T, P](p.key, mutated); err == nil {
				t.Fatalf("flip of byte %d (xor %#02x, %q -> %q) accepted by Import",
					i, bit, data[i], mutated[i])
			}
		}
	}
}

// TestTamperStrictImport: bytes the chain does not cover must not ride
// along in an export — not as an extra field, not after the document — and
// a MAC must be the string Append wrote, not merely decode to its bytes.
func TestTamperStrictImport(t *testing.T) {
	t.Run("trail", func(t *testing.T) { strictImport(t, trailPayload(t)) })
	t.Run("journal", func(t *testing.T) { strictImport(t, journalPayload(t)) })
}

func strictImport[T any, P chain.Link[T]](t *testing.T, p payload[T, P]) {
	data := string(export(t, p.log))
	links := p.log.Links()
	_, _, seal := p.parts(&links[0])
	for name, forged := range map[string]string{
		"re-cased-mac":       strings.Replace(data, seal.MAC, strings.ToUpper(seal.MAC), 1),
		"unknown-field":      strings.Replace(data, `"index": 0,`, `"index": 0, "note": "approved by the customer",`, 1),
		"trailing-document":  data + ` {"index": 2}`,
		"trailing-delimiter": data + "]",
	} {
		t.Run(name, func(t *testing.T) {
			if forged == data {
				t.Fatal("export format changed, nothing to rewrite")
			}
			if _, err := chain.Import[T, P](p.key, []byte(forged)); err == nil {
				t.Error("forged export imported")
			}
			// All but the MAC is the decoder's to refuse, key or no key.
			if _, err := chain.Decode[T, P]([]byte(forged)); err == nil && name != "re-cased-mac" {
				t.Error("forged export decoded")
			}
		})
	}
}

// TestTamperPerKindPayloadFailsVerify mutates one payload field of each
// record kind in a parsed export (no re-hashing) and checks the chain is
// rejected — the table-driven per-kind complement to the raw byte sweep.
func TestTamperPerKindPayloadFailsVerify(t *testing.T) {
	key := journalKey
	base := fullJournal(key).Records()
	cases := []struct {
		kind   Kind
		mutate func(r *Record)
	}{
		{KindIntent, func(r *Record) { r.Changes[0].Device = "r9" }},
		{KindIntent, func(r *Record) { r.Approvals[0].Signer = "mallory" }},
		{KindIntent, func(r *Record) { r.Undos[0].ACL = nil }}, // recovery would delete GUARD
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
			r.Undos = append(r.Undos[:0:0], r.Undos...)
			tc.mutate(&r)
			records[i] = r
		}
		if !found {
			t.Fatalf("case %d: no record of kind %q", ci, tc.kind)
		}
		if err := chain.Verify(records, key); err == nil {
			t.Fatalf("case %d (%s): payload mutation passed Verify", ci, tc.kind)
		}
	}
}

// TestTruncationSemantics: chopping whole links off the END of a chain
// leaves a valid chain (that is exactly what a crash does, and recovery
// depends on it), while removing or reordering links anywhere in the
// middle breaks it. Byte-level truncation of the export always fails to
// parse.
func TestTruncationSemantics(t *testing.T) {
	t.Run("trail", func(t *testing.T) { truncationSemantics(t, trailPayload(t)) })
	t.Run("journal", func(t *testing.T) { truncationSemantics(t, journalPayload(t)) })
}

func truncationSemantics[T any, P chain.Link[T]](t *testing.T, p payload[T, P]) {
	links := p.log.Links()

	// Every prefix of a valid chain is a valid chain.
	for n := 0; n <= len(links); n++ {
		if err := chain.Verify[T, P](links[:n], p.key); err != nil {
			t.Fatalf("prefix of %d links rejected: %v", n, err)
		}
	}
	// Dropping any single non-final link is detected.
	for drop := 0; drop < len(links)-1; drop++ {
		cut := make([]T, 0, len(links)-1)
		cut = append(cut, links[:drop]...)
		cut = append(cut, links[drop+1:]...)
		if err := chain.Verify[T, P](cut, p.key); err == nil {
			t.Fatalf("chain with link %d removed passed verification", drop)
		}
	}
	// Swapping any adjacent pair is detected.
	for i := 0; i < len(links)-1; i++ {
		swapped := make([]T, len(links))
		copy(swapped, links)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		if err := chain.Verify[T, P](swapped, p.key); err == nil {
			t.Fatalf("chain with links %d,%d swapped passed verification", i, i+1)
		}
	}
	// So is a tail spliced on from a fork sealed under the same key.
	if err := chain.Verify[T, P](append(links[:2:2], p.fork(1)[2:]...), p.key); err == nil {
		t.Fatal("chain continued by a fork's links passed verification")
	}
	// Byte-level truncation mid-export never parses.
	data := export(t, p.log)
	for n := 1; n < len(data); n++ {
		if _, err := chain.Import[T, P](p.key, data[:n]); err == nil {
			t.Fatalf("export truncated to %d bytes accepted", n)
		}
	}
	// Wrong key is detected even on an untampered export.
	if _, err := chain.Import[T, P]([]byte("other-key"), data); err == nil {
		t.Fatal("export imported under the wrong key")
	}
}

// TestImportRejectsBrokenLink: an export whose last link does not extend
// the chain before it exactly — bad index, bad prev-hash, tampered content,
// forged MAC, or a link sealed under the key for a fork of the chain — is
// refused by Import. (A re-cased MAC is TestTamperStrictImport's and
// TestAppendVerbatimRejectsRecasedMAC's.)
func TestImportRejectsBrokenLink(t *testing.T) {
	t.Run("trail", func(t *testing.T) { brokenLinkRefusals(t, trailPayload(t)) })
	t.Run("journal", func(t *testing.T) { brokenLinkRefusals(t, journalPayload(t)) })
}

// fork returns a copy of the chain whose link at i was doctored and the
// whole re-sealed under the key: every link of it authenticates, and from
// i on none extends the original.
func (p payload[T, P]) fork(i int) []T {
	forked := p.log.Links()
	_, detail, _ := p.parts(&forked[i])
	*detail += " (doctored)"
	return reseal[T, P](p.key, forked, func(v *T) *chain.Header { h, _, _ := p.parts(v); return h })
}

// reseal seals links anew under key, each at its own time: every index,
// hash, prev-hash link and MAC recomputed — the forgery an insider who
// holds the key can produce. Verify cannot catch it; comparing it with
// another copy of the chain can.
func reseal[T any, P chain.Link[T]](key []byte, links []T, header func(*T) *chain.Header) []T {
	l := chain.New[T, P](key)
	for i := range links {
		at := header(&links[i]).Time
		l.SetClock(func() time.Time { return at })
		l.Append(links[i])
	}
	return l.Links()
}

func brokenLinkRefusals[T any, P chain.Link[T]](t *testing.T, p payload[T, P]) {
	links := p.log.Links()
	imports := func(last T) bool {
		data, err := json.Marshal(append(links[:2:2], last))
		if err != nil {
			t.Fatal(err)
		}
		_, err = chain.Import[T, P](p.key, data)
		return err == nil
	}
	if !imports(links[2]) {
		t.Fatal("untampered three-link export refused")
	}
	for name, doctor := range map[string]func(h *chain.Header, detail *string, s *chain.Seal){
		"wrong index":      func(h *chain.Header, _ *string, _ *chain.Seal) { h.Index = 5 },
		"wrong prev-hash":  func(_ *chain.Header, _ *string, s *chain.Seal) { s.PrevHash = strings.Repeat("00", 32) },
		"tampered content": func(_ *chain.Header, detail *string, _ *chain.Seal) { *detail += " (doctored)" },
		"forged MAC":       func(_ *chain.Header, _ *string, s *chain.Seal) { s.MAC = strings.Repeat("00", 32) },
	} {
		bad := links[2]
		doctor(p.parts(&bad))
		if imports(bad) {
			t.Errorf("%s accepted", name)
		}
	}
	// A link sealed under the key, with the right index, whose predecessor
	// is not this chain's: only the prev-hash link tells it apart.
	if imports(p.fork(1)[2]) {
		t.Error("link of a forked chain accepted")
	}
}

// TestAppendVerbatimRejectsRecasedMAC holds the entry point for links that
// are already sealed — FromLinks, which Import ends in — to the rule Verify
// applies: a link whose MAC decodes to the right bytes but is not the
// canonical lowercase encoding must be refused, otherwise a log could be
// seeded with a link that makes its own chain fail Verify.
func TestAppendVerbatimRejectsRecasedMAC(t *testing.T) {
	t.Run("trail", func(t *testing.T) { verbatimRecasedMAC(t, trailPayload(t)) })
	t.Run("journal", func(t *testing.T) { verbatimRecasedMAC(t, journalPayload(t)) })
}

func verbatimRecasedMAC[T any, P chain.Link[T]](t *testing.T, p payload[T, P]) {
	links := p.log.Links()
	recased := links[1]
	_, _, seal := p.parts(&recased)
	seal.MAC = strings.ToUpper(seal.MAC)
	if _, _, honest := p.parts(&links[1]); seal.MAC == honest.MAC {
		t.Fatal("fixture: MAC has no letter to re-case")
	}
	if _, err := chain.FromLinks[T, P](p.key, []T{links[0], recased}); err == nil {
		t.Error("re-cased MAC accepted")
	}
	if err := chain.Verify[T, P]([]T{links[0], recased}, p.key); err == nil {
		t.Error("re-cased MAC verifies")
	}
	seeded, err := chain.FromLinks[T, P](p.key, links[:2])
	if err != nil {
		t.Fatalf("valid links refused: %v", err)
	}
	if err := seeded.Verify(); err != nil {
		t.Errorf("seeded log no longer verifies its own chain: %v", err)
	}
}

// FuzzImport searches for an export the chain accepts but does not cover.
// The property is stated on the re-export, not on the input, because JSON
// whitespace, escapes and Go's case-insensitive key match are the parser's
// business and carry no content: whatever bytes Import accepts, the chain
// it returns exports as the original does — or, every prefix of a valid
// chain being valid, as the original's first Len() links do.
func FuzzImport(f *testing.F) {
	trail, journal := trailPayload(f), journalPayload(f)
	te, je := export(f, trail.log), export(f, journal.log)
	f.Add(true, te)
	f.Add(false, je)
	// The two exports a pipe-joined content rule lets through.
	f.Add(true, bytes.Replace(te,
		[]byte("\"kind\": \"command\",\n    \"detail\": \"[r1] show running-config | include acl\""),
		[]byte("\"kind\": \"command|[r1] show running-config \",\n    \"detail\": \" include acl\""), 1))
	f.Add(true, bytes.Replace(te, []byte(`"2026-07-06T12:00:01Z"`), []byte(`"2026-07-06T14:00:01+02:00"`), 1))
	f.Fuzz(func(t *testing.T, isTrail bool, data []byte) {
		if isTrail {
			reexportsAsPrefix(t, trail, data)
		} else {
			reexportsAsPrefix(t, journal, data)
		}
	})
}

func reexportsAsPrefix[T any, P chain.Link[T]](t *testing.T, p payload[T, P], data []byte) {
	got, err := chain.Import[T, P](p.key, data)
	if err != nil {
		return
	}
	links := p.log.Links()
	if got.Len() > len(links) {
		t.Fatalf("import holds %d links, the original %d", got.Len(), len(links))
	}
	want, err := chain.FromLinks[T, P](p.key, links[:got.Len()])
	if err != nil {
		t.Fatal(err)
	}
	if g, w := export(t, got), export(t, want); !bytes.Equal(g, w) {
		t.Fatalf("accepted export re-exports differently:\n%s\nwant:\n%s", g, w)
	}
}

func TestDiffRelations(t *testing.T) {
	key := journalKey
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
	forged = reseal[Record, *Record](key, forged, func(r *Record) *chain.Header { return &r.Header })
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

// FuzzLinkContent holds the content rule, written by hand, to its oracle:
// for any trail entry and journal record, chain.AppendContent writes
// exactly the bytes json.Marshal writes for the link with Hash and MAC
// blank, whatever the link holds in them, and panics exactly where
// json.Marshal fails (a time RFC 3339 cannot carry). An intent's change set
// and undos are drawn from payload as the change-set digest's fuzz draws
// them (changegen): invalid prefixes, zero and zoned addresses, nil and
// empty lists and maps, strings and OSPF passive keys that need escaping.
func FuzzLinkContent(f *testing.F) {
	// One seed per escape class of encoding/json's strings, HTML escaping
	// on, each in every string field and with every list shape.
	payloads := [][]byte{
		{2, 1, 2, 63, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{3, 3, 0, 8, 2, 1, 1, 1, 1, 2, 2, 3, 3, 2, 5, 6, 127, 1, 3, 3, 6, 6},
		{1, 4, 9, 32, 1, 2, 1, 2, 2, 2, 2, 3, 0, 5, 0, 0, 255, 3, 3, 2, 1, 5, 1},
	}
	for i, s := range []string{
		"", "plain [r1] show ip route", `"quoted" back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"<a href='x'>&amp;</a>", "\xff\xfe bad \xc3 utf-8 \xe2\x80", "line\u2028para\u2029", "héllo 世界 🙂",
	} {
		f.Add(s, s, s, s, i%2 == 0, i, int64(1700000000+i), uint32(123456789*i), int32(3600*i), uint16(i*0x5555), payloads[i%len(payloads)])
	}
	f.Add("T", "x", "command", "d", true, 0, int64(253402300800), uint32(0), int32(0), uint16(0), []byte(nil)) // year 10000
	f.Add("T", "x", "command", "d", true, 0, int64(-62135596801), uint32(0), int32(0), uint16(0), []byte(nil)) // year -1
	f.Add("T", "x", "command", "d", true, 0, int64(1700000000), uint32(1), int32(24*3600), uint16(0), []byte(nil))
	f.Add("T", "x", "command", "d", true, 0, int64(1700000000), uint32(1), int32(-86399), uint16(0), []byte(nil))
	f.Fuzz(func(t *testing.T, a, b, c, d string, allowed bool, index int, sec int64, nsec uint32, zone int32, shape uint16, payload []byte) {
		at := time.Unix(sec, int64(nsec%1e9)).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("fuzz", int(zone)))
		}
		head := chain.Header{Index: index, Time: at}
		entry := audit.Entry{Header: head, Ticket: a, Technician: b, Kind: audit.Kind(c), Detail: d, Allowed: allowed}
		sameContent(t, &entry, &entry.Seal, chain.Seal{PrevHash: d, Hash: a, MAC: b})

		// Two bits of shape per list: nil, empty, one element, several.
		strs := func(k uint) []string { return [][]string{nil, {}, {a}, {b, c, d}}[shape>>k&3] }
		changes, undos := changegen.Draw(payload)
		record := Record{Header: head, Kind: Kind(a), Commit: b, Ticket: c, Technician: d,
			Changes:     [][]config.Change{nil, {}, sampleChanges(), changes}[shape&3],
			Undos:       [][]config.Undo{nil, {}, sampleUndos(), undos}[shape>>2&3],
			Approvals:   [][]Approval{nil, {}, {{Signer: a, MAC: b}}, {{Signer: c, Role: d, MAC: a}, {Signer: b}}}[shape>>4&3],
			ChangeIndex: index, Detail: c, Restored: strs(6), Unrestored: strs(8)}
		sameContent(t, &record, &record.Seal, chain.Seal{PrevHash: a, Hash: c, MAC: d})
	})
}

// sameContent compares chain.AppendContent of link, its seal (s) set to
// seal, with json.Marshal of link sealed with seal's PrevHash alone.
func sameContent[T any, P chain.Link[T]](t *testing.T, link P, s *chain.Seal, seal chain.Seal) {
	t.Helper()
	*s = chain.Seal{PrevHash: seal.PrevHash}
	want, err := json.Marshal(link)
	*s = seal
	var got []byte
	panicked := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		got = chain.AppendContent(nil, link)
		return false
	}()
	switch {
	case err != nil && !panicked:
		t.Fatalf("json.Marshal fails (%v), AppendContent wrote %s", err, got)
	case err == nil && panicked:
		t.Fatalf("AppendContent panicked, json.Marshal wrote %s", want)
	case !bytes.Equal(got, want):
		t.Fatalf("content\n got %s\nwant %s", got, want)
	}
}
