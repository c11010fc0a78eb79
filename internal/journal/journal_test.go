package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"heimdall/internal/chain"
	"heimdall/internal/config"
	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func sampleChanges() []config.Change {
	return []config.Change{
		{Device: "r1", Op: config.OpAddACLEntry, ACLName: "GUARD",
			Entry: &netmodel.ACLEntry{Seq: 15, Action: netmodel.Permit, Proto: netmodel.TCP,
				Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 443}},
		{Device: "r2", Op: config.OpAddStaticRoute,
			Route: &netmodel.StaticRoute{Prefix: netip.MustParsePrefix("10.9.0.0/24"),
				NextHop: netip.MustParseAddr("10.0.0.2")}},
		{Device: "r2", Op: config.OpSetGateway, Gateway: netip.MustParseAddr("10.0.0.1")},
	}
}

// sampleUndos undoes sampleChanges: r1's GUARD as it was, r2's static
// routes (none) and its gateway (none).
func sampleUndos() []config.Undo {
	return []config.Undo{
		{Device: "r1", Section: "acl", Name: "GUARD", ACL: &netmodel.ACL{Name: "GUARD", Entries: []netmodel.ACLEntry{
			{Seq: 10, Action: netmodel.Deny, Dst: netip.MustParsePrefix("10.3.0.0/24")},
			{Seq: 30, Action: netmodel.Permit}}}},
		{Device: "r2", Section: "routes"},
		{Device: "r2", Section: "gateway"},
	}
}

func sampleJournal(key []byte) *Journal {
	j := New(key)
	j.SetClock(testClock())
	j.Intent("T1#1", "T1", "alice", sampleChanges(), sampleUndos())
	j.Applied("T1#1", 0, "add acl entry")
	j.Applied("T1#1", 1, "add static route")
	return j
}

func TestChainAppendsAndVerifies(t *testing.T) {
	j := sampleJournal([]byte("k1"))
	j.Committed("T1#1", "3 changes")
	if err := j.Verify(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	recs := j.Records()
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		if i > 0 && r.PrevHash != recs[i-1].Hash {
			t.Fatalf("record %d prev-hash mismatch", i)
		}
	}
}

func TestTamperDetected(t *testing.T) {
	j := sampleJournal([]byte("k1"))
	j.Committed("T1#1", "done")
	data, err := j.Export()
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip an applied record's detail.
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	recs[1].Detail = "remove acl entry"
	forged, _ := json.Marshal(recs)
	if _, err := Import([]byte("k1"), forged); err == nil {
		t.Fatal("tampered journal imported")
	}
	// Wrong key is rejected even with intact content.
	if _, err := Import([]byte("k2"), data); err == nil {
		t.Fatal("journal imported under wrong key")
	}
	// Intact journal round-trips and still verifies.
	back, err := Import([]byte("k1"), data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
}

// A crash leaves a journal truncated at a record boundary; every such
// prefix must import and verify, because recovery has to trust it.
func TestTruncatedPrefixVerifies(t *testing.T) {
	j := sampleJournal([]byte("k1"))
	j.RolledBack("T1#1", []string{"r1", "r2"}, "post-apply verification failed")
	full := j.Records()
	for k := 0; k <= len(full); k++ {
		data, err := json.Marshal(full[:k])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Import([]byte("k1"), data); err != nil {
			t.Fatalf("prefix of %d records rejected: %v", k, err)
		}
	}
	// Truncation in the middle (dropping an interior record) is detected.
	data, _ := json.Marshal(append(append([]Record(nil), full[0]), full[2:]...))
	if _, err := Import([]byte("k1"), data); err == nil {
		t.Fatal("interior truncation not detected")
	}
}

// The intent record must round-trip the change set and its undos exactly:
// recovery restores the undos and replays the changes, so any lossy
// serialisation would corrupt production.
func TestChangeSetRoundTrips(t *testing.T) {
	j := sampleJournal([]byte("k1"))
	data, err := j.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import([]byte("k1"), data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Records()[0]
	if want := sampleChanges(); !reflect.DeepEqual(got.Changes, want) {
		t.Fatalf("changes did not round-trip:\n got %#v\nwant %#v", got.Changes, want)
	}
	if want := sampleUndos(); !reflect.DeepEqual(got.Undos, want) {
		t.Fatalf("undos did not round-trip:\n got %#v\nwant %#v", got.Undos, want)
	}
}

func TestOpenCommit(t *testing.T) {
	j := sampleJournal([]byte("k1"))
	intent, applied := j.Open()
	if intent == nil || intent.Commit != "T1#1" {
		t.Fatalf("Open = %+v, want intent T1#1", intent)
	}
	if !reflect.DeepEqual(applied, []int{0, 1}) {
		t.Fatalf("applied = %v, want [0 1]", applied)
	}
	j.Committed("T1#1", "done")
	if intent, _ := j.Open(); intent != nil {
		t.Fatalf("Open after terminal record = %+v, want nil", intent)
	}
	// A second commit reopens; quarantine closes it too.
	j.Intent("T2#2", "T2", "bob", sampleChanges()[:1], nil)
	if intent, applied := j.Open(); intent == nil || intent.Commit != "T2#2" || len(applied) != 0 {
		t.Fatalf("Open = %+v/%v, want fresh intent T2#2", intent, applied)
	}
	// Quarantine does NOT settle the commit: production is partial and
	// recovery must still find it.
	j.Quarantined("T2#2", nil, []string{"r1"}, "restore outage")
	if intent, _ := j.Open(); intent == nil || intent.Commit != "T2#2" {
		t.Fatalf("Open after quarantine = %+v, want still-open T2#2", intent)
	}
	j.RolledBack("T2#2", []string{"r1"}, "repaired by operator")
	if intent, _ := j.Open(); intent != nil {
		t.Fatal("Open after rollback should be nil")
	}
}

func TestMeterCountsRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New([]byte("k"))
	j.SetMeter(reg)
	j.Intent("c", "t", "x", nil, nil)
	j.Applied("c", 0, "")
	j.Applied("c", 1, "")
	j.Committed("c", "")
	if got := reg.CounterValue("heimdall_journal_records_total", telemetry.L("kind", "applied")); got != 2 {
		t.Fatalf("applied records counter = %v, want 2", got)
	}
	if got := reg.CounterValue("heimdall_journal_records_total", telemetry.L("kind", "committed")); got != 1 {
		t.Fatalf("committed records counter = %v, want 1", got)
	}
}

// A metered commit journals with no more allocations than an unmetered one.
func TestMeteredAppendAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	commit := func(j *Journal) func() {
		return func() {
			j.Intent("c", "t", "x", nil, nil)
			j.Applied("c", 0, "")
			j.Committed("c", "")
		}
	}
	plain, metered := New([]byte("k")), New([]byte("k"))
	metered.SetMeter(telemetry.NewRegistry())
	if a, m := testing.AllocsPerRun(200, commit(plain)), testing.AllocsPerRun(200, commit(metered)); m > a {
		t.Fatalf("a metered commit journals with %v allocations, an unmetered one with %v", m, a)
	}
}

// BenchmarkAppend is one commit's worth of journal: intent, one applied
// change, committed.
func BenchmarkAppend(b *testing.B) {
	j := New([]byte("bench-key"))
	changes, undos := sampleChanges()[:1], sampleUndos()[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Intent("T1#1", "T1", "alice", changes, undos)
		j.Applied("T1#1", 0, "add acl entry")
		j.Committed("T1#1", "1 change")
	}
}

// TestAppendAllocBudget: BenchmarkAppend's commit (an intent with one
// change and its undo, an applied record, a committed record) allocates the
// hash and MAC strings of its three records and, amortized, their page
// slots: the intent's change set and undos encode into the log's scratch
// buffer, not through encoding/json.
func TestAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	j := New([]byte("bench-key"))
	changes, undos := sampleChanges()[:1], sampleUndos()[:1]
	commit := func() {
		j.Intent("T1#1", "T1", "alice", changes, undos)
		j.Applied("T1#1", 0, "add acl entry")
		j.Committed("T1#1", "1 change")
	}
	if n := testing.AllocsPerRun(2048, commit); n > 6 {
		t.Errorf("a commit journals with %v allocations, want at most 6", n)
	}
}

// TestPageBoundaries runs a journal of 2,500 records, three storage pages
// of the chain, through everything that walks them: Verify, Export, Import,
// Open across a page boundary, and truncation at one. The first page grows
// by doubling: a 10-record journal holds at most 16 slots, and the pages a
// View handed out before a growth step still verify and export as they did.
func TestPageBoundaries(t *testing.T) {
	key := []byte("k1")
	short := New(key)
	short.SetClock(testClock())
	var kept [][]Record
	var before []byte
	for short.Len() < 10 {
		if short.Len() == 8 { // the first page is full: the next record grows it
			short.View(func(pages [][]Record) { kept = slices.Clone(pages) })
			before, _ = short.Export()
		}
		short.Applied("c#1", short.Len(), "add acl entry")
	}
	held := slices.Concat(kept...)
	if err := chain.Verify(held, key); err != nil {
		t.Fatalf("a view taken before the first page grew: %v", err)
	}
	if again, _ := json.MarshalIndent(held, "", "  "); len(held) != 8 || !bytes.Equal(again, before) {
		t.Fatal("a view taken before the first page grew exports differently after it")
	}
	slots := 0
	short.View(func(pages [][]Record) {
		for _, pg := range pages {
			slots += cap(pg)
		}
	})
	if slots > 16 {
		t.Fatalf("a 10-record journal holds %d slots, want at most 16", slots)
	}

	j := New(key)
	j.SetClock(testClock())
	changes := sampleChanges()[:1]
	// Settled commits in threes (intent, applied, committed): the one at
	// 1023 straddles the first boundary. The open one starts at 2040 and
	// its applied records run over the second.
	for j.Len() < 2040 {
		c := fmt.Sprintf("T%d#1", j.Len())
		j.Intent(c, "T", "alice", changes, nil)
		j.Applied(c, 0, "add acl entry")
		j.Committed(c, "1 change")
	}
	j.Intent("open#1", "T", "alice", changes, nil)
	for i := 0; j.Len() < 2500; i++ {
		j.Applied("open#1", i, "add acl entry")
	}
	if err := j.Verify(); err != nil {
		t.Fatal(err)
	}
	records := j.Records()
	data, err := j.Export()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.MarshalIndent(records, "", "  "); !bytes.Equal(data, want) {
		t.Fatal("Export differs from json.MarshalIndent of Links")
	}
	back, err := Import(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := back.Export(); !bytes.Equal(again, data) {
		t.Fatal("import does not round-trip the export")
	}
	intent, applied := back.Open()
	if intent == nil || intent.Index != 2040 || len(applied) != 459 || applied[458] != 458 {
		t.Fatalf("open commit = %v with %d applied, want the intent at 2040 with 459", intent, len(applied))
	}
	for _, n := range []int{1024, 2048} {
		if err := chain.Verify(records[:n], key); err != nil {
			t.Fatalf("prefix of %d records: %v", n, err)
		}
		cut, err := chain.FromLinks[Record](key, records[:n])
		if err != nil {
			t.Fatal(err)
		}
		cut.Append(Record{Kind: KindRecovered, Commit: "open#1", ChangeIndex: -1})
		if err := cut.Verify(); err != nil || cut.Len() != n+1 {
			t.Fatalf("prefix of %d records, extended: %d links, %v", n, cut.Len(), err)
		}
	}
}
