package journal

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
	"time"

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

func sampleJournal(key []byte) *Journal {
	j := New(key)
	j.SetClock(testClock())
	j.Intent("T1#1", "T1", "alice", sampleChanges(), map[string]string{"r1": "! kind: router\nhostname r1\n"})
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

// The intent record must round-trip the change set exactly: recovery
// replays those changes, so any lossy serialisation would corrupt
// production.
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
	got := back.Records()[0].Changes
	want := sampleChanges()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("changes did not round-trip:\n got %#v\nwant %#v", got, want)
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

// BenchmarkAppend is one commit's worth of journal: intent, one applied
// change, committed.
func BenchmarkAppend(b *testing.B) {
	j := New([]byte("bench-key"))
	changes := sampleChanges()[:1]
	pre := map[string]string{"r1": "! kind: router\nhostname r1\n"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Intent("T1#1", "T1", "alice", changes, pre)
		j.Applied("T1#1", 0, "add acl entry")
		j.Committed("T1#1", "1 change")
	}
}
