package audit

import (
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"heimdall/internal/chain"
	"heimdall/internal/telemetry"
)

func testTrail() *Trail {
	t := NewTrail([]byte("test-key"))
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	i := 0
	t.SetClock(func() time.Time {
		i++
		return base.Add(time.Duration(i) * time.Second)
	})
	return t
}

// fullTrail holds every entry kind. Its export under "test-key" is
// testdata/export.golden.json, which is also the trail payload of the
// chain tamper suite and fuzz target in internal/journal.
func fullTrail() *Trail {
	tr := testTrail()
	tr.Append("T-0001", "alice", KindSession, "twin created", true)
	tr.Append("T-0001", "alice", KindCommand, "[r1] show running-config | include acl", true)
	tr.Append("T-0001", "alice", KindDecision, "deny config.acl.add on device:r2:acl:X", false)
	tr.Append("T-0001", "alice", KindEscalation, "requested allow(config.acl.*, device:r2)", true)
	tr.Append("T-0001", "alice", KindVerify, "review: 1 changes, 21 policies checked, 0 violations", true)
	tr.Append("T-0001", "alice", KindChange, "r2 add-acl-entry: 10 permit ip any any", true)
	return tr
}

func mustExport(t *testing.T, tr *Trail) string {
	t.Helper()
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestExportGolden pins the trail's wire format and content rule: the
// export of the fixed fixture must not move, byte for byte, unless a
// change to internal/chain means it to (then every trail written before it
// stops importing, and the golden is regenerated on purpose).
func TestExportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/export.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustExport(t, fullTrail()); got != string(want) {
		t.Fatalf("trail export moved:\n%s", got)
	}
}

func TestAppendAndVerify(t *testing.T) {
	tr := testTrail()
	e1 := tr.Append("T1", "alice", KindCommand, "show ip route on r1", true)
	e2 := tr.Append("T1", "alice", KindDecision, "deny config.acl.add on device:r2", false)
	if e1.Index != 0 || e2.Index != 1 {
		t.Fatalf("indexes = %d, %d", e1.Index, e2.Index)
	}
	if e2.PrevHash != e1.Hash {
		t.Fatal("chain link broken at append time")
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("fresh trail fails verify: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTamperDetection(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(entries []Entry) []Entry
	}{
		{"edit detail", func(es []Entry) []Entry { es[1].Detail = "innocent"; return es }},
		{"flip allowed", func(es []Entry) []Entry { es[1].Allowed = false; return es }},
		{"drop middle", func(es []Entry) []Entry { return append(es[:1], es[2:]...) }},
		{"reorder", func(es []Entry) []Entry { es[0], es[1] = es[1], es[0]; return es }},
		{"rewrite hash", func(es []Entry) []Entry {
			es[1].Detail = "innocent"
			// recompute hash but NOT the MAC (attacker lacks the key)
			es[1].Hash = strings.Repeat("0", 64)
			return es
		}},
	}
	for _, m := range mutations {
		tr := testTrail()
		tr.Append("T1", "alice", KindCommand, "cmd1", true)
		tr.Append("T1", "alice", KindCommand, "cmd2", true)
		tr.Append("T1", "alice", KindChange, "apply acl change", true)
		es := m.mutate(tr.Links())
		if err := chain.Verify(es, []byte("test-key")); err == nil {
			t.Errorf("%s: tampering not detected", m.name)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	tr := testTrail()
	tr.Append("T1", "alice", KindSession, "session opened", true)
	tr.Append("T1", "alice", KindVerify, "21 policies checked, 0 violations", true)
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import([]byte("test-key"), data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("imported Len = %d", back.Len())
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	// Import with the wrong key fails (MACs don't verify).
	if _, err := Import([]byte("wrong-key"), data); err == nil {
		t.Fatal("import with wrong key accepted")
	}
	// Tampered export fails.
	tampered := strings.Replace(string(data), "alice", "mallory", 1)
	if _, err := Import([]byte("test-key"), []byte(tampered)); err == nil {
		t.Fatal("tampered export accepted")
	}
	if _, err := Import([]byte("test-key"), []byte("{not json")); err == nil {
		t.Fatal("garbage export accepted")
	}
}

// forge rewrites an export of fullTrail and reports whether Import accepts
// the result.
func forge(t *testing.T, old, new string) error {
	t.Helper()
	data := mustExport(t, fullTrail())
	forged := strings.Replace(data, old, new, 1)
	if forged == data {
		t.Fatalf("export format changed: %q not found", old)
	}
	_, err := Import([]byte("test-key"), []byte(forged))
	return err
}

// TestImportRejectsFieldShift: the content a hash covers must say where
// each field ends. Under a pipe-joined rule ("…|kind|detail|…") a `|` could
// move between adjacent fields of an export without changing the hash; any
// technician-typed line can carry one — here the mediated command
// "[r1] show running-config | include acl" — and with its tail shifted into
// kind the entry is no longer a command to Summarize.
func TestImportRejectsFieldShift(t *testing.T) {
	if err := forge(t,
		`"kind": "command",
    "detail": "[r1] show running-config | include acl"`,
		`"kind": "command|[r1] show running-config ",
    "detail": " include acl"`); err == nil {
		t.Error("export with a | moved from detail into kind accepted")
	}
	// And between ticket and technician, whose values the MSP's ticketing
	// system chooses.
	tr := testTrail()
	tr.Append("T-0001", "msp|alice", KindSession, "twin created", true)
	forged := strings.Replace(mustExport(t, tr),
		`"ticket": "T-0001",
    "technician": "msp|alice"`,
		`"ticket": "T-0001|msp",
    "technician": "alice"`, 1)
	if _, err := Import([]byte("test-key"), []byte(forged)); err == nil {
		t.Error("export with a | moved from technician into ticket accepted")
	}
}

// TestImportRejectsZoneRewrite: the hash covers the timestamp as exported,
// not the instant it denotes, so re-rendering it in another zone is a
// change to the export like any other.
func TestImportRejectsZoneRewrite(t *testing.T) {
	if err := forge(t, `"2026-07-06T12:00:01Z"`, `"2026-07-06T14:00:01+02:00"`); err == nil {
		t.Error("export with a timestamp re-rendered in another zone accepted")
	}
}

func TestAppendAfterImportContinuesChain(t *testing.T) {
	tr := testTrail()
	tr.Append("T1", "a", KindCommand, "one", true)
	data, _ := tr.Export()
	back, err := Import([]byte("test-key"), data)
	if err != nil {
		t.Fatal(err)
	}
	back.Append("T1", "a", KindCommand, "two", true)
	if err := back.Verify(); err != nil {
		t.Fatalf("chain after import+append: %v", err)
	}
}

// TestConcurrentAppend: racing appenders keep the chain whole, and the
// metrics — rewired beside them — are updated under the log's lock, so the
// length gauge ends at Len() rather than at whichever appender set it last.
func TestConcurrentAppend(t *testing.T) {
	tr := NewTrail([]byte("k"))
	reg := telemetry.NewRegistry()
	tr.SetMeter(reg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			tr.SetMeter(reg)
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.Append("T", "x", KindCommand, "c", true)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 400 {
		t.Fatalf("Len = %d, want 400", tr.Len())
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("concurrent appends broke the chain: %v", err)
	}
	if got := reg.CounterValue("heimdall_audit_chain_length"); got != 400 {
		t.Fatalf("chain length gauge = %v after 400 appends", got)
	}
	if got := reg.CounterValue("heimdall_audit_entries_total", telemetry.L("kind", "command")); got != 400 {
		t.Fatalf("entries counter = %v after 400 appends", got)
	}
}

func TestEntriesIsACopy(t *testing.T) {
	tr := testTrail()
	tr.Append("T", "x", KindCommand, "c", true)
	es := tr.Links()
	es[0].Detail = "mutated"
	if tr.Links()[0].Detail != "c" {
		t.Fatal("Entries exposed internal storage")
	}
}

// BenchmarkAppend is one mediated command's worth of trail on a chain
// already 10,000 entries long — the leaf benchmark/leaves.go times as
// audit.append_us.
func BenchmarkAppend(b *testing.B) {
	tr := NewTrail([]byte("bench-key"))
	for i := 0; i < 10000; i++ {
		tr.Append("T-0001", "leaf-tech", KindCommand, "[r1] show ip route", true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append("T-0001", "leaf-tech", KindDecision, "allow show.ip.route on device:r1", true)
	}
}

// TestAppendAllocBudget: an append on a 10,000-entry trail allocates its
// hash and MAC strings and, amortized, its slot of a storage page: no
// encoder scratch, and no copy of the chain (a flat slice regrown by
// append costs several entries' bytes per append).
func TestAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	tr := NewTrail([]byte("bench-key"))
	for i := 0; i < 10000; i++ {
		tr.Append("T-0001", "leaf-tech", KindCommand, "[r1] show ip route", true)
	}
	appendOne := func() { tr.Append("T-0001", "leaf-tech", KindDecision, "allow show.ip.route on device:r1", true) }
	if n := testing.AllocsPerRun(4096, appendOne); n > 3 {
		t.Errorf("an append allocates %v times, want at most 3", n)
	}
	const runs = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		appendOne()
	}
	runtime.ReadMemStats(&after)
	perAppend := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := 2*64 + uint64(unsafe.Sizeof(Entry{})) + 32; perAppend > limit {
		t.Errorf("an append allocates %d bytes, want at most %d (two hex strings and a page slot)", perAppend, limit)
	}
}

// TestMeteredAppendAllocatesNoMore: the trail's metrics cost an append no
// allocation — every console line appends two entries.
func TestMeteredAppendAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: CI's \"Allocation budgets\" step runs this without -race")
	}
	line := func(tr *Trail) func() {
		return func() {
			tr.Append("T", "x", KindCommand, "show ip route", true)
			tr.Append("T", "x", KindDecision, "allow", true)
		}
	}
	plain, metered := testTrail(), testTrail()
	metered.SetMeter(telemetry.NewRegistry())
	if a, m := testing.AllocsPerRun(200, line(plain)), testing.AllocsPerRun(200, line(metered)); m > a {
		t.Fatalf("a metered console line appends with %v allocations, an unmetered one with %v", m, a)
	}
}
