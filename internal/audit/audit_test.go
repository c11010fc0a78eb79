package audit

import (
	"strings"
	"sync"
	"testing"
	"time"
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
		es := m.mutate(tr.Entries())
		if err := verifyEntries(es, []byte("test-key")); err == nil {
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

// exportedTrail is a two-entry export and the MAC of its first entry.
func exportedTrail(t *testing.T) (data, mac string) {
	t.Helper()
	tr := testTrail()
	tr.Append("T1", "alice", KindSession, "session opened", true)
	tr.Append("T1", "alice", KindChange, "r1: add acl entry", true)
	b, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	return string(b), tr.Entries()[0].MAC
}

// TestImportRejectsRecasedMAC: hex decoding accepts either case, so only
// the canonical-encoding check stops an export whose MAC bytes were altered
// without changing the value they decode to.
func TestImportRejectsRecasedMAC(t *testing.T) {
	data, mac := exportedTrail(t)
	recased := strings.Replace(data, mac, strings.ToUpper(mac), 1)
	if recased == data {
		t.Fatal("MAC has no letter to re-case")
	}
	if _, err := Import([]byte("test-key"), []byte(recased)); err == nil {
		t.Fatal("export with a re-cased MAC accepted")
	}
}

// TestImportRejectsUnknownField: bytes the chain does not cover must not
// ride along in an export — neither as an extra field nor after the
// document.
func TestImportRejectsUnknownField(t *testing.T) {
	data, _ := exportedTrail(t)
	extra := strings.Replace(data, `"index": 0,`, `"index": 0, "note": "approved by the customer",`, 1)
	if extra == data {
		t.Fatal("export format changed: no index field to anchor on")
	}
	if _, err := Import([]byte("test-key"), []byte(extra)); err == nil {
		t.Fatal("export with an unknown field accepted")
	}
	if _, err := Import([]byte("test-key"), []byte(data+` {"index": 2}`)); err == nil {
		t.Fatal("export with trailing data accepted")
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

func TestConcurrentAppend(t *testing.T) {
	tr := NewTrail([]byte("k"))
	var wg sync.WaitGroup
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
}

func TestEntriesIsACopy(t *testing.T) {
	tr := testTrail()
	tr.Append("T", "x", KindCommand, "c", true)
	es := tr.Entries()
	es[0].Detail = "mutated"
	if tr.Entries()[0].Detail != "c" {
		t.Fatal("Entries exposed internal storage")
	}
}
