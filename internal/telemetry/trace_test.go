package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualClockSpans(t *testing.T) {
	clock := NewVirtualClock(epoch)
	tr := NewTracer(clock.Now)

	root := tr.StartTrace("resolve:vlan", L("ticket", "T-0001"), L("technician", "pilot"))
	connect := root.StartChild("connect")
	clock.Advance(2 * time.Second)
	connect.Finish()
	operate := root.StartChild("operate", L("device", "s1"))
	clock.Advance(9 * time.Second)
	operate.Finish()
	root.Finish()

	if d := connect.Duration(); d != 2*time.Second {
		t.Fatalf("connect duration = %s", d)
	}
	if d := operate.Duration(); d != 9*time.Second {
		t.Fatalf("operate duration = %s", d)
	}
	if d := root.Duration(); d != 11*time.Second {
		t.Fatalf("root duration = %s", d)
	}
	if connect.TraceID != root.TraceID || operate.TraceID != root.TraceID {
		t.Fatal("children left the trace")
	}
	if connect.ParentID != root.SpanID {
		t.Fatalf("connect parent = %q, want %q", connect.ParentID, root.SpanID)
	}
	if root.Attrs["ticket"] != "T-0001" || operate.Attrs["device"] != "s1" {
		t.Fatalf("attrs lost: %v %v", root.Attrs, operate.Attrs)
	}
}

func TestExportJSONLRoundTrip(t *testing.T) {
	clock := NewVirtualClock(epoch)
	tr := NewTracer(clock.Now)
	root := tr.StartTrace("issue", L("ticket", "T-0002"))
	step := root.StartChild("verify")
	clock.Advance(3 * time.Second)
	step.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []*Span
	for dec := json.NewDecoder(&buf); dec.More(); {
		var s Span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, &s)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Start order: both start at epoch, so span-ID order (root first).
	if spans[0].Name != "issue" || spans[1].Name != "verify" {
		t.Fatalf("order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].DurMS != 3000 {
		t.Fatalf("verify durationMs = %v", spans[1].DurMS)
	}
	if spans[0].Attrs["ticket"] != "T-0002" {
		t.Fatalf("attrs = %v", spans[0].Attrs)
	}
}

func TestUnfinishedSpansNotExported(t *testing.T) {
	tr := NewTracer(nil)
	tr.StartTrace("open-ended")
	done := tr.StartTrace("done").Finish()
	got := tr.Finished()
	if len(got) != 1 || got[0] != done {
		t.Fatalf("finished = %v", got)
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() []string {
		clock := NewVirtualClock(epoch)
		tr := NewTracer(clock.Now)
		a := tr.StartTrace("a")
		b := a.StartChild("b")
		b.Finish()
		a.Finish()
		var ids []string
		for _, s := range tr.Finished() {
			ids = append(ids, s.TraceID+"/"+s.SpanID)
		}
		return ids
	}
	first, second := mk(), mk()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run 1 ids %v != run 2 ids %v", first, second)
		}
	}
}

// Duration returns the span's measured duration.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }
