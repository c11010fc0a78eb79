package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Clock is the tracer's time source. Production tracers use time.Now;
// experiments plug a VirtualClock so the internal/latency model drives
// deterministic span durations.
type Clock func() time.Time

// VirtualClock is a manually advanced time source, safe for concurrent
// use. It lets modeled wall-clock costs (the Figure 7 latency model)
// appear as span durations without sleeping.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts a virtual clock at the given instant.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock (pass vc.Now to NewTracer).
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Span is one timed operation. Spans in the same trace share TraceID;
// child spans carry their parent's SpanID. Attributes name the audit
// trail's correlation keys (ticket, technician, device) so a span
// timeline can be joined against audit entries.
type Span struct {
	TraceID  string            `json:"trace"`
	SpanID   string            `json:"span"`
	ParentID string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	DurMS    float64           `json:"durationMs"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	tr *Tracer
}

// StartChild opens a child span in the same trace.
func (s *Span) StartChild(name string, attrs ...Label) *Span {
	return s.tr.start(s.TraceID, s.SpanID, name, attrs)
}

// Finish stamps the span's end time from the tracer's clock and files it
// for export. It returns the span for chaining.
func (s *Span) Finish() *Span {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.End = s.tr.clock()
	s.DurMS = float64(s.End.Sub(s.Start)) / float64(time.Millisecond)
	s.tr.finished = append(s.tr.finished, s)
	return s
}

// Tracer creates and collects spans. IDs are sequential (not random) so
// exports are deterministic under a virtual clock.
type Tracer struct {
	mu       sync.Mutex
	clock    Clock
	nextID   int
	finished []*Span
}

// NewTracer returns a tracer reading time from the given clock
// (time.Now when nil).
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{clock: clock}
}

// StartTrace opens a new root span (a fresh trace).
func (t *Tracer) StartTrace(name string, attrs ...Label) *Span {
	return t.start("", "", name, attrs)
}

func (t *Tracer) start(traceID, parentID, name string, attrs []Label) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	spanID := fmt.Sprintf("s%04d", t.nextID)
	if traceID == "" {
		traceID = "t" + spanID[1:]
	}
	s := &Span{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		Name:     name,
		Start:    t.clock(),
		tr:       t,
	}
	for _, l := range attrs {
		if s.Attrs == nil {
			s.Attrs = make(map[string]string)
		}
		s.Attrs[l.Key] = l.Value
	}
	return s
}

// Finished returns the finished spans ordered by start time (then span
// ID, for spans sharing a start instant under a virtual clock).
func (t *Tracer) Finished() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]*Span(nil), t.finished...)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// ExportJSONL writes one JSON object per finished span, in start order —
// the span schema documented in docs/TELEMETRY.md.
func (t *Tracer) ExportJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Finished() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
