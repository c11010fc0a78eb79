// Package telemetry is Heimdall's observability subsystem: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms with Prometheus text exposition) and the Span schema of the
// JSONL span exports.
//
// Every instrumented component accepts a Meter and defaults to Nop(),
// so zero-config callers pay (almost) nothing and need no wiring: the
// no-op instruments are method calls on empty structs that the compiler
// can inline away. A deployment that wants metrics passes a *Registry
// (which implements Meter) through core.Options or service.Config (or to
// twin.NewInstruments for twin.Config), and dumps it with Registry.Dump / WritePrometheus —
// surfaced to operators as the `heimdallctl metrics` subcommand and
// heimdalld's /metrics endpoint.
package telemetry

import "time"

// Span is one line of the JSONL span schema (docs/TELEMETRY.md): one timed
// operation. Spans in the same trace share TraceID; a child span carries
// its parent's SpanID. Attrs name the audit trail's correlation keys
// (ticket, technician) so a span timeline can be joined against audit
// entries.
type Span struct {
	TraceID  string            `json:"trace"`
	SpanID   string            `json:"span"`
	ParentID string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	DurMS    float64           `json:"durationMs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter interface {
	// Inc adds 1.
	Inc()
	// Add adds v; negative values are ignored (counters never decrease).
	Add(v float64)
}

// Gauge is a metric that can go up and down.
type Gauge interface {
	Set(v float64)
	Add(v float64)
}

// Histogram accumulates durations into fixed buckets.
type Histogram interface {
	// ObserveDuration records d in seconds (the Prometheus base unit).
	ObserveDuration(d time.Duration)
}

// Meter hands out instruments. Implementations must be safe for
// concurrent use; the same (name, labels) always yields the same series.
type Meter interface {
	Counter(name string, labels ...Label) Counter
	Gauge(name string, labels ...Label) Gauge
	Histogram(name string, buckets []float64, labels ...Label) Histogram
}

// Exposer is implemented by meters that can render their state as
// Prometheus text (the *Registry). The RMM server's `metrics` op probes
// its Meter for this interface.
type Exposer interface {
	Dump() string
}

// LatencyBuckets spans the emulator's microsecond command costs up to
// human-scale seconds; used by every *_seconds histogram in Heimdall.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Nop returns the shared no-op Meter: every instrument it hands out
// discards all updates. This is the default everywhere a Meter can be
// wired, so uninstrumented deployments and tests pay no cost.
func Nop() Meter { return nopMeter{} }

type nopMeter struct{}

type nopInstrument struct{}

func (nopMeter) Counter(string, ...Label) Counter                { return nopInstrument{} }
func (nopMeter) Gauge(string, ...Label) Gauge                    { return nopInstrument{} }
func (nopMeter) Histogram(string, []float64, ...Label) Histogram { return nopInstrument{} }

func (nopInstrument) Inc()                          {}
func (nopInstrument) Add(float64)                   {}
func (nopInstrument) Set(float64)                   {}
func (nopInstrument) ObserveDuration(time.Duration) {}
