package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrent metrics registry implementing Meter. Series
// values are lock-free atomics; the maps resolving (name, labels) to a
// series are guarded by an RWMutex whose read path is the hot path, so
// per-update overhead stays in the tens of nanoseconds (see the
// package benchmarks).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name    string
	typ     string    // "counter", "gauge" or "histogram"
	buckets []float64 // histogram upper bounds, sorted, without +Inf
	mu      sync.RWMutex
	series  map[string]*series
}

// series is one labelled time series. For counters and gauges the value
// lives in bits (float64 bits, CAS-updated); histograms use the
// per-bucket counts plus sumBits/count.
type series struct {
	labels  []Label
	bits    atomic.Uint64
	counts  []atomic.Uint64 // len(buckets)+1, last is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func (s *series) addFloat(v float64) {
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *series) observe(buckets []float64, v float64) {
	i := sort.SearchFloat64s(buckets, v) // first bucket with upper bound >= v
	s.counts[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

type counter struct{ s *series }

func (c counter) Inc() { c.s.addFloat(1) }
func (c counter) Add(v float64) {
	if v > 0 {
		c.s.addFloat(v)
	}
}

type gauge struct{ s *series }

func (g gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }
func (g gauge) Add(v float64) { g.s.addFloat(v) }

type histogram struct {
	s       *series
	buckets []float64
}

func (h histogram) Observe(v float64)               { h.s.observe(h.buckets, v) }
func (h histogram) ObserveDuration(d time.Duration) { h.s.observe(h.buckets, d.Seconds()) }

// Counter implements Meter.
func (r *Registry) Counter(name string, labels ...Label) Counter {
	return counter{r.series(name, "counter", nil, labels)}
}

// Gauge implements Meter.
func (r *Registry) Gauge(name string, labels ...Label) Gauge {
	return gauge{r.series(name, "gauge", nil, labels)}
}

// Histogram implements Meter. The buckets are upper bounds in ascending
// order (+Inf is implicit); every call for the same name must pass the
// same buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) Histogram {
	s := r.series(name, "histogram", buckets, labels)
	return histogram{s: s, buckets: r.family(name).buckets}
}

func (r *Registry) family(name string) *family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.families[name]
}

func (r *Registry) series(name, typ string, buckets []float64, labels []Label) *series {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, typ: typ, series: make(map[string]*series)}
			if typ == "histogram" {
				f.buckets = append([]float64(nil), buckets...)
				sort.Float64s(f.buckets)
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}

	key := labelKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s == nil {
		s = &series{labels: sortedLabels(labels)}
		if typ == "histogram" {
			s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// ── Programmatic reads (tests and assertions) ───────────────────────────

// CounterValue returns the current value of a counter series (0 when the
// series does not exist).
func (r *Registry) CounterValue(name string, labels ...Label) float64 {
	return r.seriesValue(name, labels)
}

// GaugeValue returns the current value of a gauge series.
func (r *Registry) GaugeValue(name string, labels ...Label) float64 {
	return r.seriesValue(name, labels)
}

func (r *Registry) seriesValue(name string, labels []Label) float64 {
	s := r.lookup(name, labels)
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.bits.Load())
}

// HistogramCount returns the number of observations of a histogram series.
func (r *Registry) HistogramCount(name string, labels ...Label) uint64 {
	s := r.lookup(name, labels)
	if s == nil {
		return 0
	}
	return s.count.Load()
}

func (r *Registry) lookup(name string, labels []Label) *series {
	f := r.family(name)
	if f == nil {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.series[labelKey(labels)]
}

// ── Prometheus text exposition ──────────────────────────────────────────

// WritePrometheus renders every series in the Prometheus text format
// (families sorted by name, series sorted by label key).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Dump returns the Prometheus text exposition as a string, implementing
// the Exposer interface.
func (r *Registry) Dump() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, 0, len(keys))
	for _, k := range keys {
		sers = append(sers, f.series[k])
	}
	f.mu.RUnlock()

	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for _, s := range sers {
		if f.typ == "histogram" {
			if err := f.writeHistogram(w, s); err != nil {
				return err
			}
			continue
		}
		v := math.Float64frombits(s.bits.Load())
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(v)); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeHistogram(w io.Writer, s *series) error {
	withLe := func(le string) []Label {
		ls := make([]Label, len(s.labels)+1)
		copy(ls, s.labels)
		ls[len(s.labels)] = Label{"le", le}
		return ls
	}
	cum := uint64(0)
	for i, ub := range f.buckets {
		cum += s.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, renderLabels(withLe(formatFloat(ub))), cum); err != nil {
			return err
		}
	}
	cum += s.counts[len(f.buckets)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, renderLabels(withLe("+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, renderLabels(s.labels), formatFloat(math.Float64frombits(s.sumBits.Load()))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), s.count.Load())
	return err
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
