// Package obs is the repository's stdlib-only observability layer: a
// metrics registry with Prometheus text exposition (registry.go), a
// hierarchical span tracer on the injectable clock exporting Chrome
// trace-event JSON (trace.go), and the predictor introspection event
// stream (sink.go).
//
// The paper's claims are about run-time behavior — how fast the active
// probabilities (Eqs. 5–7) lock onto the true concept after a change, how
// often the MAP concept switches, where the offline mining of Algorithm 1
// spends its time — so that behavior is emitted as a first-class layer
// instead of being recomputed ad hoc inside experiments. Every instrument
// is nil-safe: a nil *Tracer, *Span, or sink makes the instrumented call a
// pointer check and nothing else, so the hot paths pay nothing when
// observability is off.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families render in registration order (so an existing
// exposition stays byte-identical when new families are appended); series
// within a family render in natural order of their label values. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyKind discriminates how a family stores and renders its series.
type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family: a fixed kind, help text, label names,
// and its live series. Func-backed families sample their values at render
// time instead of storing series.
type family struct {
	name    string
	help    string
	kind    familyKind
	labels  []string
	buckets []float64 // histogram upper bounds, cumulative

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Histogram
	keys   []string       // insertion order; sorted naturally at render

	valueFn   func() int64                                // unlabeled func-backed value
	collectFn func(emit func(values []string, v float64)) // labeled func-backed values
}

// typeString is the family's TYPE line token.
func (f *family) typeString() string {
	switch f.kind {
	case kindHistogram:
		return "histogram"
	case kindGauge:
		return "gauge"
	default:
		return "counter"
	}
}

// register adds a family, panicking on duplicate names or kind mismatch —
// metric registration happens at construction time, so misuse is a
// programming error, not a runtime condition.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[f.name]; ok {
		if prev.kind != f.kind {
			panic(fmt.Sprintf("obs: family %q re-registered with a different kind", f.name))
		}
		return prev
	}
	f.series = make(map[string]any)
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable integer metric.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n when n is larger (high-water tracking).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram over float64
// observations (typically seconds).
type Histogram struct {
	buckets []float64 // upper bounds, ascending

	mu     sync.Mutex
	counts []int64 // per bucket; parallel to buckets
	inf    int64   // observations above the last bound
	sum    float64
	count  int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.buckets {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation within the bucket that crosses the target rank. The
// +Inf bucket reports the last finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return bucketQuantile(h.buckets, h.counts, h.inf, h.count, q)
}

// BucketQuantile estimates the q-quantile of a cumulative-bucket histogram
// given per-bucket (non-cumulative) counts, for clients that re-assemble
// histograms from exposition text. See Histogram.Quantile.
func BucketQuantile(bounds []float64, counts []int64, inf, total int64, q float64) float64 {
	return bucketQuantile(bounds, counts, inf, total, q)
}

// bucketQuantile is the shared bucket-interpolation quantile estimate, also
// used by clients that re-assemble histograms from exposition text.
func bucketQuantile(bounds []float64, counts []int64, inf, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, b := range bounds {
		prev := cum
		cum += counts[i]
		if float64(cum) >= rank {
			// Interpolate within [lower, b] by the rank's position in the
			// bucket's count mass.
			if counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(counts[i])
			return lower + (b-lower)*frac
		}
		lower = b
	}
	// The rank falls in the +Inf bucket: report the largest finite bound —
	// the conventional Prometheus histogram_quantile behavior.
	_ = inf
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ f *family }

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ f *family }

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// NewCounter registers (or fetches) an unlabeled counter family.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: kindCounter})
	return f.seriesFor(nil, func() any { return &Counter{} }).(*Counter)
}

// NewCounterFunc registers a counter family whose value is sampled from fn
// at render time (for counts owned by another subsystem).
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	f := r.register(&family{name: name, help: help, kind: kindCounter})
	f.valueFn = fn
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: kindCounter, labels: labels})}
}

// NewGauge registers an unlabeled gauge family.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, kind: kindGauge})
	return f.seriesFor(nil, func() any { return &Gauge{} }).(*Gauge)
}

// NewGaugeFunc registers a gauge family sampled from fn at render time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	f := r.register(&family{name: name, help: help, kind: kindGauge})
	f.valueFn = fn
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(&family{name: name, help: help, kind: kindGauge, labels: labels})}
}

// NewGaugeVecFunc registers a labeled gauge family whose series are
// collected at render time: collect is called with an emit function and
// produces every (label values, value) pair. Series order in the
// exposition is the natural order of the label values, regardless of emit
// order. emit copies the label values, so collect may reuse one values
// slice across calls. Used for families whose population is dynamic
// (e.g. per-session active probabilities).
func (r *Registry) NewGaugeVecFunc(name, help string, labels []string, collect func(emit func(values []string, v float64))) {
	f := r.register(&family{name: name, help: help, kind: kindGauge, labels: labels})
	f.collectFn = collect
}

// NewHistogram registers an unlabeled histogram family with the given
// cumulative bucket upper bounds. Bounds are normalized (sorted ascending,
// de-duplicated, non-finite bounds dropped) so exposition parsers that
// re-assemble cumulative buckets never mis-bin.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: kindHistogram, buckets: normalizeBuckets(buckets)})
	return f.seriesFor(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// NewHistogramVec registers a labeled histogram family. Bounds are
// normalized as in NewHistogram.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: kindHistogram, buckets: normalizeBuckets(buckets), labels: labels})}
}

// normalizeBuckets sorts the upper bounds ascending, drops duplicates, and
// strips non-finite bounds (+Inf is implicit: every histogram renders a
// final le="+Inf" bucket). Observe's linear scan and writeTo's cumulative
// rendering both assume sorted distinct bounds.
func normalizeBuckets(buckets []float64) []float64 {
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		out = append(out, b)
	}
	sort.Float64s(out)
	n := 0
	for i, b := range out {
		if i == 0 || b != out[n-1] { //homlint:allow floatcmp -- dedup of identical bound values wants exact equality

			out[n] = b
			n++
		}
	}
	return out[:n]
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets))}
}

// With returns the counter for the given label values, creating it at zero
// on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.seriesFor(values, func() any { return &Counter{} }).(*Counter)
}

// Preset creates the series at zero so it renders before being touched —
// dense index families (per-class, per-concept) expose their full range
// from the first scrape.
func (v *CounterVec) Preset(values ...string) { v.With(values...) }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.seriesFor(values, func() any { return &Gauge{} }).(*Gauge)
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.seriesFor(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Remove drops the series for the given label values (e.g. when a session
// closes, so per-session cardinality stays bounded by live sessions).
func (v *CounterVec) Remove(values ...string) { v.f.removeSeries(values) }

// Remove drops the series for the given label values (e.g. when a gateway
// replica leaves the fleet, so per-replica cardinality stays bounded by
// the live replica set).
func (v *GaugeVec) Remove(values ...string) { v.f.removeSeries(values) }

// seriesFor fetches or creates the series stored under the label values.
func (f *family) seriesFor(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	f.keys = append(f.keys, key)
	return s
}

func (f *family) removeSeries(values []string) {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, k := range f.keys {
		if k == key {
			f.keys = append(f.keys[:i], f.keys[i+1:]...)
			break
		}
	}
}

// naturalCompare compares strings with digit runs ordered numerically, so
// "s2" < "s10", "200" < "404", and plain words fall back to lexical order.
// It keeps exposition order human-sensible for id-like label values.
// Distinct strings can compare equal ("s01" and "s1").
func naturalCompare(a, b string) int {
	for len(a) > 0 && len(b) > 0 {
		ad, bd := digitPrefix(a), digitPrefix(b)
		if ad > 0 && bd > 0 {
			av, aerr := strconv.ParseUint(a[:ad], 10, 64)
			bv, berr := strconv.ParseUint(b[:bd], 10, 64)
			if aerr == nil && berr == nil {
				if av != bv {
					return cmp.Compare(av, bv)
				}
				a, b = a[ad:], b[bd:]
				continue
			}
		}
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		a, b = a[1:], b[1:]
	}
	return cmp.Compare(len(a), len(b))
}

// digitPrefix returns the length of the leading digit run of s.
func digitPrefix(s string) int {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	return n
}

// keyCompare orders two series keys by the natural order of their first
// differing label value, walking the NUL-separated values in place; a
// key that is a prefix of the other sorts first.
func keyCompare(a, b string) int {
	for {
		av, arest, amore := strings.Cut(a, "\x00")
		bv, brest, bmore := strings.Cut(b, "\x00")
		if av != bv {
			return naturalCompare(av, bv)
		}
		switch {
		case amore && bmore:
			a, b = arest, brest
		case amore:
			return 1
		case bmore:
			return -1
		default:
			return 0
		}
	}
}

// appendLabelPairs renders l1="v1",l2="v2" from the series key's
// NUL-separated label values, quoting each value as fmt's %q does.
func appendLabelPairs(b []byte, labels []string, key string) []byte {
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		var v string
		v, key, _ = strings.Cut(key, "\x00")
		b = append(b, l...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, v)
	}
	return b
}

// appendSeriesName renders name+suffix and the {…} label set of key, or
// no braces for an unlabeled series, then the space before the value.
func appendSeriesName(b []byte, name, suffix string, labels []string, key string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(b, '{')
		b = appendLabelPairs(b, labels, key)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// renderFlushAt is the buffered exposition size at which WriteText hands
// the buffer to the writer, bounding the buffer whatever the series count.
const renderFlushAt = 32 << 10

// renderScratch is the pooled state of one WriteText call: the output
// buffer and the per-family snapshot of series or collected samples.
type renderScratch struct {
	buf     []byte
	series  []seriesRef
	keys    []byte // collected samples' keys, back to back
	samples []sample
}

// seriesRef is one stored series captured for rendering.
type seriesRef struct {
	key string
	s   any
}

// sample is one collected (func-backed) series: its key is keys[lo:hi]
// of the render scratch until the keys are frozen into one string.
type sample struct {
	key    string
	lo, hi int
	v      float64
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// flush hands the buffer to w once it passes renderFlushAt (or always,
// with force). Write errors are ignored: a scraper hanging up mid-render
// is not the registry's failure.
func (rs *renderScratch) flush(w io.Writer, force bool) {
	if len(rs.buf) >= renderFlushAt || (force && len(rs.buf) > 0) {
		_, _ = w.Write(rs.buf)
		rs.buf = rs.buf[:0]
	}
}

// WriteText renders the Prometheus text exposition of every family, in
// registration order, with deterministic series order. (Not named WriteTo:
// this is not io.WriterTo — exposition has no meaningful byte count.)
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	rs := renderPool.Get().(*renderScratch)
	for _, f := range families {
		f.writeText(w, rs)
	}
	rs.flush(w, true)
	// Drop what one very large scrape grew, so it is not pinned.
	if cap(rs.keys) > 1<<20 || cap(rs.samples) > 1<<16 || cap(rs.series) > 1<<16 {
		*rs = renderScratch{buf: rs.buf}
	}
	clear(rs.series[:cap(rs.series)])
	clear(rs.samples[:cap(rs.samples)])
	renderPool.Put(rs)
}

// writeText renders the family into rs.buf, flushing it to w as it fills.
func (f *family) writeText(w io.Writer, rs *renderScratch) {
	b := append(rs.buf, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.typeString()...)
	b = append(b, '\n')
	rs.buf = b

	switch {
	case f.valueFn != nil:
		b = appendSeriesName(rs.buf, f.name, "", nil, "")
		b = strconv.AppendInt(b, f.valueFn(), 10)
		rs.buf = append(b, '\n')
	case f.collectFn != nil:
		f.writeCollected(w, rs)
	default:
		f.writeSeries(w, rs)
	}
}

// writeCollected renders a func-backed labeled family: it collects every
// sample, copying the label values (so collect may reuse its values
// slice), sorts them by key, and renders them.
func (f *family) writeCollected(w io.Writer, rs *renderScratch) {
	rs.keys, rs.samples = rs.keys[:0], rs.samples[:0]
	f.collectFn(func(values []string, v float64) {
		if len(values) != len(f.labels) {
			panic(fmt.Sprintf("obs: family %q collected %d label values, want %d", f.name, len(values), len(f.labels)))
		}
		lo := len(rs.keys)
		for i, val := range values {
			if i > 0 {
				rs.keys = append(rs.keys, 0)
			}
			rs.keys = append(rs.keys, val...)
		}
		rs.samples = append(rs.samples, sample{lo: lo, hi: len(rs.keys), v: v})
	})
	keys := string(rs.keys)
	for i := range rs.samples {
		s := &rs.samples[i]
		s.key = keys[s.lo:s.hi]
	}
	slices.SortFunc(rs.samples, func(a, b sample) int { return keyCompare(a.key, b.key) })
	for _, s := range rs.samples {
		b := appendSeriesName(rs.buf, f.name, "", f.labels, s.key)
		b = strconv.AppendFloat(b, s.v, 'g', -1, 64)
		rs.buf = append(b, '\n')
		rs.flush(w, false)
	}
}

// writeSeries renders a family of stored series, snapshotting them under
// the family lock and rendering after releasing it.
func (f *family) writeSeries(w io.Writer, rs *renderScratch) {
	rs.series = rs.series[:0]
	f.mu.Lock()
	for _, key := range f.keys {
		rs.series = append(rs.series, seriesRef{key: key, s: f.series[key]})
	}
	f.mu.Unlock()
	slices.SortFunc(rs.series, func(a, b seriesRef) int { return keyCompare(a.key, b.key) })
	for _, sr := range rs.series {
		switch v := sr.s.(type) {
		case *Counter:
			b := appendSeriesName(rs.buf, f.name, "", f.labels, sr.key)
			b = strconv.AppendInt(b, v.Value(), 10)
			rs.buf = append(b, '\n')
		case *Gauge:
			b := appendSeriesName(rs.buf, f.name, "", f.labels, sr.key)
			b = strconv.AppendInt(b, v.Value(), 10)
			rs.buf = append(b, '\n')
		case *Histogram:
			rs.buf = v.appendText(rs.buf, f.name, f.labels, sr.key)
		}
		rs.flush(w, false)
	}
}

// appendText renders the histogram's _bucket/_sum/_count series under
// its lock, so counts, sum and count are one consistent snapshot. Bucket
// bounds format with strconv's shortest 'g' representation, as the sum
// does.
func (h *Histogram) appendText(b []byte, name string, labels []string, key string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, bound := range h.buckets {
		cum += h.counts[i]
		b = appendBucket(b, name, labels, key, bound)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendBucket(b, name, labels, key, math.Inf(1))
	b = strconv.AppendInt(b, cum+h.inf, 10)
	b = append(b, '\n')
	b = appendSeriesName(b, name, "_sum", labels, key)
	b = strconv.AppendFloat(b, h.sum, 'g', -1, 64)
	b = append(b, '\n')
	b = appendSeriesName(b, name, "_count", labels, key)
	b = strconv.AppendInt(b, h.count, 10)
	return append(b, '\n')
}

// appendBucket renders name_bucket{…,le="bound"} and the space before
// the value; le follows the family labels.
func appendBucket(b []byte, name string, labels []string, key string, bound float64) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	b = appendLabelPairs(b, labels, key)
	if len(labels) > 0 {
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = strconv.AppendFloat(b, bound, 'g', -1, 64)
	return append(b, `"} `...)
}
