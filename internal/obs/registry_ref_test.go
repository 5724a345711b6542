package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fmt-based exposition renderer the append renderer replaced, kept as
// the reference it must match byte for byte: one fmt.Fprintf per line,
// series sorted with sort.Slice on keys split per comparison.

func referenceWriteText(r *Registry, w io.Writer) {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	for _, f := range families {
		referenceFamily(f, w)
	}
}

func referenceNaturalLess(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		ad, bd := digitPrefix(a), digitPrefix(b)
		if ad > 0 && bd > 0 {
			av, aerr := strconv.ParseUint(a[:ad], 10, 64)
			bv, berr := strconv.ParseUint(b[:bd], 10, 64)
			if aerr == nil && berr == nil {
				if av != bv {
					return av < bv
				}
				a, b = a[ad:], b[bd:]
				continue
			}
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func referenceKeyLess(a, b string) bool {
	as, bs := strings.Split(a, "\x00"), strings.Split(b, "\x00")
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] != bs[i] {
			return referenceNaturalLess(as[i], bs[i])
		}
	}
	return len(as) < len(bs)
}

func referenceLabelString(labels []string, key string) string {
	if len(labels) == 0 {
		return ""
	}
	values := strings.Split(key, "\x00")
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l, values[i])
	}
	sb.WriteByte('}')
	return sb.String()
}

func referenceFamily(f *family, w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typeString())

	if f.valueFn != nil {
		fmt.Fprintf(w, "%s %d\n", f.name, f.valueFn())
		return
	}
	if f.collectFn != nil {
		type sample struct {
			key string
			v   float64
		}
		var samples []sample
		f.collectFn(func(values []string, v float64) {
			samples = append(samples, sample{key: strings.Join(values, "\x00"), v: v})
		})
		sort.Slice(samples, func(i, j int) bool { return referenceKeyLess(samples[i].key, samples[j].key) })
		for _, s := range samples {
			fmt.Fprintf(w, "%s%s %s\n", f.name, referenceLabelString(f.labels, s.key), strconv.FormatFloat(s.v, 'g', -1, 64))
		}
		return
	}

	f.mu.Lock()
	keys := make([]string, len(f.keys))
	copy(keys, f.keys)
	f.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return referenceKeyLess(keys[i], keys[j]) })
	for _, key := range keys {
		f.mu.Lock()
		s := f.series[key]
		f.mu.Unlock()
		if s == nil {
			continue
		}
		ls := referenceLabelString(f.labels, key)
		switch v := s.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, ls, v.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, ls, v.Value())
		case *Histogram:
			referenceHistogram(v, w, f.name, f.labels, key)
		}
	}
}

func referenceHistogram(h *Histogram, w io.Writer, name string, labels []string, key string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	inf, sum, count := h.inf, h.sum, h.count
	h.mu.Unlock()

	values := []string{}
	if key != "" || len(labels) > 0 {
		values = strings.Split(key, "\x00")
	}
	bucketLabels := append(append([]string{}, labels...), "le")
	cum := int64(0)
	for i, b := range h.buckets {
		cum += counts[i]
		bkey := strings.Join(append(append([]string{}, values...), strconv.FormatFloat(b, 'g', -1, 64)), "\x00")
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, referenceLabelString(bucketLabels, bkey), cum)
	}
	bkey := strings.Join(append(append([]string{}, values...), "+Inf"), "\x00")
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, referenceLabelString(bucketLabels, bkey), cum+inf)
	ls := referenceLabelString(labels, key)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, ls, strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, ls, count)
}

// awkwardLabelValues need %q escapes (quote, backslash, newline, tab,
// non-ASCII, invalid UTF-8, a control byte), are empty, or order
// naturally in ways a plain byte sort would not — including distinct
// values that compare equal ("s01" and "s1") and digit runs too long for
// a uint64.
var awkwardLabelValues = []string{
	`say "hi"`, `back\slash`, "new\nline", "tab\there", "café", "世界",
	"bad\xffutf8", "\xc3", "bell\a", "", "s1", "s01", "s2", "s10", "s001",
	"99999999999999999999999", "99999999999999999999998", "a", "A", "a1b2", "a1b10",
	"200", "404", "-1", "1.5", "+Inf", "le",
}

// buildAwkwardRegistry fills a registry with every family kind over
// label values drawn from awkwardLabelValues, in a seed-dependent order.
func buildAwkwardRegistry(seed int64, sessions int) *Registry {
	r := rand.New(rand.NewSource(seed))
	pick := func() string { return awkwardLabelValues[r.Intn(len(awkwardLabelValues))] }
	reg := NewRegistry()
	reg.NewCounter("t_plain_total", "An unlabeled counter.").Add(r.Int63n(1000))
	reg.NewGauge("t_plain", "An unlabeled gauge with \"quotes\" in its help.").Set(-r.Int63n(1000))
	reg.NewCounterFunc("t_func_total", "A counter func.", func() int64 { return 42 })
	reg.NewGaugeFunc("t_func", "A gauge func.", func() int64 { return -7 })
	h := reg.NewHistogram("t_plain_seconds", "An unlabeled histogram.", []float64{0.001, 0.01, 0.1, 1e-7, 1e21})
	for i := 0; i < 50; i++ {
		h.Observe(r.ExpFloat64() / 100)
	}
	h.Observe(math.Inf(1))
	cv := reg.NewCounterVec("t_req_total", "A counter vec.", "endpoint", "code")
	gv := reg.NewGaugeVec("t_depth", "A gauge vec.", "replica")
	hv := reg.NewHistogramVec("t_seconds", "A histogram vec.", []float64{0.0005, 0.25, 2.5}, "endpoint")
	for i := 0; i < 60; i++ {
		cv.With(pick(), pick()).Add(r.Int63n(100))
		gv.With(pick()).Set(r.Int63n(100) - 50)
		hv.With(pick()).Observe(r.Float64() * 3)
	}
	cv.Remove(pick(), pick())
	gv.Remove(pick())
	// The collector runs once per render, so its random part is drawn here.
	type pair struct {
		concept string
		v       float64
	}
	var awkward []pair
	for range awkwardLabelValues {
		awkward = append(awkward, pair{pick(), r.NormFloat64()})
	}
	reg.NewGaugeVecFunc("t_active", "A collector.", []string{"session", "concept"},
		func(emit func(values []string, v float64)) {
			values := make([]string, 2)
			for s := 0; s < sessions; s++ {
				for c := 0; c < 6; c++ {
					values[0], values[1] = "s"+strconv.Itoa(s), strconv.Itoa(c)
					emit(values, float64(s*6+c)/float64(6*sessions+1))
				}
			}
			for i, v := range awkwardLabelValues {
				values[0], values[1] = v, awkward[i].concept
				emit(values, awkward[i].v)
			}
			values[0], values[1] = "special", "x"
			for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e21, 1e-7} {
				emit(values, v)
				values[1] += "x"
			}
		})
	return reg
}

// TestExpositionMatchesReference: the append renderer's output equals the
// fmt-based reference's, byte for byte, over every family kind, a
// 4,096-session collector, and label values that need escaping or sort
// unusually.
func TestExpositionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sessions := 16
		if seed == 1 {
			sessions = 4096
		}
		reg := buildAwkwardRegistry(seed, sessions)
		var got, want strings.Builder
		reg.WriteText(&got)
		referenceWriteText(reg, &want)
		if got.String() != want.String() {
			g, w := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			lo := max(0, i-200)
			t.Fatalf("seed %d: exposition differs from the reference at byte %d (got %d bytes, want %d)\n--- got ---\n%s\n--- want ---\n%s",
				seed, i, len(g), len(w), g[lo:min(len(g), i+200)], w[lo:min(len(w), i+200)])
		}
		if seed == 1 && got.Len() < 4096*6*40 {
			t.Fatalf("the 4,096-session exposition is only %d bytes", got.Len())
		}
	}
}

// TestKeyCompareMatchesReference: keyCompare is a three-way form of the
// reference's split-per-comparison keyLess.
func TestKeyCompareMatchesReference(t *testing.T) {
	var keys []string
	for _, a := range awkwardLabelValues {
		keys = append(keys, a)
		for _, b := range awkwardLabelValues[:8] {
			keys = append(keys, a+"\x00"+b)
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := keyCompare(a, b) < 0, referenceKeyLess(a, b); got != want {
				t.Fatalf("keyCompare(%q, %q) < 0 = %v, reference keyLess = %v", a, b, got, want)
			}
		}
	}
}
