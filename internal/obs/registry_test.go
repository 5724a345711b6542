package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "A counter.")
	c.Add(3)
	v := r.NewCounterVec("t_req_total", "Labeled.", "endpoint", "code")
	v.With("classify", "200").Add(5)
	v.With("classify", "429").Inc()
	v.With("observe", "200").Add(2)
	g := r.NewGauge("t_depth", "A gauge.")
	g.Set(7)
	r.NewGaugeFunc("t_live", "Sampled.", func() int64 { return 11 })
	h := r.NewHistogramVec("t_seconds", "Latency.", []float64{0.001, 0.01}, "endpoint")
	h.With("classify").Observe(0.0005)
	h.With("classify").Observe(0.5)

	var sb strings.Builder
	r.WriteText(&sb)
	want := `# HELP t_total A counter.
# TYPE t_total counter
t_total 3
# HELP t_req_total Labeled.
# TYPE t_req_total counter
t_req_total{endpoint="classify",code="200"} 5
t_req_total{endpoint="classify",code="429"} 1
t_req_total{endpoint="observe",code="200"} 2
# HELP t_depth A gauge.
# TYPE t_depth gauge
t_depth 7
# HELP t_live Sampled.
# TYPE t_live gauge
t_live 11
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{endpoint="classify",le="0.001"} 1
t_seconds_bucket{endpoint="classify",le="0.01"} 1
t_seconds_bucket{endpoint="classify",le="+Inf"} 2
t_seconds_sum{endpoint="classify"} 0.5005
t_seconds_count{endpoint="classify"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryNaturalOrder(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_sessions_total", "Per session.", "session")
	for _, id := range []string{"s10", "s2", "s1"} {
		v.With(id).Inc()
	}
	var sb strings.Builder
	r.WriteText(&sb)
	got := sb.String()
	i1 := strings.Index(got, `"s1"`)
	i2 := strings.Index(got, `"s2"`)
	i10 := strings.Index(got, `"s10"`)
	if !(i1 < i2 && i2 < i10) {
		t.Errorf("want natural order s1 < s2 < s10, got:\n%s", got)
	}
}

func TestNaturalLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"s2", "s10", true},
		{"s10", "s2", false},
		{"200", "404", true},
		{"abc", "abd", true},
		{"a", "ab", true},
		{"s1", "s1", false},
	}
	for _, c := range cases {
		if got := naturalCompare(c.a, c.b) < 0; got != c.want {
			t.Errorf("naturalCompare(%q, %q) < 0 = %v, want %v", c.a, c.b, got, c.want)
		}
		if got, rev := naturalCompare(c.a, c.b), naturalCompare(c.b, c.a); got != -rev {
			t.Errorf("naturalCompare(%q, %q) = %d but reversed = %d", c.a, c.b, got, rev)
		}
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax high-water = %d, want 9", got)
	}
}

func TestGaugeVecFunc(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeVecFunc("t_active", "Active prob.", []string{"session", "concept"}, func(emit func([]string, float64)) {
		emit([]string{"s2", "0"}, 0.25)
		emit([]string{"s1", "1"}, 0.75)
		emit([]string{"s1", "0"}, 0.25)
	})
	var sb strings.Builder
	r.WriteText(&sb)
	want := `# HELP t_active Active prob.
# TYPE t_active gauge
t_active{session="s1",concept="0"} 0.25
t_active{session="s1",concept="1"} 0.75
t_active{session="s2",concept="0"} 0.25
`
	if got := sb.String(); got != want {
		t.Errorf("gauge-vec-func exposition:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestCounterVecRemove(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_x_total", "X.", "session")
	v.With("s1").Inc()
	v.With("s2").Inc()
	v.Remove("s1")
	v.Remove("s1") // idempotent
	var sb strings.Builder
	r.WriteText(&sb)
	if strings.Contains(sb.String(), `"s1"`) {
		t.Errorf("removed series still rendered:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `"s2"`) {
		t.Errorf("surviving series missing:\n%s", sb.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniformly in (0, 1]: all in the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 of sub-1 observations = %v, want within (0, 1]", q)
	}
	h2 := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5)
		h2.Observe(3)
	}
	p50 := h2.Quantile(0.5)
	if p50 < 0.5 || p50 > 2.1 {
		t.Errorf("p50 = %v, want near the first/second bucket boundary", p50)
	}
	p99 := h2.Quantile(0.99)
	if p99 < 2 || p99 > 4 {
		t.Errorf("p99 = %v, want in (2, 4] bucket", p99)
	}
	if q := h2.Quantile(1); math.Abs(q-4) > 1e-9 {
		t.Errorf("p100 = %v, want 4 (upper bound of last occupied bucket)", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

// TestRegistryConcurrency hammers every mutable instrument from many
// goroutines while rendering concurrently; run under -race this is the
// registry's data-race gate, and the final counts check that no increment
// was lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "C.")
	vec := r.NewCounterVec("t_by_label_total", "CV.", "worker")
	g := r.NewGauge("t_gauge", "G.")
	h := r.NewHistogram("t_seconds", "H.", []float64{0.001, 0.01, 0.1})
	hv := r.NewHistogramVec("t_vec_seconds", "HV.", []float64{0.001, 0.01}, "worker")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w)
			for i := 0; i < iters; i++ {
				c.Inc()
				vec.With(label).Inc()
				g.SetMax(int64(i))
				h.Observe(float64(i%100) / 1000)
				hv.With(label).Observe(0.005)
			}
		}(w)
	}
	// Concurrent renders must not race with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WriteText(&sb)
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter lost increments: %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram lost observations: %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With(fmt.Sprintf("w%d", w)).Value(); got != iters {
			t.Errorf("vec series w%d = %d, want %d", w, got, iters)
		}
	}
}
