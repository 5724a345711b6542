package main

import (
	"math"
	"testing"
	"time"

	"highorder/internal/clock"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q, want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := quantile(xs, tc.q); got != tc.want { //homlint:allow floatcmp -- exact order statistics
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// A failed op enters as +Inf and must land beyond every latency.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(withFail, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed op = %v, want +Inf", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.7, 5.0, 4.4, 3.9}, [3]float64{2.9, 3.9, 4.7}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 { //homlint:allow floatcmp -- exact midpoint
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestSelfTime checks that a span's self time excludes the part of its
// interval its children cover, including calls folded in with add.
func TestSelfTime(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	tr := newTracer(fake.Clock())
	root := tr.start(nil, "op", 1)
	fake.Advance(2 * time.Millisecond)
	req := root.child("request")
	req.setRecords(16)
	fake.Advance(3 * time.Millisecond)
	enc := req.child("encode")
	fake.Advance(1 * time.Millisecond)
	enc.end()
	fake.Advance(4 * time.Millisecond)
	req.end()
	root.add("kernel", 16, 2*time.Millisecond, 16)
	fake.Advance(2 * time.Millisecond)
	root.end()

	for _, tc := range []struct {
		name        string
		total, self time.Duration
		count       int64
	}{
		{"op", 12 * time.Millisecond, 2 * time.Millisecond, 1},
		{"request", 8 * time.Millisecond, 7 * time.Millisecond, 1},
		{"encode", 1 * time.Millisecond, 1 * time.Millisecond, 1},
		{"kernel", 2 * time.Millisecond, 2 * time.Millisecond, 16},
	} {
		a := tr.get(tc.name)
		if a.Total != tc.total || a.Self != tc.self || a.Count != tc.count {
			t.Errorf("%s: total %v self %v count %d, want %v %v %d", tc.name, a.Total, a.Self, a.Count, tc.total, tc.self, tc.count)
		}
	}
	if got := perRecordNS(tr.get("request")); got != 7e6/16 { //homlint:allow floatcmp -- exact ratio of integers
		t.Errorf("request self ns per record = %v, want %v", got, 7e6/16)
	}
	if root := tr.get("op"); root.Records != 0 {
		t.Errorf("op records = %d, want 0", root.Records)
	}

	var nilTracer *tracer
	sp := nilTracer.start(nil, "x", 0)
	sp.child("y").end()
	sp.add("z", 1, time.Second, 1)
	sp.end() // a nil tracer records nothing and must not panic
}
