package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"highorder/internal/clock"
)

var (
	testNameA = InternName("test.alpha")
	testNameB = InternName("test.beta")
)

func TestTraceContextHeaderRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: 1, SpanID: 0, Sampled: true},
		{TraceID: 0xdeadbeefcafe0123, SpanID: 0x0123456789abcdef, Sampled: true},
		{TraceID: ^uint64(0), SpanID: 42, Sampled: false},
	}
	for _, tc := range cases {
		h := tc.HeaderValue()
		if len(h) != headerLen {
			t.Fatalf("HeaderValue(%+v) = %q: want length %d", tc, h, headerLen)
		}
		got, ok := ParseTraceContext(h)
		if !ok || got != tc {
			t.Fatalf("round trip %+v -> %q -> %+v (ok=%v)", tc, h, got, ok)
		}
	}
	bad := []string{
		"",
		"not-a-trace",
		strings.Repeat("0", headerLen),                      // zero trace id, wrong separators
		"000000000000000g-0000000000000001-1",               // bad hex
		"0000000000000001-0000000000000001-2",               // bad flag
		"0000000000000001-0000000000000001-11",              // too long
		"00000000000000010000000000000001-1",                // missing separator
		"0000000000000000-0000000000000001-1",               // zero trace id
		"0000000000000001x0000000000000001-1",               // wrong separator
		"0000000000000001-0000000000000001_1"[:headerLen-1], // too short
	}
	for _, s := range bad {
		if _, ok := ParseTraceContext(s); ok {
			t.Fatalf("ParseTraceContext(%q) accepted malformed input", s)
		}
	}
}

func TestSamplingDeterministicAndHeadBased(t *testing.T) {
	mk := func() *Recorder {
		return NewRecorder(FlightConfig{Proc: "p", Seed: 42, SampleOneIn: 4, Slots: 64})
	}
	a, b := mk(), mk()
	sampledA, sampledB, hits := "", "", 0
	for i := 0; i < 256; i++ {
		ta, tb := a.StartTrace(), b.StartTrace()
		if ta != tb {
			t.Fatalf("trace %d: recorders from one seed diverged: %+v vs %+v", i, ta, tb)
		}
		if ta.Sampled {
			hits++
			sampledA += "1"
		} else {
			sampledA += "0"
		}
		if tb.Sampled {
			sampledB += "1"
		} else {
			sampledB += "0"
		}
	}
	if sampledA != sampledB {
		t.Fatal("sampling schedules diverged")
	}
	if hits == 0 || hits == 256 {
		t.Fatalf("SampleOneIn=4 sampled %d/256 traces: want a nontrivial subset", hits)
	}
	// The decision travels in the header: a second process adopting the
	// context agrees without re-deciding.
	tc := a.ForceTrace()
	down := NewRecorder(FlightConfig{Proc: "q", Seed: 7, SampleOneIn: 1 << 30, Slots: 64})
	got := down.Adopt(tc.HeaderValue())
	if !got.Sampled || got.TraceID != tc.TraceID {
		t.Fatalf("downstream Adopt lost the head decision: %+v", got)
	}
}

func TestRecorderSnapshotSpanTree(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	r := NewRecorder(FlightConfig{Proc: "r1", Seed: 1, Slots: 128, Clock: fc.Clock()})
	tc := r.StartTrace()
	root := r.Start(tc, testNameA)
	root.SetSession("s7")
	fc.Advance(2 * time.Millisecond)
	child := r.Start(root.Context(), testNameB)
	child.SetArg(16)
	fc.Advance(3 * time.Millisecond)
	child.End()
	root.End()
	r.Instant(tc, testNameB, 99)

	d := r.Snapshot("test")
	if d.Proc != "r1" || d.Reason != "test" {
		t.Fatalf("dump header: %+v", d)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(d.Spans), d.Spans)
	}
	byName := map[string]FlightSpanRecord{}
	for _, s := range d.Spans {
		if s.Trace != hex16(tc.TraceID) {
			t.Fatalf("span %+v not on trace %s", s, hex16(tc.TraceID))
		}
		if _, dup := byName[s.Name]; !dup {
			byName[s.Name] = s
		}
	}
	rootRec, childRec := byName["test.alpha"], byName["test.beta"]
	if rootRec.Session != "s7" {
		t.Fatalf("root span lost its session: %+v", rootRec)
	}
	if childRec.Parent != rootRec.Span {
		t.Fatalf("child parent = %q, want root span %q", childRec.Parent, rootRec.Span)
	}
	if childRec.Arg != 16 || childRec.DurNS != int64(3*time.Millisecond) {
		t.Fatalf("child record: %+v", childRec)
	}
	if rootRec.DurNS != int64(5*time.Millisecond) {
		t.Fatalf("root duration = %d, want 5ms", rootRec.DurNS)
	}

	// WriteDump round-trips through JSON.
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, "manual"); err != nil {
		t.Fatal(err)
	}
	var back FlightDump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Proc != "r1" || len(back.Spans) != 3 {
		t.Fatalf("decoded dump: %+v", back)
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(FlightConfig{Proc: "w", Seed: 3, Slots: 8, Shards: 1})
	tc := r.ForceTrace()
	for i := 0; i < 100; i++ {
		sp := r.Start(tc, testNameA)
		sp.SetArg(int64(i))
		sp.End()
	}
	d := r.Snapshot("wrap")
	if len(d.Spans) != 8 {
		t.Fatalf("ring of 8 slots holds %d spans", len(d.Spans))
	}
	for _, s := range d.Spans {
		if s.Arg < 92 {
			t.Fatalf("ring retained old span arg=%d; want only the last 8", s.Arg)
		}
	}
	if d.Overwritten != 92 {
		t.Fatalf("Overwritten = %d, want 92 (100 spans through 8 slots)", d.Overwritten)
	}

	// A ring that never laps reports no loss, even when exactly full.
	full := NewRecorder(FlightConfig{Proc: "w", Seed: 3, Slots: 8, Shards: 1})
	for i := 0; i < 8; i++ {
		sp := full.Start(tc, testNameA)
		sp.End()
	}
	if d := full.Snapshot("full"); d.Overwritten != 0 || len(d.Spans) != 8 {
		t.Fatalf("full, unlapped ring: %d spans, Overwritten = %d; want 8 and 0", len(d.Spans), d.Overwritten)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	r := NewRecorder(FlightConfig{Proc: "e", Seed: 5, Slots: 16, Clock: fc.Clock()})
	sp := r.Start(r.ForceTrace(), testNameA)
	fc.Advance(time.Millisecond)
	sp.End()
	fc.Advance(time.Hour)
	sp.End()
	d := r.Snapshot("end")
	if len(d.Spans) != 1 || d.Spans[0].DurNS != int64(time.Millisecond) {
		t.Fatalf("after a double End: %+v, want one 1ms span", d.Spans)
	}
}

// TestSpanChildAndInstant checks the span-relative helpers nest under the
// span they are called on, and record nothing once it has ended.
func TestSpanChildAndInstant(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	r := NewRecorder(FlightConfig{Proc: "c", Seed: 6, Slots: 16, Clock: fc.Clock()})
	root := r.Start(r.ForceTrace(), testNameA)
	child := root.Child(testNameB)
	fc.Advance(time.Millisecond)
	child.Instant(testNameA, 7)
	child.End()
	root.End()
	root.Instant(testNameB, 8) // ended: no-op
	if late := root.Child(testNameB); late.Recording() {
		t.Fatal("Child of an ended span records")
	}

	d := r.Snapshot("child")
	if len(d.Spans) != 3 {
		t.Fatalf("got %d spans, want root, child, instant: %+v", len(d.Spans), d.Spans)
	}
	sums, err := Summarize(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []PhaseSummary{
		{Phase: "test.alpha", Spans: 1, WallSeconds: 0.001},
		{Phase: "test.alpha/test.beta", Spans: 1, WallSeconds: 0.001},
		{Phase: "test.alpha/test.beta/test.alpha", Spans: 1, Arg: 7},
	}
	if !reflect.DeepEqual(sums, want) {
		t.Fatalf("summary = %+v, want %+v", sums, want)
	}
}

// spanRec builds one dump record for the Summarize tests.
func spanRec(span, parent, name string, dur time.Duration, arg int64) FlightSpanRecord {
	return FlightSpanRecord{Trace: "t", Span: span, Parent: parent, Name: name, DurNS: int64(dur), Arg: arg}
}

func TestSummarizeAggregatesByPath(t *testing.T) {
	d := FlightDump{Proc: "p", Spans: []FlightSpanRecord{
		spanRec("r", "", "build", 40*time.Millisecond, 3000),
		spanRec("t", "r", "retrain", 30*time.Millisecond, 0),
		spanRec("c1", "t", "train_concept", 10*time.Millisecond, 100),
		spanRec("c2", "t", "train_concept", 10*time.Millisecond, 100),
		spanRec("c3", "t", "train_concept", 10*time.Millisecond, 100),
		spanRec("n", "r", "concepts", 0, 3),
		// Parented by a span of another process: the path starts here.
		spanRec("x", "elsewhere", "serve.classify", 5*time.Millisecond, 16),
	}}
	sums, err := Summarize(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []PhaseSummary{
		{Phase: "build", Spans: 1, WallSeconds: 0.04, Arg: 3000},
		{Phase: "build/concepts", Spans: 1, Arg: 3},
		{Phase: "build/retrain", Spans: 1, WallSeconds: 0.03},
		{Phase: "build/retrain/train_concept", Spans: 3, WallSeconds: 0.03, Arg: 300},
		{Phase: "serve.classify", Spans: 1, WallSeconds: 0.005, Arg: 16},
	}
	if !reflect.DeepEqual(sums, want) {
		t.Fatalf("summary = %+v, want %+v", sums, want)
	}

	d.Overwritten = 1
	if _, err := Summarize(d); err == nil || !strings.Contains(err.Error(), "overwrite") {
		t.Errorf("Summarize of a lapped dump: err = %v, want an overwrite refusal", err)
	}

	cyc := FlightDump{Proc: "p", Spans: []FlightSpanRecord{
		spanRec("a", "b", "x", 0, 0),
		spanRec("b", "a", "y", 0, 0),
	}}
	if _, err := Summarize(cyc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Summarize of a parent cycle: err = %v, want a cycle error", err)
	}
}

func TestRecorderTriggerRateLimit(t *testing.T) {
	fc := clock.NewFake(time.Unix(50, 0))
	r := NewRecorder(FlightConfig{Proc: "t", Seed: 9, Slots: 32, Clock: fc.Clock(), TriggerMin: time.Second})
	var got []string
	r.OnTrigger(func(d FlightDump) { got = append(got, d.Reason) })

	tc := r.ForceTrace()
	r.Instant(tc, testNameA, 1)
	r.Trigger("first")
	r.Trigger("suppressed")
	fc.Advance(2 * time.Second)
	r.Trigger("second")

	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("trigger reasons = %v, want [first second]", got)
	}
	last := r.LastTriggered()
	if last == nil || last.Reason != "second" || len(last.Spans) != 1 {
		t.Fatalf("LastTriggered = %+v", last)
	}
}

// TestFlightDisabledAllocs proves the tracing-disabled hot path (nil
// recorder, the production default) allocates nothing. Enforced in CI by
// the verify.sh alloc-ceiling step.
func TestFlightDisabledAllocs(t *testing.T) {
	var r *Recorder
	header := TraceContext{TraceID: 5, SpanID: 6, Sampled: true}.HeaderValue()
	allocs := testing.AllocsPerRun(200, func() {
		tc := r.Adopt(header)
		sp := r.Start(tc, testNameA)
		sp.SetArg(1)
		sp.SetSession("s1")
		child := sp.Child(testNameB)
		child.End()
		sp.Instant(testNameB, 3)
		sp.End()
		r.Instant(tc, testNameB, 2)
		r.Trigger("never")
	})
	if allocs != 0 {
		t.Fatalf("disabled flight path allocates %.1f/op, want 0", allocs)
	}
}

// TestFlightUnsampledAllocs proves a trace the head sampled out costs no
// allocations on any hop: parsing the inbound header, span start/end, and
// instants are all free.
func TestFlightUnsampledAllocs(t *testing.T) {
	r := NewRecorder(FlightConfig{Proc: "u", Seed: 11, SampleOneIn: 1 << 40, Slots: 64})
	unsampled := TraceContext{TraceID: 0xabc, SpanID: 0xdef, Sampled: false}.HeaderValue()
	allocs := testing.AllocsPerRun(200, func() {
		tc := r.Adopt(unsampled)
		sp := r.Start(tc, testNameA)
		sp.SetArg(3)
		sp.SetSession("s2")
		sp.End()
		r.Instant(tc, testNameB, 4)
		_ = r.StartTrace() // head-side: allocation-free whatever it decides
	})
	if allocs != 0 {
		t.Fatalf("unsampled flight path allocates %.1f/op, want 0", allocs)
	}
}

// TestRecorderConcurrent is a race-detector smoke: writers on every shard
// while a reader snapshots. Correctness here is "no race, no torn record
// escapes" — torn slots are discarded by the version check.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(FlightConfig{Proc: "c", Seed: 21, Slots: 64, Shards: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := r.ForceTrace()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := r.Start(tc, testNameA)
				sp.SetArg(int64(i))
				sp.End()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		d := r.Snapshot("live")
		for _, s := range d.Spans {
			if s.Name != "test.alpha" {
				t.Errorf("snapshot surfaced torn span %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkFlightDisabled(b *testing.B) {
	var r *Recorder
	header := TraceContext{TraceID: 5, SpanID: 6, Sampled: true}.HeaderValue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := r.Adopt(header)
		sp := r.Start(tc, testNameA)
		sp.End()
	}
}

func BenchmarkFlightUnsampled(b *testing.B) {
	r := NewRecorder(FlightConfig{Proc: "b", Seed: 1, SampleOneIn: 1 << 40})
	header := TraceContext{TraceID: 0xabc, SpanID: 0xdef, Sampled: false}.HeaderValue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := r.Adopt(header)
		sp := r.Start(tc, testNameA)
		sp.End()
	}
}

func BenchmarkFlightSampled(b *testing.B) {
	r := NewRecorder(FlightConfig{Proc: "b", Seed: 1})
	tc := r.ForceTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Start(tc, testNameA)
		sp.SetArg(int64(i))
		sp.End()
	}
}
