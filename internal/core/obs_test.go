package core

import (
	"reflect"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/data"
	"highorder/internal/obs"
)

// tracedBuild builds the three-concept model with a flight recorder
// attached, on a frozen fake clock, with the given training parallelism,
// and returns the model with the recorder's phase summary.
func tracedBuild(t *testing.T, workers int) (*Model, []obs.PhaseSummary) {
	t.Helper()
	hist, _ := stream(1,
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400},
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400})
	fake := clock.NewFake(time.Unix(0, 0))
	rec := obs.NewRecorder(obs.FlightConfig{Proc: "build", Slots: 1 << 12, Shards: 1, Clock: fake.Clock()})
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Recorder = rec
	opts.Clock = fake.Clock()
	m, err := Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := obs.Summarize(rec.Snapshot("test"))
	if err != nil {
		t.Fatal(err)
	}
	return m, sums
}

// byPhase indexes a summary by span path.
func byPhase(sums []obs.PhaseSummary) map[string]obs.PhaseSummary {
	out := make(map[string]obs.PhaseSummary, len(sums))
	for _, s := range sums {
		out[s.Phase] = s
	}
	return out
}

// TestBuildSpanTreeDeterminism asserts that two identically-seeded builds —
// even with different worker counts — record identical phase summaries:
// same paths, same span counts, same args (the frozen clock zeroes every
// duration). Spans are only created in sequential pipeline code, so the
// trace is as reproducible as the model itself.
func TestBuildSpanTreeDeterminism(t *testing.T) {
	_, a := tracedBuild(t, 1)
	_, b := tracedBuild(t, 4)
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("phase summaries differ across identically-seeded runs:\n--- workers=1 ---\n%+v\n--- workers=4 ---\n%+v", a, b)
	}
}

// TestBuildSpanTreePhases asserts the offline pipeline records the phases
// the observability layer promises — block building, chunk merge, concept
// merge, transition estimation, per-concept retraining — each with its
// one count as its arg.
func TestBuildSpanTreePhases(t *testing.T) {
	m, sums := tracedBuild(t, 0)
	phases := byPhase(sums)
	for _, phase := range []string{
		"build",
		"build/block_build",
		"build/chunk_merge",
		"build/concept_merge",
		"build/transitions",
		"build/retrain",
		"build/retrain/train_concept",
	} {
		if phases[phase].Spans == 0 {
			t.Errorf("phase %q missing from summary %v", phase, sums)
		}
	}
	if got := phases["build/retrain/train_concept"].Spans; got != m.NumConcepts() || got < 2 {
		t.Errorf("train_concept spans = %d, want one per concept (%d)", got, m.NumConcepts())
	}
	st := m.Stats.Clustering
	for phase, want := range map[string]int{
		"build":                       m.Stats.HistorySize,
		"build/concepts":              m.NumConcepts(),
		"build/block_build":           st.Blocks,
		"build/chunk_merge":           st.Chunks,
		"build/concept_merge":         m.NumConcepts(),
		"build/retrain/train_concept": m.Stats.HistorySize,
	} {
		if got := phases[phase].Arg; got != int64(want) {
			t.Errorf("%s arg = %d, want %d", phase, got, want)
		}
	}
}

// TestBuildPhaseCountsSumToStats asserts every clustering phase records
// each work count as its own delta: summed over the three phases, each
// count equals the build's cluster.Stats.
func TestBuildPhaseCountsSumToStats(t *testing.T) {
	m, sums := tracedBuild(t, 0)
	phases := byPhase(sums)
	st := m.Stats.Clustering
	for count, want := range map[string]int{
		"models_trained":  st.ModelsTrained,
		"edges_evaluated": st.EdgesEvaluated,
		"edges_pruned":    st.EdgesPruned,
		"models_reused":   st.ModelsReused,
		"records_copied":  st.RecordsCopied,
		"mergers":         st.Mergers,
	} {
		var total int64
		for _, phase := range []string{"block_build", "chunk_merge", "concept_merge"} {
			ps := phases["build/"+phase+"/"+count]
			if ps.Spans != 1 {
				t.Errorf("%s recorded %d %s spans, want 1", phase, ps.Spans, count)
			}
			total += ps.Arg
		}
		if total != int64(want) {
			t.Errorf("%s summed over the phases = %d, want the build's %d", count, total, want)
		}
	}
	if st.ModelsTrained == 0 || st.EdgesEvaluated == 0 || st.RecordsCopied == 0 {
		t.Fatalf("build did no clustering work: %+v", st)
	}
}

// TestPredictorSinkMatchesOfflineReplay replays the same labeled stream
// through two predictors over one model: one instrumented with a
// TimelineSink, one polled manually via ActiveProbabilities and
// CurrentConcept after every Observe (the way eval's offline replay
// derives its probability traces). The sink's event stream must agree
// exactly — same per-record MAP, same posterior vectors, same switch
// positions.
func TestPredictorSinkMatchesOfflineReplay(t *testing.T) {
	m := buildThreeConceptModel(t)
	instrumented := m.NewPredictor()
	polled := m.NewPredictor()
	sink := &obs.TimelineSink{}
	instrumented.SetSink(sink)

	test, _ := stream(9, [2]int{0, 120}, [2]int{2, 120}, [2]int{1, 120})

	var wantMAP []int
	var wantActive [][]float64
	prevMAP := -1
	var wantSwitches []int // 1-based record positions of MAP switches
	for i, r := range test.Records {
		polled.Observe(r)
		instrumented.Observe(r)
		mapC, _ := polled.CurrentConcept()
		wantMAP = append(wantMAP, mapC)
		wantActive = append(wantActive, polled.ActiveProbabilities())
		if prevMAP >= 0 && mapC != prevMAP {
			wantSwitches = append(wantSwitches, i+1)
		}
		prevMAP = mapC
	}

	if len(sink.Events) != len(test.Records) {
		t.Fatalf("sink events = %d, want one per observed record (%d)", len(sink.Events), len(test.Records))
	}
	for i, ev := range sink.Events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.MAP != wantMAP[i] {
			t.Errorf("event %d MAP = %d, replay says %d", i, ev.MAP, wantMAP[i])
		}
		if len(ev.Active) != len(wantActive[i]) {
			t.Fatalf("event %d Active len = %d, want %d", i, len(ev.Active), len(wantActive[i]))
		}
		for c := range ev.Active {
			if ev.Active[c] != wantActive[i][c] {
				t.Errorf("event %d Active[%d] = %v, replay says %v", i, c, ev.Active[c], wantActive[i][c])
			}
		}
	}
	var gotSwitches []int
	for _, ev := range sink.Switches() {
		gotSwitches = append(gotSwitches, ev.Seq)
	}
	if len(gotSwitches) != len(wantSwitches) {
		t.Fatalf("switch positions = %v, replay says %v", gotSwitches, wantSwitches)
	}
	for i := range gotSwitches {
		if gotSwitches[i] != wantSwitches[i] {
			t.Fatalf("switch positions = %v, replay says %v", gotSwitches, wantSwitches)
		}
	}
	if len(gotSwitches) == 0 {
		t.Fatal("stream with two concept changes produced no MAP switches; test is vacuous")
	}
}

// TestPredictorSinkDriftLag checks SinceDrift accounting around MarkDrift.
func TestPredictorSinkDriftLag(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	sink := &obs.TimelineSink{}
	p.SetSink(sink)

	warm, _ := stream(10, [2]int{0, 60})
	for _, r := range warm.Records {
		p.Observe(r)
	}
	for _, ev := range sink.Events {
		if ev.SinceDrift != -1 {
			t.Fatalf("SinceDrift before any mark = %d, want -1", ev.SinceDrift)
		}
	}

	p.MarkDrift()
	after, _ := stream(11, [2]int{2, 60})
	sink.Events = nil
	for _, r := range after.Records {
		p.Observe(r)
	}
	for i, ev := range sink.Events {
		if ev.SinceDrift != i+1 {
			t.Fatalf("event %d SinceDrift = %d, want %d", i, ev.SinceDrift, i+1)
		}
	}
	switches := sink.Switches()
	if len(switches) == 0 {
		t.Fatal("no MAP switch after a real concept change")
	}
	first := switches[0]
	if first.SinceDrift <= 0 || first.SinceDrift > 60 {
		t.Errorf("detection lag = %d records, want in (0, 60]", first.SinceDrift)
	}
}

// TestPredictorSinkFirstEventNotSwitch: the first event after SetSink (and
// after a Restore) reports PrevMAP -1 and no switch.
func TestPredictorSinkFirstEventNotSwitch(t *testing.T) {
	m := buildThreeConceptModel(t)
	p := m.NewPredictor()
	test, _ := stream(12, [2]int{1, 10})
	sink := &obs.TimelineSink{}
	p.SetSink(sink)
	p.Observe(test.Records[0])
	if ev := sink.Events[0]; ev.Switched || ev.PrevMAP != -1 {
		t.Errorf("first event = %+v, want PrevMAP=-1 and not Switched", ev)
	}
	st := p.Snapshot()
	if err := p.Restore(st); err != nil {
		t.Fatal(err)
	}
	sink.Events = nil
	p.Observe(test.Records[1])
	if ev := sink.Events[0]; ev.Switched || ev.PrevMAP != -1 {
		t.Errorf("first event after Restore = %+v, want PrevMAP=-1 and not Switched", ev)
	}
}

func benchModel(b *testing.B) *Model {
	b.Helper()
	hist, _ := stream(1,
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400},
		[2]int{0, 400}, [2]int{1, 400}, [2]int{2, 400})
	m, err := Build(hist, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPredictorObserveNilSink is the acceptance gate for the
// introspection stream's disabled path: with no sink set, Observe must
// allocate nothing — the sink machinery is one pointer check.
func BenchmarkPredictorObserveNilSink(b *testing.B) {
	m := benchModel(b)
	p := m.NewPredictor()
	test, _ := stream(2, [2]int{1, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(test.Records[i%test.Len()])
	}
}

// BenchmarkPredictorObserveTimelineSink is the enabled-path cost for
// comparison (one event struct + posterior copy per record).
func BenchmarkPredictorObserveTimelineSink(b *testing.B) {
	m := benchModel(b)
	p := m.NewPredictor()
	sink := &obs.TimelineSink{}
	p.SetSink(sink)
	test, _ := stream(2, [2]int{1, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(test.Records[i%test.Len()])
		if len(sink.Events) > 4096 {
			sink.Events = sink.Events[:0]
		}
	}
}

// BenchmarkPredictorClassifyNilSink locks the classify hot path: the
// observability layer must not add a byte to Predict when disabled.
func BenchmarkPredictorClassifyNilSink(b *testing.B) {
	m := benchModel(b)
	p := m.NewPredictor()
	test, _ := stream(2, [2]int{1, 1000})
	for _, r := range test.Records[:200] {
		p.Observe(r)
	}
	x := data.Record{Values: test.Records[0].Values}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(x)
	}
}
