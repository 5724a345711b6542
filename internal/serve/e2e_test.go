package serve

import (
	"io"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
)

// buildStaggerModel trains a small real high-order model (full clustering
// build) for end-to-end tests.
func buildStaggerModel(t *testing.T) *core.Model {
	t.Helper()
	g := synth.NewStagger(synth.StaggerConfig{Seed: 1})
	hist := synth.TakeDataset(g, 3000)
	opts := core.DefaultOptions()
	opts.Seed = 1
	m, err := core.Build(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// takeRecords drains n labeled records from a fresh Stagger stream.
func takeRecords(seed int64, n int) []data.Record {
	g := synth.NewStagger(synth.StaggerConfig{Seed: seed})
	d := synth.TakeDataset(g, n)
	return d.Records
}

// toWire splits records into the client wire form.
func toWire(recs []data.Record) (vectors [][]float64, classes []int) {
	vectors = make([][]float64, len(recs))
	classes = make([]int, len(recs))
	for i, r := range recs {
		vectors[i] = r.Values
		classes[i] = r.Class
	}
	return vectors, classes
}

// TestE2EServedMatchesOfflineReplay is the end-to-end determinism proof:
// two sessions driven concurrently over HTTP — one record-at-a-time under
// the test-then-train protocol, one in batches of 7 — must produce
// predictions and final active probabilities bit-identical to offline
// core.Predictor replays of the same record sequences through the same
// Session code path. Run under -race (verify.sh runs all tests with it),
// this also exercises the session locks and the execution slots under
// real concurrency.
func TestE2EServedMatchesOfflineReplay(t *testing.T) {
	m := buildStaggerModel(t)
	s := New(m, Options{QueueDepth: 32, Workers: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL, nil)

	const n = 400
	seqA := takeRecords(101, n)
	seqB := takeRecords(102, n)

	var wg sync.WaitGroup
	var servedA, servedB []int
	var finalA, finalB []float64
	errs := make(chan error, 2)

	// Session A: record-at-a-time test-then-train — the exact protocol of
	// serve.Replay / cmd/hompredict.
	wg.Add(1)
	go func() {
		defer wg.Done()
		created, err := c.CreateSession(CreateSessionRequest{})
		if err != nil {
			errs <- err
			return
		}
		for _, r := range seqA {
			resp, err := c.Classify(created.ID, [][]float64{r.Values}, false)
			if err != nil {
				errs <- err
				return
			}
			servedA = append(servedA, resp.Predictions[0])
			if _, err := c.Observe(created.ID, [][]float64{r.Values}, []int{r.Class}); err != nil {
				errs <- err
				return
			}
		}
		info, err := c.Info(created.ID)
		if err != nil {
			errs <- err
			return
		}
		finalA = info.Active
	}()

	// Session B: batched — classify 7 records, then observe their labels.
	wg.Add(1)
	go func() {
		defer wg.Done()
		created, err := c.CreateSession(CreateSessionRequest{})
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < len(seqB); i += 7 {
			end := min(i+7, len(seqB))
			vectors, classes := toWire(seqB[i:end])
			resp, err := c.Classify(created.ID, vectors, false)
			if err != nil {
				errs <- err
				return
			}
			servedB = append(servedB, resp.Predictions...)
			if _, err := c.Observe(created.ID, vectors, classes); err != nil {
				errs <- err
				return
			}
		}
		info, err := c.Info(created.ID)
		if err != nil {
			errs <- err
			return
		}
		finalB = info.Active
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Offline reference A: serve.Replay over a local session — the same
	// code path cmd/hompredict uses for file replay.
	i := 0
	offlineSessA := NewLocalSession(m.NewPredictor())
	var offlineA []int
	res, err := Replay(offlineSessA, func() (data.Record, error) {
		if i == len(seqA) {
			return data.Record{}, io.EOF
		}
		r := seqA[i]
		i++
		return r, nil
	}, func(_, predicted int, _ data.Record) {
		offlineA = append(offlineA, predicted)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != n {
		t.Fatalf("offline replay consumed %d records, want %d", res.Records, n)
	}

	// Offline reference B: the same batched protocol through a local
	// session.
	offlineSessB := NewLocalSession(m.NewPredictor())
	var offlineB []int
	for i := 0; i < len(seqB); i += 7 {
		end := min(i+7, len(seqB))
		offlineB = append(offlineB, offlineSessB.Classify(seqB[i:end], false).Predictions...)
		offlineSessB.Observe(seqB[i:end])
	}

	for i := range seqA {
		if servedA[i] != offlineA[i] {
			t.Fatalf("session A record %d: served %d, offline %d", i, servedA[i], offlineA[i])
		}
	}
	for i := range seqB {
		if servedB[i] != offlineB[i] {
			t.Fatalf("session B record %d: served %d, offline %d", i, servedB[i], offlineB[i])
		}
	}

	// Final active probabilities must agree to the bit, not to a tolerance.
	wantA := offlineSessA.Info().Active
	wantB := offlineSessB.Info().Active
	for i := range wantA {
		if math.Float64bits(finalA[i]) != math.Float64bits(wantA[i]) {
			t.Fatalf("session A active[%d]: served %x, offline %x", i, math.Float64bits(finalA[i]), math.Float64bits(wantA[i]))
		}
	}
	for i := range wantB {
		if math.Float64bits(finalB[i]) != math.Float64bits(wantB[i]) {
			t.Fatalf("session B active[%d]: served %x, offline %x", i, math.Float64bits(finalB[i]), math.Float64bits(wantB[i]))
		}
	}

	// The error rates seen by the server must be plausible for Stagger —
	// a sanity tie to Table II, not a tight bound.
	if res.ErrorRate() > 0.2 {
		t.Fatalf("replay error rate %.3f implausibly high for Stagger", res.ErrorRate())
	}
}

// TestE2EStateEndpointMatchesSnapshot drives a session, then checks the
// /state endpoint returns exactly the predictor snapshot an offline twin
// produces.
func TestE2EStateEndpointMatchesSnapshot(t *testing.T) {
	m := buildStaggerModel(t)
	s := New(m, Options{Workers: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL, nil)

	recs := takeRecords(7, 80)
	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	vectors, classes := toWire(recs)
	if _, err := c.Observe(created.ID, vectors, classes); err != nil {
		t.Fatal(err)
	}
	var st core.PredictorState
	if err := c.do("GET", "/v1/sessions/"+created.ID+"/state", nil, &st); err != nil {
		t.Fatal(err)
	}

	twin := m.NewPredictor()
	for _, r := range recs {
		twin.Observe(r)
	}
	want := twin.Snapshot()
	if st.Observed != want.Observed || len(st.Explained) != len(want.Explained) {
		t.Fatalf("state = %d observed / %d window, want %d / %d", st.Observed, len(st.Explained), want.Observed, len(want.Explained))
	}
	for i := range want.Active {
		if math.Float64bits(st.Active[i]) != math.Float64bits(want.Active[i]) {
			t.Fatalf("active[%d] differs from offline twin", i)
		}
	}
	// A fresh predictor restored from the served state must continue
	// bit-identically with the twin.
	restored := m.NewPredictor()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	cont := takeRecords(8, 40)
	for i, r := range cont {
		x := data.Record{Values: r.Values}
		if restored.Predict(x) != twin.Predict(x) {
			t.Fatalf("step %d: restored-from-wire predictor diverged", i)
		}
		restored.Observe(r)
		twin.Observe(r)
	}
}
