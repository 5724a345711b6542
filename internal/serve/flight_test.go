package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/fault"
	"highorder/internal/obs"
)

// traceOf extracts the 16-hex trace id from a context, matching the
// FlightSpanRecord.Trace rendering.
func traceOf(tc obs.TraceContext) string { return tc.HeaderValue()[:16] }

// TestFlightDeadlineExpiryDump: a request whose deadline lapses while it
// waits for a slot triggers an automatic flight dump that contains the
// offending request's spans — the deadline-expiry marker on the request's
// own trace.
func TestFlightDeadlineExpiryDump(t *testing.T) {
	epoch := time.Unix(9000, 0)
	var offset atomic.Int64
	clk := clock.Clock(func() time.Time { return epoch.Add(time.Duration(offset.Load())) })
	rec := obs.NewRecorder(obs.FlightConfig{Proc: "r1", Seed: 4, Slots: 64, Clock: clk})
	s := New(testModel(), Options{Workers: 1, RequestTimeout: 50 * time.Millisecond, Clock: clk, Recorder: rec})
	s.Start()
	defer s.Close()
	sess, err := s.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}

	tc := rec.ForceTrace() // the doomed request's trace context
	recd := data.Record{Values: []float64{0, 0, 0}, Class: 1}
	done := make(chan error, 1)
	release := holdSlots(s)
	go func() {
		_, _, err := s.submit(&task{kind: taskObserve, sess: sess, recs: []data.Record{recd}, tc: tc})
		done <- err
	}()
	awaitWaiting(t, s, 1)
	offset.Store(int64(time.Second))
	release()
	if err := <-done; err == nil {
		t.Fatal("expired task did not error")
	}

	d := rec.LastTriggered()
	if d == nil || d.Reason != "deadline_expired" {
		t.Fatalf("LastTriggered = %+v, want a deadline_expired dump", d)
	}
	found := false
	for _, sp := range d.Spans {
		if sp.Name == "serve.deadline_expired" && sp.Trace == traceOf(tc) {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lacks the offending request's deadline span: %+v", d.Spans)
	}
}

// TestFlightServerAdoptsInboundTrace: a classify request carrying an
// X-Hom-Trace header records its serve.classify span under the caller's
// trace id, retrievable via POST /admin/flightdump.
func TestFlightServerAdoptsInboundTrace(t *testing.T) {
	rec := obs.NewRecorder(obs.FlightConfig{Proc: "r1", Seed: 8, Slots: 64})
	s := New(testModel(), Options{Workers: 1, Recorder: rec})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{ID: "sess-a"})
	if err != nil {
		t.Fatal(err)
	}
	head := obs.TraceContext{TraceID: 0xabc123, SpanID: 0x77, Sampled: true}
	body, _ := json.Marshal(ClassifyRequest{Records: [][]float64{{0, 0, 0}}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/classify", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, head.HeaderValue())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}

	dresp, err := http.Post(ts.URL+"/admin/flightdump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dresp.Body.Close() }()
	var d obs.FlightDump
	if err := json.NewDecoder(dresp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	for _, sp := range d.Spans {
		if sp.Name == "serve.classify" && sp.Trace == traceOf(head) && sp.Parent == "0000000000000077" && sp.Session == "sess-a" {
			return
		}
	}
	t.Fatalf("no serve.classify span under the inbound trace in %+v", d.Spans)
}

// TestFlightFaultTriggersDump: a seeded fault firing requests an
// automatic dump tagged with the fired point's name.
func TestFlightFaultTriggersDump(t *testing.T) {
	rec := obs.NewRecorder(obs.FlightConfig{Proc: "r1", Seed: 2, Slots: 64})
	inj := fault.New(1, fault.Plan{fault.QueueOverflow: {Prob: 1}})
	s := New(testModel(), Options{Workers: 1, Recorder: rec, Fault: inj})
	sess, err := s.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	_, code, err := s.submit(&task{kind: taskClassify, sess: sess, recs: []data.Record{{Values: []float64{0, 0, 0}}}})
	if err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("injected overflow: code=%d err=%v, want 429", code, err)
	}
	d := rec.LastTriggered()
	if d == nil || d.Reason != "fault_queue_overflow" {
		t.Fatalf("LastTriggered = %+v, want fault_queue_overflow", d)
	}
}
