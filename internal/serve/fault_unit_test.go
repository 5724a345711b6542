package serve

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/fault"
)

// TestLoadShed503 takes every execution slot and lets ShedDepth tasks
// wait for one, then checks the HTTP surface answers 503 with a
// Retry-After hint — the proactive shed path, distinct from the 429
// answered when QueueDepth tasks are already waiting.
func TestLoadShed503(t *testing.T) {
	s := New(testModel(), Options{QueueDepth: 8, ShedDepth: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := s.table.get(created.ID)
	release := holdSlots(s)
	codes := queueObserves(s, sess, 1)
	awaitWaiting(t, s, 1)

	_, err = c.Classify(created.ID, [][]float64{{0, 0, 0}}, false)
	he, ok := err.(*HTTPError)
	if !ok || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 HTTPError from shed, got %v", err)
	}
	if !he.Retryable() || he.RetryAfter != 2*time.Second {
		t.Fatalf("503 retry hint = %v retryable=%v, want 2s retryable", he.RetryAfter, he.Retryable())
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := MetricValue(text, "hom_shed_total"); !ok || v != 1 {
		t.Fatalf("hom_shed_total = %v,%v; want 1", v, ok)
	}
	// The shed answer must be distinct from the 429 reject counter.
	if v, ok := MetricValue(text, "homserve_rejected_total"); !ok || v != 0 {
		t.Fatalf("homserve_rejected_total = %v,%v; want 0", v, ok)
	}
	release()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("waiting task answered %d once a slot freed, want 200", code)
	}
}

// TestDeadlineExpiry admits a task while every slot is held, advances a
// fake clock past the request timeout before the task runs, and checks
// the task is answered 503 without the predictor being touched — the
// retry-safety guarantee.
func TestDeadlineExpiry(t *testing.T) {
	// clock.Fake is not concurrency-safe and the submitting goroutine
	// reads the clock while this test advances it, so use an atomic
	// offset from a fixed epoch instead.
	epoch := time.Unix(9000, 0)
	var offset atomic.Int64
	clk := clock.Clock(func() time.Time { return epoch.Add(time.Duration(offset.Load())) })
	s := New(testModel(), Options{Workers: 1, RequestTimeout: 50 * time.Millisecond, Clock: clk})
	s.Start()
	defer s.Close()
	sess, err := s.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}

	rec := data.Record{Values: []float64{0, 0, 0}, Class: 1}
	type outcome struct {
		code int
		err  error
	}
	done := make(chan outcome, 1)
	release := holdSlots(s)
	go func() {
		_, code, err := s.submit(&task{kind: taskObserve, sess: sess, recs: []data.Record{rec}})
		done <- outcome{code, err}
	}()

	// Wait until the task waits for a slot, then let its deadline lapse
	// and free the slot.
	awaitWaiting(t, s, 1)
	offset.Store(int64(time.Second))
	release()

	out := <-done
	if out.code != http.StatusServiceUnavailable || out.err == nil {
		t.Fatalf("expired task: code=%d err=%v, want 503", out.code, out.err)
	}
	if got := sess.Info().Observed; got != 0 {
		t.Fatalf("expired observe touched the predictor: observed=%d", got)
	}
	text := metricsText(s)
	if v, ok := MetricValue(text, "hom_deadline_expired_total"); !ok || v != 1 {
		t.Fatalf("hom_deadline_expired_total = %v,%v; want 1", v, ok)
	}
}

// metricsText renders the server's exposition without an HTTP round trip.
func metricsText(s *Server) string {
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestDegradedModeClears: a lossy observe batch marks the session
// degraded; a fully applied batch clears the flag again.
func TestDegradedModeClears(t *testing.T) {
	m := testModel()
	sess := NewLocalSession(m.NewPredictor())
	recs := []data.Record{
		{Values: []float64{0, 0, 0}, Class: 0},
		{Values: []float64{1, 1, 1}, Class: 1},
	}

	lossy := fault.New(1, fault.Plan{fault.LabelLoss: {Prob: 1}})
	sess.mu.Lock()
	res := sess.observeLocked(recs, lossy)
	sess.mu.Unlock()
	if res.Applied != 0 || !res.Degraded || !sess.Degraded() {
		t.Fatalf("total loss: applied=%d degraded=%v/%v", res.Applied, res.Degraded, sess.Degraded())
	}
	if len(res.Dropped) != 2 || res.Dropped[0] != 0 || res.Dropped[1] != 1 {
		t.Fatalf("dropped = %v, want [0 1]", res.Dropped)
	}

	res = sess.Observe(recs)
	if res.Applied != 2 || res.Degraded || sess.Degraded() {
		t.Fatalf("clean batch: applied=%d degraded=%v/%v, want 2 false false", res.Applied, res.Degraded, sess.Degraded())
	}
	if sess.Info().Degraded {
		t.Fatal("info still reports degraded after a fully applied batch")
	}
}

// TestQueueOverflowInjection: the QueueOverflow point forces the 429 path
// with free execution slots and nothing waiting.
func TestQueueOverflowInjection(t *testing.T) {
	inj := fault.New(5, fault.Plan{fault.QueueOverflow: {Prob: 1}})
	s := New(testModel(), Options{Workers: 1, Fault: inj})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Classify(created.ID, [][]float64{{0, 0, 0}}, false)
	he, ok := err.(*HTTPError)
	if !ok || he.Status != http.StatusTooManyRequests {
		t.Fatalf("want injected 429, got %v", err)
	}
	text := metricsText(s)
	if v, ok := MetricValue(text, `hom_fault_fired{point="queue_overflow"}`); !ok {
		t.Fatalf("hom_fault_fired series missing:\n%s", text)
	} else if v < 1 {
		t.Fatalf("hom_fault_fired{queue_overflow} = %v, want >= 1", v)
	}
}

// TestRequestDropTerminates: a dropped request surfaces as a transport
// error, and because the drop fires before the handler, the session state
// is untouched (retry-safe).
func TestRequestDropTerminates(t *testing.T) {
	inj := fault.New(2, fault.Plan{fault.RequestDrop: {Prob: 1}})
	s := New(testModel(), Options{Workers: 1, Fault: inj})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	_, err := c.CreateSession(CreateSessionRequest{})
	if err == nil {
		t.Fatal("dropped request returned a response")
	}
	if _, ok := err.(*HTTPError); ok {
		t.Fatalf("drop produced an HTTP status (%v), want a transport error", err)
	}
	if s.table.live() != 0 {
		t.Fatalf("dropped create still made a session (live=%d)", s.table.live())
	}
	if inj.Fired(fault.RequestDrop) == 0 {
		t.Fatal("request_drop never fired")
	}
}
