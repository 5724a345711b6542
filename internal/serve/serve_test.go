package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highorder/internal/classifier"
	"highorder/internal/clock"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
)

// testModel hand-builds a two-concept model over the Stagger schema, cheap
// enough for unit tests that exercise serving mechanics, not learning.
func testModel() *core.Model {
	return &core.Model{
		Schema: &data.Schema{
			Attributes: []data.Attribute{
				{Name: "color", Kind: data.Nominal, Values: []string{"green", "blue", "red"}},
				{Name: "shape", Kind: data.Nominal, Values: []string{"triangle", "circle", "rectangle"}},
				{Name: "size", Kind: data.Nominal, Values: []string{"small", "medium", "large"}},
			},
			Classes: []string{"neg", "pos"},
		},
		Concepts: []core.Concept{
			{Model: classifier.NewMajority(0, []float64{0.8, 0.2}), Err: 0.2, Len: 100, Freq: 0.5, Size: 100},
			{Model: classifier.NewMajority(1, []float64{0.3, 0.7}), Err: 0.3, Len: 100, Freq: 0.5, Size: 100},
		},
		Chi: [][]float64{{0.95, 0.05}, {0.05, 0.95}},
	}
}

func TestSessionTableTTLEviction(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	tab := New(testModel(), Options{SessionTTL: time.Minute, MaxSessions: 10, Clock: fake.Clock()}).table

	s1, err := tab.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	fake.Advance(30 * time.Second)
	if _, ok := tab.get(s1.ID()); !ok {
		t.Fatal("session evicted before TTL")
	}
	// The get refreshed the TTL; another 50s keeps it alive (80s after
	// creation, 50s after last use).
	fake.Advance(50 * time.Second)
	if _, ok := tab.get(s1.ID()); !ok {
		t.Fatal("session evicted though accessed within TTL")
	}
	fake.Advance(61 * time.Second)
	if _, ok := tab.get(s1.ID()); ok {
		t.Fatal("session survived past its TTL")
	}
	if tab.live() != 0 {
		t.Fatalf("live = %d after eviction", tab.live())
	}
	if tab.evictedCount() != 1 {
		t.Fatalf("evicted = %d, want 1", tab.evictedCount())
	}
}

func TestSessionTableSweepFreesCapacity(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	tab := New(testModel(), Options{SessionTTL: time.Minute, MaxSessions: 2, Clock: fake.Clock()}).table
	for i := 0; i < 2; i++ {
		if _, err := tab.create(core.PredictorOptions{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.create(core.PredictorOptions{}, ""); err == nil {
		t.Fatal("create above the session limit succeeded")
	}
	// Once the old sessions expire, create must succeed again without an
	// explicit sweep call.
	fake.Advance(2 * time.Minute)
	if _, err := tab.create(core.PredictorOptions{}, ""); err != nil {
		t.Fatalf("create after TTL expiry: %v", err)
	}
}

// TestCreateBelowLimitSpillsNothing: below the session limit a create
// leaves expiry to the janitor instead of walking every hot session, so
// populating n sessions costs O(n), not O(n²). Expired sessions stay
// live until a sweep or a create at the limit spills them.
func TestCreateBelowLimitSpillsNothing(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	tab := New(testModel(), Options{SessionTTL: time.Minute, MaxSessions: 2000, Clock: fake.Clock()}).table
	for i := 0; i < 1000; i++ {
		if _, err := tab.create(core.PredictorOptions{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	fake.Advance(2 * time.Minute)
	if _, err := tab.create(core.PredictorOptions{}, ""); err != nil {
		t.Fatal(err)
	}
	if n := tab.evictedCount(); n != 0 {
		t.Fatalf("a create below the limit spilled %d expired sessions, want 0", n)
	}
	if n := tab.live(); n != 1001 {
		t.Fatalf("live = %d, want 1001", n)
	}
}

func TestSessionIDsAreSequential(t *testing.T) {
	tab := New(testModel(), Options{SessionTTL: time.Hour, MaxSessions: 10}).table
	a, _ := tab.create(core.PredictorOptions{}, "")
	b, _ := tab.create(core.PredictorOptions{}, "")
	if a.ID() != "s1" || b.ID() != "s2" {
		t.Fatalf("ids = %q, %q; want s1, s2", a.ID(), b.ID())
	}
}

// TestSessionsRunCompiled: every served session evaluates its concepts
// from the server's compiled tables — testModel's Majority concepts
// included — because a model the compiler rejects never boots.
func TestSessionsRunCompiled(t *testing.T) {
	s := New(testModel(), Options{})
	sess, err := s.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cm, ok := sess.p.Concepts().(*compiled.Model); !ok || cm != s.table.model {
		t.Fatalf("session predictor evaluates concepts with %T, want the server's *compiled.Model", sess.p.Concepts())
	}
}

// TestUncompilableModelRefused: a model with a classifier the compiler
// does not understand is refused at boot, with an error naming the
// concept, instead of being served some other way.
func TestUncompilableModelRefused(t *testing.T) {
	m := testModel()
	m.Concepts[1].Model = opaqueClassifier{}
	_, err := NewTiered(m, Options{})
	if err == nil || !strings.Contains(err.Error(), "concept 1") {
		t.Fatalf("NewTiered error = %v, want one naming concept 1", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New served an uncompilable model")
		}
	}()
	New(m, Options{})
}

type opaqueClassifier struct{}

func (opaqueClassifier) Predict(data.Record) int            { return 0 }
func (opaqueClassifier) PredictProba(data.Record) []float64 { return []float64{1, 0} }

// TestMemoryOnlyReusesClosedSlots pins the memory-only store's bound: with
// MaxSessions 3, closing sessions frees their slots for later creates
// without discarding a live one, and a create beyond the bound answers
// 429 without discarding anything either.
func TestMemoryOnlyReusesClosedSlots(t *testing.T) {
	s := New(testModel(), Options{MaxSessions: 3})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	create := func() string {
		t.Helper()
		created, err := c.CreateSession(CreateSessionRequest{})
		if err != nil {
			t.Fatal(err)
		}
		return created.ID
	}
	a, b := create(), create()
	records, classes := tierWire(9)
	for _, id := range []string{a, b} {
		if _, err := c.Observe(id, records, classes); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := c.CloseSession(create()); err != nil {
			t.Fatal(err)
		}
	}
	e := create()
	want := twinState(t, s.model, records, classes)
	for _, id := range []string{a, b} {
		sess, ok := s.table.get(id)
		if !ok {
			t.Fatalf("live session %s discarded to make room for %s", id, e)
		}
		requireBitIdentical(t, sess.State(), want)
	}
	_, err := c.CreateSession(CreateSessionRequest{})
	if he, ok := err.(*HTTPError); !ok || he.Status != http.StatusTooManyRequests {
		t.Fatalf("create above MaxSessions: want 429, got %v", err)
	}
	for _, id := range []string{a, b, e} {
		if _, ok := s.table.get(id); !ok {
			t.Fatalf("refused create discarded live session %s", id)
		}
	}
}

// holdSlots takes every execution slot, so admitted tasks wait for one as
// they would behind busy handlers, and returns the function that releases
// them.
func holdSlots(s *Server) (release func()) {
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
	}
}

// awaitWaiting polls until exactly n admitted tasks wait for a slot.
func awaitWaiting(t *testing.T, s *Server, n int64) {
	t.Helper()
	for i := 0; s.waiting.Load() != n; i++ {
		if i > 5000 {
			t.Fatalf("%d tasks waiting for a slot, want %d", s.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueObserves submits n one-record observes for sess, each on its own
// goroutine as n handlers would, and returns the channel their status
// codes arrive on.
func queueObserves(s *Server, sess *Session, n int) <-chan int {
	codes := make(chan int, n)
	rec := data.Record{Values: []float64{0, 0, 0}, Class: 1}
	for i := 0; i < n; i++ {
		go func() {
			_, code, _ := s.submit(&task{kind: taskObserve, sess: sess, recs: []data.Record{rec}})
			codes <- code
		}()
	}
	return codes
}

// TestBackpressure takes every execution slot, lets QueueDepth tasks wait
// for one, and checks the HTTP surface answers the next request 429 with
// a Retry-After hint.
func TestBackpressure(t *testing.T) {
	s := New(testModel(), Options{QueueDepth: 2, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := s.table.get(created.ID)
	release := holdSlots(s)
	codes := queueObserves(s, sess, 2)
	awaitWaiting(t, s, 2)
	_, err = c.Classify(created.ID, [][]float64{{0, 0, 0}}, false)
	he, ok := err.(*HTTPError)
	if !ok || he.Status != http.StatusTooManyRequests {
		t.Fatalf("want 429 HTTPError, got %v", err)
	}
	if !he.Retryable() || he.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After hint = %v, want 3s", he.RetryAfter)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := MetricValue(text, "homserve_rejected_total"); !ok || v != 1 {
		t.Fatalf("homserve_rejected_total = %v,%v; want 1", v, ok)
	}
	if v, ok := MetricValue(text, "homserve_queue_depth"); !ok || v != 2 {
		t.Fatalf("homserve_queue_depth = %v,%v; want 2", v, ok)
	}
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("waiting task %d answered %d once a slot freed, want 200", i, code)
		}
	}
}

// TestWorkersBoundConcurrentTasks: Workers bounds how many tasks execute
// at once. Five sessions observe concurrently over two slots, and each
// observe blocks inside its session's sink until released: two run, three
// wait for a slot, and no more than two ever run together. The waiting
// count is read directly — a /metrics scrape would block on the held
// session locks, because the per-session collectors lock every session.
func TestWorkersBoundConcurrentTasks(t *testing.T) {
	s := New(testModel(), Options{Workers: 2})
	const sessions = 5
	var running, peak atomic.Int64
	entered := make(chan struct{}, sessions)
	unblock := make(chan struct{})
	var codes []<-chan int
	for i := 0; i < sessions; i++ {
		sess, err := s.table.create(core.PredictorOptions{}, "")
		if err != nil {
			t.Fatal(err)
		}
		sess.setSink(obs.FuncSink(func(obs.PredictorEvent) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			entered <- struct{}{}
			<-unblock
			running.Add(-1)
		}))
		codes = append(codes, queueObserves(s, sess, 1))
	}
	<-entered
	<-entered
	awaitWaiting(t, s, sessions-2)
	if n := running.Load(); n != 2 {
		t.Fatalf("%d observes running with Workers 2", n)
	}
	close(unblock)
	for i, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Fatalf("session %d observe answered %d, want 200", i, code)
		}
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak concurrent observes = %d, want 2", p)
	}
}

// TestServerLifecycle drives concurrent classify/observe traffic through a
// running server, closes it, and checks every request completed and the
// metrics add up — no dropped-but-unreported work.
func TestServerLifecycle(t *testing.T) {
	s := New(testModel(), Options{QueueDepth: 64, Workers: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL, nil)

	const sessions = 4
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			created, err := c.CreateSession(CreateSessionRequest{})
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				recs := [][]float64{{0, 1, 2}, {2, 0, 0}}
				if _, err := c.Classify(created.ID, recs, r%2 == 0); err != nil {
					errs <- err
					return
				}
				if _, err := c.Observe(created.ID, recs, []int{0, 1}); err != nil {
					errs <- err
					return
				}
			}
			info, err := c.Info(created.ID)
			if err != nil {
				errs <- err
				return
			}
			if info.Observed != rounds*2 {
				t.Errorf("session %s observed %d, want %d", created.ID, info.Observed, rounds*2)
			}
			if err := c.CloseSession(created.ID); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := MetricValue(text, "homserve_observed_records_total"); v != sessions*rounds*2 {
		t.Fatalf("observed_records_total = %v, want %d", v, sessions*rounds*2)
	}
	if v, _ := MetricValue(text, "homserve_sessions_live"); v != 0 {
		t.Fatalf("sessions_live = %v after closing all sessions", v)
	}
	if v, _ := MetricValue(text, "homserve_sessions_created_total"); v != sessions {
		t.Fatalf("sessions_created_total = %v, want %d", v, sessions)
	}
	if !strings.Contains(text, "homserve_request_seconds_bucket{endpoint=\"classify\",le=\"+Inf\"}") {
		t.Fatal("latency histogram for classify missing from /metrics")
	}
	if !strings.Contains(text, "homserve_concept_predictions_total{concept=\"0\"}") {
		t.Fatal("per-concept prediction counts missing from /metrics")
	}

	ts.Close()
	s.Close()
	// After Close the admission guard refuses work with 503.
	if _, code, err := s.submit(&task{}); err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: code=%d err=%v, want 503", code, err)
	}
}

// TestIntrospectionFamiliesOverHTTP checks the hom_* families end to end:
// a live session exposes its active-probability vector and switch counter
// on /metrics, and closing the session retires its series.
func TestIntrospectionFamiliesOverHTTP(t *testing.T) {
	s := New(testModel(), Options{})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(created.ID, [][]float64{{0, 1, 2}, {2, 0, 0}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	probLine := "hom_active_prob{session=\"" + created.ID + "\",concept=\"0\"}"
	if !strings.Contains(text, probLine) {
		t.Fatalf("/metrics missing %s:\n%s", probLine, text)
	}
	switchLine := "hom_concept_switches_total{session=\"" + created.ID + "\"}"
	if !strings.Contains(text, switchLine) {
		t.Fatalf("/metrics missing %s:\n%s", switchLine, text)
	}

	if err := c.CloseSession(created.ID); err != nil {
		t.Fatal(err)
	}
	text, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "session=\""+created.ID+"\"") {
		t.Fatalf("/metrics still exposes closed session %s:\n%s", created.ID, text)
	}
	if !strings.Contains(text, "# TYPE hom_active_prob gauge") {
		t.Fatal("hom_active_prob family header missing after session close")
	}
}

// TestSessionExpiryOverHTTP checks lazy TTL eviction through the API: a
// fake clock advances past the TTL and the session answers 404.
func TestSessionExpiryOverHTTP(t *testing.T) {
	fake := clock.NewFake(time.Unix(5000, 0))
	s := New(testModel(), Options{SessionTTL: time.Minute, Clock: fake.Clock()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info(created.ID); err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	fake.Advance(2 * time.Minute)
	_, err = c.Info(created.ID)
	he, ok := err.(*HTTPError)
	if !ok || he.Status != http.StatusNotFound {
		t.Fatalf("want 404 for expired session, got %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := New(testModel(), Options{})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"wrong attribute count", func() error { _, err := c.Classify(created.ID, [][]float64{{1}}, false); return err }},
		{"nominal out of range", func() error { _, err := c.Classify(created.ID, [][]float64{{0, 0, 9}}, false); return err }},
		{"non-integral nominal", func() error { _, err := c.Classify(created.ID, [][]float64{{0, 0, 0.5}}, false); return err }},
		{"empty batch", func() error { _, err := c.Classify(created.ID, nil, false); return err }},
		{"class out of range", func() error { _, err := c.Observe(created.ID, [][]float64{{0, 0, 0}}, []int{7}); return err }},
		{"classes not parallel", func() error { _, err := c.Observe(created.ID, [][]float64{{0, 0, 0}}, []int{0, 1}); return err }},
	}
	for _, tc := range cases {
		err := tc.call()
		he, ok := err.(*HTTPError)
		if !ok || he.Status != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %v", tc.name, err)
		}
	}
	// Unknown session is 404, not 400.
	if _, err := c.Classify("nope", [][]float64{{0, 0, 0}}, false); err == nil || err.(*HTTPError).Status != http.StatusNotFound {
		t.Errorf("unknown session: want 404, got %v", err)
	}
}
