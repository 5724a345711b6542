// The seeded chaos suite: client-vs-server conversations under randomized
// but fully deterministic fault schedules. It asserts the three serving
// invariants the fault layer exists to prove:
//
//	(a) no deadlock or goroutine leak under -race — every run drains the
//	    server and checks the goroutine count returns to baseline;
//	(b) every faulted request terminates, either in a served answer or in
//	    a typed error (*serve.HTTPError, *serve.RetryExhaustedError, or a
//	    transport error from an injected connection drop);
//	(c) the e2e equivalence theorem survives lossy transports: replaying
//	    exactly the records the server acknowledged through an offline
//	    local session reproduces every served prediction and the final
//	    active-probability vector bit for bit.
//
// The test lives in package fault_test because internal/serve imports
// internal/fault.
package fault_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
	"highorder/internal/fault"
	"highorder/internal/rng"
	"highorder/internal/serve"
	"highorder/internal/synth"
)

var (
	chaosModelOnce sync.Once
	chaosModelVal  *core.Model
	chaosModelErr  error
)

// chaosModel builds one real Stagger high-order model, shared across the
// chaos subtests (the offline build is the expensive part, and the model
// is immutable by the serving contract).
func chaosModel(t *testing.T) *core.Model {
	t.Helper()
	chaosModelOnce.Do(func() {
		g := synth.NewStagger(synth.StaggerConfig{Seed: 1})
		hist := synth.TakeDataset(g, 3000)
		opts := core.DefaultOptions()
		opts.Seed = 1
		chaosModelVal, chaosModelErr = core.Build(hist, opts)
	})
	if chaosModelErr != nil {
		t.Fatal(chaosModelErr)
	}
	return chaosModelVal
}

// takeRecords drains n labeled records from a fresh Stagger stream.
func takeRecords(seed int64, n int) []data.Record {
	g := synth.NewStagger(synth.StaggerConfig{Seed: seed})
	return synth.TakeDataset(g, n).Records
}

// sessionLog records one session's conversation as the client saw it: per
// op, the batch sent, the predictions served, and — for observes — which
// records the server acknowledged as applied. This is exactly the
// information a client needs to reconstruct the server's predictor state
// offline.
type sessionLog struct {
	ops   []chaosOp
	final []float64 // final active-probability vector; nil if unavailable
}

type chaosOp struct {
	recs    []data.Record
	preds   []int // classify answer; nil for an op whose classify failed
	applied []data.Record
}

// typedError reports whether err is one of the sanctioned terminal error
// shapes of a faulted conversation.
func typedError(err error) bool {
	var he *serve.HTTPError
	var re *serve.RetryExhaustedError
	// Anything else (url.Error wrapping a dropped connection) is a
	// transport error, which RetryTransport handles; it only escapes the
	// retry loop wrapped in RetryExhaustedError.
	return errors.As(err, &he) || errors.As(err, &re)
}

// runChaosConversations drives concurrent sessions against a faulted
// server and verifies invariants (a)–(c). withSkew additionally runs the
// server on a skewed clock with a tight request deadline, so deadline
// expiries join the fault mix.
func runChaosConversations(t *testing.T, seed int64, withSkew bool) {
	m := chaosModel(t)
	baseline := runtime.NumGoroutine()

	plan := fault.Plan{
		fault.RequestDrop:   {Prob: 0.04},
		fault.ResponseDelay: {Prob: 0.05, Delay: 2 * time.Millisecond},
		fault.QueueOverflow: {Prob: 0.05},
		fault.LabelLoss:     {Prob: 0.08},
		fault.LabelDelay:    {Prob: 0.04, Delay: time.Millisecond},
	}
	if withSkew {
		plan[fault.ClockSkew] = fault.Rule{Prob: 0.2, Skew: 100 * time.Millisecond}
	}
	inj := fault.New(seed, plan)

	opts := serve.Options{
		QueueDepth: 32, Workers: 4,
		Fault: inj,
	}
	if withSkew {
		// A tight deadline under a skewed clock makes queued tasks expire:
		// the 503 deadline path joins the chaos mix while staying
		// retry-safe (expired tasks never touch the predictor).
		opts.Clock = inj.WrapClock(nil)
		opts.RequestTimeout = 20 * time.Millisecond
	}
	srv := serve.New(m, opts)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	const perSession = 150
	batchSizes := []int{1, 3, 7}
	logs := make([]sessionLog, len(batchSizes))
	var wg sync.WaitGroup
	errCh := make(chan error, len(batchSizes))
	for si, bs := range batchSizes {
		wg.Add(1)
		go func(si, bs int) {
			defer wg.Done()
			// Each goroutine gets its own client: RetryPolicy with a
			// non-nil Rng is not safe for concurrent use.
			c := serve.NewClient(ts.URL, ts.Client()).WithRetry(serve.RetryPolicy{
				MaxRetries:     12,
				BaseBackoff:    time.Millisecond,
				MaxBackoff:     5 * time.Millisecond,
				Jitter:         0.5,
				RetryTransport: true,
				Rng:            rng.New(seed + int64(si)),
			})
			recs := takeRecords(200+int64(si), perSession)
			created, err := c.CreateSession(serve.CreateSessionRequest{})
			if err != nil {
				errCh <- fmt.Errorf("session %d: create: %w", si, err)
				return
			}
			lg := &logs[si]
			for i := 0; i < len(recs); i += bs {
				end := min(i+bs, len(recs))
				batch := recs[i:end]
				vectors := make([][]float64, len(batch))
				classes := make([]int, len(batch))
				for j, r := range batch {
					vectors[j] = r.Values
					classes[j] = r.Class
				}
				op := chaosOp{recs: batch}

				cres, err := c.Classify(created.ID, vectors, false)
				switch {
				case err == nil:
					op.preds = cres.Predictions
				case typedError(err):
					// Retries exhausted: the request terminated in a typed
					// error and — because every refusal fires before
					// predictor work — provably had no effect.
				default:
					errCh <- fmt.Errorf("session %d op %d: classify: untyped error %w", si, i, err)
					return
				}

				ores, err := c.Observe(created.ID, vectors, classes)
				switch {
				case err == nil:
					dropped := make(map[int]bool, len(ores.Dropped))
					for _, d := range ores.Dropped {
						dropped[d] = true
					}
					if want := len(batch) - len(ores.Dropped); ores.Applied != want {
						errCh <- fmt.Errorf("session %d op %d: applied %d but %d dropped of %d", si, i, ores.Applied, len(ores.Dropped), len(batch))
						return
					}
					for j, r := range batch {
						if !dropped[j] {
							op.applied = append(op.applied, r)
						}
					}
				case typedError(err):
					// The whole batch provably never reached the predictor.
				default:
					errCh <- fmt.Errorf("session %d op %d: observe: untyped error %w", si, i, err)
					return
				}
				lg.ops = append(lg.ops, op)
			}
			if info, err := c.Info(created.ID); err == nil {
				lg.final = info.Active
			} else if !typedError(err) {
				errCh <- fmt.Errorf("session %d: info: untyped error %w", si, err)
			}
		}(si, bs)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		ts.Close()
		srv.Close()
		t.FailNow()
	}

	// The plan must actually have bitten; otherwise the suite is testing
	// the happy path with extra steps.
	for _, p := range []fault.Point{fault.RequestDrop, fault.QueueOverflow, fault.LabelLoss} {
		if inj.Fired(p) == 0 {
			t.Errorf("fault point %v never fired over the whole run", p)
		}
	}

	// (c) Equivalence under lossy transport: replay each session's
	// acknowledged records through an offline local session and demand
	// bit-identical served predictions and final active probabilities.
	for si := range logs {
		local := serve.NewLocalSession(m.NewPredictor())
		for oi, op := range logs[si].ops {
			if op.preds != nil {
				want := local.Classify(op.recs, false).Predictions
				for j := range want {
					if op.preds[j] != want[j] {
						t.Fatalf("session %d op %d record %d: served %d, offline replay %d", si, oi, j, op.preds[j], want[j])
					}
				}
			}
			if len(op.applied) > 0 {
				local.Observe(op.applied)
			}
		}
		if logs[si].final != nil {
			want := local.Info().Active
			for j := range want {
				if math.Float64bits(logs[si].final[j]) != math.Float64bits(want[j]) {
					t.Fatalf("session %d active[%d]: served %x, offline %x", si, j, math.Float64bits(logs[si].final[j]), math.Float64bits(want[j]))
				}
			}
		}
	}

	// (a) Clean drain: close everything and require the goroutine count
	// to settle back to baseline (small tolerance for runtime helpers).
	ts.Close()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second) //homlint:allow determinism -- bounded test-only leak-check wait, not product logic
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) { //homlint:allow determinism -- see above
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosConversations is the headline suite. Same seed ⇒ same fault
// schedule ⇒ same outcome; verify.sh runs the whole test binary under
// -race.
func TestChaosConversations(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos conversations need a real model build")
	}
	for _, seed := range []int64{1, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosConversations(t, seed, false)
		})
	}
	t.Run("seed=1/skewed-clock-deadlines", func(t *testing.T) {
		runChaosConversations(t, 1, true)
	})
}

// TestChaosModelCorruption feeds a trained model's gob bytes through the
// ModelCorrupt point at many seeds: loading must never panic, must be
// deterministic per seed, and must reject at least some corrupted streams
// with a typed error.
func TestChaosModelCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("model corruption chaos needs a real model build")
	}
	m := chaosModel(t)
	var buf bytes.Buffer
	if err := dataio.WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	load := func(seed int64) error {
		inj := fault.New(seed, fault.Plan{fault.ModelCorrupt: {Prob: 1}})
		_, err := dataio.ReadModelFaulted(bytes.NewReader(raw), nil, inj)
		return err
	}
	sawError := false
	for seed := int64(0); seed < 20; seed++ {
		a, b := load(seed), load(seed)
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("seed %d: corruption outcome not deterministic: %v vs %v", seed, a, b)
		}
		if a != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("20 seeds of every-read corruption never produced a load error")
	}

	// The disabled point must leave loading untouched.
	clean, err := dataio.ReadModelFaulted(bytes.NewReader(raw), nil, fault.New(1, fault.Plan{}))
	if err != nil {
		t.Fatalf("nil-plan injector broke a clean load: %v", err)
	}
	if clean.NumConcepts() != m.NumConcepts() {
		t.Fatalf("clean faulted load has %d concepts, want %d", clean.NumConcepts(), m.NumConcepts())
	}
}

// TestChaosLabelLossDegradedMode checks degraded-mode semantics end to
// end with a surgical plan: only label loss, at certainty. Every label is
// dropped, the predictor never moves off its prior, and the session
// reports itself degraded over HTTP and /metrics.
func TestChaosLabelLossDegradedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a real model build")
	}
	m := chaosModel(t)
	inj := fault.New(3, fault.Plan{fault.LabelLoss: {Prob: 1}})
	srv := serve.New(m, serve.Options{Workers: 2, Fault: inj})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := serve.NewClient(ts.URL, nil)

	created, err := c.CreateSession(serve.CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	recs := takeRecords(300, 10)
	vectors := make([][]float64, len(recs))
	classes := make([]int, len(recs))
	for i, r := range recs {
		vectors[i] = r.Values
		classes[i] = r.Class
	}
	ores, err := c.Observe(created.ID, vectors, classes)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Applied != 0 || len(ores.Dropped) != len(recs) || !ores.Degraded {
		t.Fatalf("total label loss: applied=%d dropped=%d degraded=%v", ores.Applied, len(ores.Dropped), ores.Degraded)
	}
	if ores.Observed != 0 {
		t.Fatalf("predictor observed %d records through total label loss", ores.Observed)
	}
	info, err := c.Info(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded {
		t.Fatal("session info does not report degraded mode")
	}
	// The session still answers from last-good state (the prior).
	fresh := serve.NewLocalSession(m.NewPredictor())
	want := fresh.Classify(recs, false).Predictions
	got, err := c.Classify(created.ID, vectors, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("degraded prediction %d: got %d, want %d (last-good state)", i, got.Predictions[i], want[i])
		}
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := serve.MetricValue(text, "hom_degraded_sessions"); !ok || v != 1 {
		t.Fatalf("hom_degraded_sessions = %v,%v; want 1", v, ok)
	}
}
