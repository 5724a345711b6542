// Command homload drives deterministic load against homserve and checks
// that every request is accounted for and every session's served state is
// bit-identical to an offline twin. It is a correctness driver, not a
// benchmark: cmd/hombench owns every performance number.
//
// It runs N concurrent client sessions. Each session streams its own
// seeded synthetic stream (internal/synth) through the classify + observe
// endpoints under the test-then-train protocol, honoring the server's
// backpressure: 429 and 503 responses are retried after the Retry-After
// hint and counted. Every HTTP call is accounted for — attempted equals
// succeeded plus rejected-then-retried plus failed plus lost — so a run
// with failures is loudly nonzero, never silently short. Each session
// feeds the labels the server acknowledged to an offline twin predictor of
// -model and, at the end, compares the served active probabilities with
// the twin's bit for bit. A JSON summary of the run goes to -out.
//
// -model is required in every mode, because the twin replays it. Without
// -addr homload boots an in-process server over the model on a loopback
// listener (the HTTP path is still fully exercised) and drains it
// gracefully at the end — the mode verify.sh's smoke steps use. With
// -addr it targets a running server, which must serve the same model.
//
// Fleet mode (-fleet) boots N replicas behind an in-process gate.Gateway
// instead and drives every session through the gateway: it can force a
// mid-run rebalance (-fleet-churn), crash a replica (-fleet-kill), or hand
// capacity to the metrics-driven autoscaler (-fleet-autoscale min:max).
//
// With -spill-dir the in-process server (or every fleet replica, each
// under its own subdirectory) runs the tiered session store: a bounded
// hot set (-hot-sessions) over disk spill segments, with -wal adding a
// fsync'd write-ahead label log. -hot-sessions and -wal need -spill-dir.
//
// Usage:
//
//	homload -model model.gob -sessions 8 -records 1000 [-batch 16]
//	        [-stream stagger] [-seed 1] [-codec json|binary] [-out homload.json]
//	homload -model model.gob -addr http://127.0.0.1:8080 ...
//	homload -model model.gob -fleet 3 -fleet-churn [-fleet-service-delay 2ms]
//	homload -model model.gob -fleet 2 -spill-dir spill -hot-sessions 4 -wal
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
	"highorder/internal/gate"
	"highorder/internal/obs"
	"highorder/internal/rng"
	"highorder/internal/serve"
	"highorder/internal/synth"
)

// workload is the per-session workload shape of a run.
type workload struct {
	sessions, records, batch, maxRetries int
	stream                               string
	lambda                               float64
	seed                                 int64
	codec                                serve.Codec
}

func main() {
	addr := flag.String("addr", "", "base URL of a running homserve serving -model (empty = boot one in process)")
	modelPath := flag.String("model", "", "model to serve and to replay in the offline twin (required)")
	sessions := flag.Int("sessions", 8, "concurrent client sessions")
	records := flag.Int("records", 1000, "records per session")
	batch := flag.Int("batch", 16, "records per classify/observe request")
	stream := flag.String("stream", "stagger", "stream per session: stagger, hyperplane, or intrusion")
	lambda := flag.Float64("lambda", 0, "concept changing rate (0 = stream default)")
	seed := flag.Int64("seed", 1, "root seed; session streams derive from it")
	queue := flag.Int("queue", 0, "in-process servers: requests that may wait for an execution slot (0 = default)")
	workers := flag.Int("workers", 0, "in-process servers: execution slots (0 = GOMAXPROCS)")
	maxRetries := flag.Int("max-retries", 100, "429 retries before a request counts as failed")
	out := flag.String("out", "homload.json", "summary output path")
	fleetN := flag.Int("fleet", 0, "fleet mode: boot N replicas behind an in-process gateway (0 = off)")
	fleetChurn := flag.Bool("fleet-churn", false, "fleet mode: join a replica at 1/3 progress and gracefully retire one at 2/3")
	fleetKill := flag.Bool("fleet-kill", false, "fleet mode: crash a replica at 1/2 progress; clients recreate lost sessions")
	fleetAutoscale := flag.String("fleet-autoscale", "", `fleet mode: autoscale bounds "min:max" (boots min replicas)`)
	fleetScaleInterval := flag.Duration("fleet-scale-interval", 300*time.Millisecond, "fleet mode: autoscaler tick period")
	fleetServiceDelay := flag.Duration("fleet-service-delay", 0, "fleet mode: injected per-observe service delay so replicas are latency-bound")
	flightDir := flag.String("flight-dir", "", "fleet mode: record every trace on client, gateway, and replicas; write per-process flight dumps here at end of run")
	spillDir := flag.String("spill-dir", "", "tiered session store: spill directory for the in-process server or fleet replicas (empty = tiering off)")
	hotSessions := flag.Int("hot-sessions", 0, "tiered session store: in-memory hot-set bound (0 = default; needs -spill-dir)")
	wal := flag.Bool("wal", false, "tiered session store: fsync a write-ahead label log so acknowledged observes survive a crash (needs -spill-dir)")
	codecName := flag.String("codec", "json", `classify/observe wire codec: "json" or "binary"`)
	flag.Parse()

	var codec serve.Codec
	switch *codecName {
	case "json":
		codec = serve.CodecJSON
	case "binary":
		codec = serve.CodecBinary
	default:
		fmt.Fprintf(os.Stderr, "homload: -codec must be json or binary, got %q\n", *codecName)
		os.Exit(2)
	}
	if *sessions < 1 || *records < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "homload: -sessions, -records, and -batch must be positive")
		os.Exit(2)
	}
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "homload: -model is required (the offline twin replays it)")
		os.Exit(2)
	}
	fleetMode := *fleetN > 0 || *fleetAutoscale != ""
	if fleetMode && *addr != "" {
		fmt.Fprintln(os.Stderr, "homload: fleet mode boots its own replicas; drop -addr")
		os.Exit(2)
	}

	m, err := dataio.LoadModel(*modelPath)
	if err != nil {
		fail(err)
	}
	clk := clock.Clock(nil).OrWall()
	slp := clock.Sleeper(nil).OrReal()
	w := workload{
		sessions: *sessions, records: *records, batch: *batch, maxRetries: *maxRetries,
		stream: *stream, lambda: *lambda, seed: *seed, codec: codec,
	}
	opts := serve.Options{
		QueueDepth: *queue, Workers: *workers,
		Tier: serve.TierOptions{SpillDir: *spillDir, HotSessions: *hotSessions, WAL: *wal},
	}

	var sum *summary
	if fleetMode {
		fo := fleetOptions{
			replicas:      *fleetN,
			churn:         *fleetChurn,
			kill:          *fleetKill,
			autoscale:     *fleetAutoscale,
			scaleInterval: *fleetScaleInterval,
			serviceDelay:  *fleetServiceDelay,
			flightDir:     *flightDir,
		}
		if fo.autoscale != "" {
			// The autoscaler owns capacity: start from the lower bound and
			// let the load grow the fleet.
			minR, _, err := gate.ParseBounds(fo.autoscale)
			if err != nil {
				fail(err)
			}
			fo.replicas = minR
		}
		fo.replicas = max(fo.replicas, 1)
		sum, err = runFleet(clk, slp, m, w, opts, fo)
	} else {
		sum, err = runSingle(slp, m, w, *addr, opts)
	}
	if err != nil {
		fail(err)
	}
	sum.Config.Codec = *codecName

	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("homload: %d sessions x %d records: %d retries, %d failed, %d lost events, bit-identical=%v over %d sessions -> %s\n",
		w.sessions, w.records, sum.Requests.Retried429, sum.Requests.Failed, sum.Requests.LostEvents,
		sum.Verify.BitIdentical, sum.Verify.Sessions, *out)

	accounted := sum.Requests.Succeeded + sum.Requests.Retried429 + sum.Requests.Failed + sum.Requests.LostEvents
	switch {
	case sum.Requests.Failed > 0 || sum.Requests.Attempted != accounted:
		fmt.Fprintf(os.Stderr, "homload: request accounting: %+v\n", sum.Requests)
		os.Exit(1)
	case !sum.Verify.BitIdentical:
		fmt.Fprintln(os.Stderr, "homload: served state diverged from the offline twin")
		os.Exit(1)
	}
}

// runSingle drives the workload against one server: the one at addr, or
// one booted over m in process on a loopback listener and drained at the
// end.
func runSingle(slp clock.Sleeper, m *core.Model, w workload, addr string, opts serve.Options) (*summary, error) {
	var progress atomic.Int64
	if addr != "" {
		return summarize(runSessions(slp, addr, w, m, false, nil, &progress), w), nil
	}
	srv, err := serve.NewTiered(m, opts)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	results := runSessions(slp, "http://"+l.Addr().String(), w, m, false, nil, &progress)
	cancel()
	if err := <-served; err != nil {
		return nil, fmt.Errorf("draining in-process server: %w", err)
	}
	return summarize(results, w), nil
}

// sessionResult is one session goroutine's accounting and its
// served-vs-offline verdict.
type sessionResult struct {
	attempted, succeeded, retried, failed int
	// lost counts replica-crash session losses tolerated by recreating.
	lost         int
	records      int
	predErrors   int
	verified     bool
	bitIdentical bool
	err          error
}

// newStream builds a session's deterministic record source.
func newStream(name string, lambda float64, seed int64) (synth.Stream, error) {
	switch name {
	case "stagger":
		return synth.NewStagger(synth.StaggerConfig{Lambda: lambda, Seed: seed}), nil
	case "hyperplane":
		return synth.NewHyperplane(synth.HyperplaneConfig{Lambda: lambda, Seed: seed}), nil
	case "intrusion":
		return synth.NewIntrusion(synth.IntrusionConfig{Lambda: lambda, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown stream %q", name)
	}
}

// call runs one HTTP call with backpressure retry (429/503). The backoff
// sleep goes through the injected clock.Sleeper (the sleeploop analyzer
// forbids raw time.Sleep in retry loops), so load runs are deterministic
// under a fake sleeper in tests.
func (r *sessionResult) call(slp clock.Sleeper, maxRetries int, f func() error) bool {
	for retry := 0; ; retry++ {
		r.attempted++
		err := f()
		if err == nil {
			r.succeeded++
			return true
		}
		var he *serve.HTTPError
		if errors.As(err, &he) && he.Retryable() && retry < maxRetries {
			r.retried++
			backoff := he.RetryAfter
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
			slp.Sleep(backoff)
			continue
		}
		r.failed++
		r.err = err
		return false
	}
}

// sessionLost reports whether err means the session's replica is gone —
// the gateway answers 502 while the corpse is still routed and 404 once
// the health loop has dropped its routes.
func sessionLost(err error) bool {
	var he *serve.HTTPError
	if !errors.As(err, &he) {
		return false
	}
	return he.Status == http.StatusBadGateway || he.Status == http.StatusNotFound
}

// runSessions starts every session on its own goroutine. The stream seeds
// are drawn from the root seed in session order before any session runs,
// so the record sequences are a pure function of -seed regardless of
// goroutine scheduling.
func runSessions(slp clock.Sleeper, base string, w workload, m *core.Model,
	allowLoss bool, rec *obs.Recorder, progress *atomic.Int64) []*sessionResult {
	root := rng.New(w.seed)
	results := make([]*sessionResult, w.sessions)
	var wg sync.WaitGroup
	for i := range results {
		seed := root.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runSession(slp, base, w, seed, m, allowLoss, rec, progress)
		}()
	}
	wg.Wait()
	return results
}

// runSession streams one session's records under the test-then-train
// protocol with full call accounting, feeds an offline twin predictor
// exactly the acknowledged observe batches, and compares the served state
// with the twin's at the end. With allowLoss it recovers from a crashed
// replica by recreating the session and resetting the twin, so the
// verdict stays valid for recreated sessions too.
func runSession(slp clock.Sleeper, base string, w workload, seed int64,
	model *core.Model, allowLoss bool, rec *obs.Recorder, progress *atomic.Int64) *sessionResult {
	r := &sessionResult{}
	g, err := newStream(w.stream, w.lambda, seed)
	if err != nil {
		r.err = err
		r.failed++
		r.attempted++
		return r
	}
	c := serve.NewClient(base, nil).WithCodec(w.codec)
	if rec != nil {
		c = c.WithRecorder(rec)
	}

	twin := model.NewPredictor()
	create := func() (string, bool) {
		var created serve.CreateSessionResponse
		ok := r.call(slp, w.maxRetries, func() error {
			var err error
			created, err = c.CreateSession(serve.CreateSessionRequest{})
			return err
		})
		return created.ID, ok
	}
	// convert moves one failed call into the lost bucket when the failure
	// means the session's replica crashed (bounded so a sick fleet still
	// fails loudly instead of looping).
	convert := func() bool {
		if !allowLoss || !sessionLost(r.err) || r.lost >= 50 {
			return false
		}
		r.failed--
		r.lost++
		r.err = nil
		return true
	}
	// recoverLoss turns a session-loss failure into a fresh session and a
	// fresh twin; the caller replays the interrupted batch against both.
	// Creates may also land on the corpse until the health loop drops it,
	// so they get the same tolerance.
	recoverLoss := func(id *string) bool {
		if !convert() {
			return false
		}
		twin = model.NewPredictor()
		for {
			next, ok := create()
			if ok {
				*id = next
				return true
			}
			if !convert() {
				return false
			}
			slp.Sleep(50 * time.Millisecond)
		}
	}

	id, ok := create()
	if !ok {
		return r
	}

	for done := 0; done < w.records; {
		n := min(w.batch, w.records-done)
		vectors := make([][]float64, n)
		classes := make([]int, n)
		for i := 0; i < n; i++ {
			rec := g.Next().Record
			vectors[i] = rec.Values
			classes[i] = rec.Class
		}
		var resp serve.ClassifyResponse
		for {
			if r.call(slp, w.maxRetries, func() error {
				var err error
				resp, err = c.Classify(id, vectors, false)
				return err
			}) {
				break
			}
			if !recoverLoss(&id) {
				return r
			}
		}
		for i, p := range resp.Predictions {
			if p != classes[i] {
				r.predErrors++
			}
		}
		for {
			if r.call(slp, w.maxRetries, func() error {
				_, err := c.Observe(id, vectors, classes)
				return err
			}) {
				break
			}
			if !recoverLoss(&id) {
				return r
			}
		}
		for i := 0; i < n; i++ {
			twin.Observe(data.Record{Values: vectors[i], Class: classes[i]})
		}
		done += n
		r.records += n
		progress.Add(int64(n))
	}

	var info serve.SessionInfo
	if r.call(slp, w.maxRetries, func() error {
		var err error
		info, err = c.Info(id)
		return err
	}) {
		r.verified = true
		r.bitIdentical = activeBitsEqual(info, twin.Snapshot())
	} else if !convert() {
		return r
	}
	if !r.call(slp, w.maxRetries, func() error { return c.CloseSession(id) }) {
		convert()
	}
	return r
}

// activeBitsEqual compares the served session against the offline twin
// snapshot bit-for-bit.
func activeBitsEqual(info serve.SessionInfo, want core.PredictorState) bool {
	if info.Observed != want.Observed || len(info.Active) != len(want.Active) {
		return false
	}
	for i := range want.Active {
		if math.Float64bits(info.Active[i]) != math.Float64bits(want.Active[i]) {
			return false
		}
	}
	return true
}

// summary is the schema of a run's JSON summary. The gate, store and
// autoscale sections and the fleet config fields appear only in fleet
// mode.
type summary struct {
	Config struct {
		Replicas          int     `json:"replicas,omitempty"`
		Sessions          int     `json:"sessions"`
		RecordsPerSession int     `json:"records_per_session"`
		Batch             int     `json:"batch"`
		Stream            string  `json:"stream"`
		Seed              int64   `json:"seed"`
		Codec             string  `json:"codec"`
		ServiceDelayMS    float64 `json:"service_delay_ms,omitempty"`
		Churn             bool    `json:"churn,omitempty"`
		Kill              bool    `json:"kill,omitempty"`
		Autoscale         string  `json:"autoscale,omitempty"`
	} `json:"config"`
	Requests struct {
		Attempted  int `json:"attempted"`
		Succeeded  int `json:"succeeded"`
		Retried429 int `json:"retried_429"`
		Failed     int `json:"failed"`
		LostEvents int `json:"lost_events"`
	} `json:"requests"`
	Records          int     `json:"records"`
	PredictionErrors int     `json:"prediction_errors"`
	ErrorRate        float64 `json:"error_rate"`
	Verify           struct {
		Checked      bool `json:"checked"`
		Sessions     int  `json:"sessions"`
		BitIdentical bool `json:"bit_identical"`
	} `json:"verify"`
	Gate        *gateSummary      `json:"gate,omitempty"`
	Store       *storeSummary     `json:"store,omitempty"`
	Autoscale   *autoscaleSummary `json:"autoscale,omitempty"`
	ChurnEvents []string          `json:"churn_events,omitempty"`
}

// summarize folds the sessions' accounting and verdicts into a summary.
// A run that verified no session is not bit-identical.
func summarize(results []*sessionResult, w workload) *summary {
	s := &summary{}
	s.Config.Sessions = w.sessions
	s.Config.RecordsPerSession = w.records
	s.Config.Batch = w.batch
	s.Config.Stream = w.stream
	s.Config.Seed = w.seed
	diverged := false
	for _, r := range results {
		s.Requests.Attempted += r.attempted
		s.Requests.Succeeded += r.succeeded
		s.Requests.Retried429 += r.retried
		s.Requests.Failed += r.failed
		s.Requests.LostEvents += r.lost
		s.Records += r.records
		s.PredictionErrors += r.predErrors
		if r.verified {
			s.Verify.Sessions++
			diverged = diverged || !r.bitIdentical
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "homload: session error: %v\n", r.err)
		}
	}
	s.Verify.Checked = s.Verify.Sessions > 0
	s.Verify.BitIdentical = s.Verify.Checked && !diverged
	if s.Records > 0 {
		s.ErrorRate = float64(s.PredictionErrors) / float64(s.Records)
	}
	return s
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homload: %v\n", err)
	os.Exit(1)
}
