// Command homload drives deterministic load against a homserve instance
// and checks that every request is accounted for. It is a correctness
// driver, not a benchmark: cmd/hombench owns every performance number.
//
// It runs N concurrent client sessions. Each session streams its own
// seeded synthetic stream (internal/synth) through the classify + observe
// endpoints under the test-then-train protocol, honoring the server's
// backpressure: 429 responses are retried after the Retry-After hint and
// counted. Every HTTP call is accounted for — attempted equals succeeded
// plus rejected-then-retried plus failed — so a run with failures is
// loudly nonzero, never silently short. A JSON summary of the run goes to
// -out.
//
// With -addr it targets a running server; with -model it boots an
// in-process server on a loopback listener (the HTTP path is still fully
// exercised) and drains it gracefully at the end — the mode verify.sh's
// smoke step uses.
//
// Fleet mode (-fleet, with -model) boots N replicas behind an in-process
// gate.Gateway instead and drives every session through the gateway: it
// can force a mid-run rebalance (-fleet-churn), crash a replica
// (-fleet-kill), or hand capacity to the metrics-driven autoscaler
// (-fleet-autoscale min:max), while checking each served session
// bit-for-bit against an offline twin predictor.
//
// With -spill-dir the in-process server (or every fleet replica, each
// under its own subdirectory) runs the tiered session store: a bounded
// hot set (-hot-sessions) over disk spill segments, with -wal adding a
// fsync'd write-ahead label log.
//
// Usage:
//
//	homload -model model.gob -sessions 8 -records 1000 [-batch 16]
//	        [-stream stagger] [-seed 1] [-codec json|binary] [-out homload.json]
//	homload -addr http://127.0.0.1:8080 ...
//	homload -model model.gob -fleet 3 -fleet-churn [-fleet-service-delay 2ms]
//	homload -model model.gob -fleet 2 -spill-dir spill -hot-sessions 4 -wal
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"highorder/internal/clock"
	"highorder/internal/dataio"
	"highorder/internal/rng"
	"highorder/internal/serve"
	"highorder/internal/synth"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running homserve (mutually exclusive with -model)")
	modelPath := flag.String("model", "", "model to serve in-process on a loopback listener")
	sessions := flag.Int("sessions", 8, "concurrent client sessions")
	records := flag.Int("records", 1000, "records per session")
	batch := flag.Int("batch", 16, "records per classify/observe request")
	stream := flag.String("stream", "stagger", "stream per session: stagger, hyperplane, or intrusion")
	lambda := flag.Float64("lambda", 0, "concept changing rate (0 = stream default)")
	seed := flag.Int64("seed", 1, "root seed; session streams derive from it")
	queue := flag.Int("queue", 0, "in-process server queue depth (0 = default)")
	workers := flag.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
	microBatch := flag.Int("micro-batch", 0, "in-process server micro-batch (0 = default)")
	maxRetries := flag.Int("max-retries", 100, "429 retries before a request counts as failed")
	out := flag.String("out", "homload.json", "summary output path")
	fleetN := flag.Int("fleet", 0, "fleet mode: boot N replicas behind an in-process gateway (needs -model; 0 = off)")
	fleetChurn := flag.Bool("fleet-churn", false, "fleet mode: join a replica at 1/3 progress and gracefully retire one at 2/3")
	fleetKill := flag.Bool("fleet-kill", false, "fleet mode: crash a replica at 1/2 progress; clients recreate lost sessions")
	fleetAutoscale := flag.String("fleet-autoscale", "", `fleet mode: autoscale bounds "min:max" (boots min replicas)`)
	fleetScaleInterval := flag.Duration("fleet-scale-interval", 300*time.Millisecond, "fleet mode: autoscaler tick period")
	fleetServiceDelay := flag.Duration("fleet-service-delay", 0, "fleet mode: injected per-observe service delay so replicas are latency-bound")
	flightDir := flag.String("flight-dir", "", "fleet mode: record every trace on client, gateway, and replicas; write per-process flight dumps here at end of run")
	spillDir := flag.String("spill-dir", "", "tiered session store: spill directory for the in-process server or fleet replicas (empty = tiering off)")
	hotSessions := flag.Int("hot-sessions", 0, "tiered session store: in-memory hot-set bound (0 = default; needs -spill-dir)")
	wal := flag.Bool("wal", false, "tiered session store: fsync a write-ahead label log so acknowledged observes survive a crash")
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

	clk := clock.Clock(nil).OrWall()
	slp := clock.Sleeper(nil).OrReal()

	if *fleetN > 0 || *fleetAutoscale != "" {
		if *modelPath == "" || *addr != "" {
			fmt.Fprintln(os.Stderr, "homload: fleet mode needs -model (and no -addr)")
			os.Exit(2)
		}
		fo := fleetOptions{
			replicas:      *fleetN,
			churn:         *fleetChurn,
			kill:          *fleetKill,
			autoscale:     *fleetAutoscale,
			scaleInterval: *fleetScaleInterval,
			serviceDelay:  *fleetServiceDelay,
			flightDir:     *flightDir,
			spillDir:      *spillDir,
			hotSessions:   *hotSessions,
			wal:           *wal,
		}
		if fo.autoscale != "" {
			// The autoscaler owns capacity: start from the lower bound and
			// let the load grow the fleet.
			minR, _, err := parseBounds(fo.autoscale)
			if err != nil {
				fail(err)
			}
			fo.replicas = minR
		}
		if fo.replicas < 1 {
			fo.replicas = 1
		}
		w := fleetWorkload{
			sessions: *sessions, records: *records, batch: *batch, maxRetries: *maxRetries,
			stream: *stream, lambda: *lambda, seed: *seed,
			queue: *queue, workers: *workers,
			codec: codec,
		}
		runFleet(clk, slp, *modelPath, *out, w, fo)
		return
	}

	if (*addr == "") == (*modelPath == "") {
		fmt.Fprintln(os.Stderr, "homload: exactly one of -addr or -model is required")
		os.Exit(2)
	}
	base := *addr
	var shutdown func() error
	if *modelPath != "" {
		m, err := dataio.LoadModel(*modelPath)
		if err != nil {
			fail(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		srv, err := serve.NewTiered(m, serve.Options{
			QueueDepth: *queue, Workers: *workers, MicroBatch: *microBatch,
			Tier: serve.TierOptions{SpillDir: *spillDir, HotSessions: *hotSessions, WAL: *wal},
		})
		if err != nil {
			fail(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ctx, l) }()
		base = "http://" + l.Addr().String()
		shutdown = func() error {
			cancel()
			return <-served
		}
	}

	// Derive every session's stream seed from the root seed up front, in
	// session order, so the generated record sequences are a pure function
	// of -seed regardless of goroutine scheduling.
	root := rng.New(*seed)
	seeds := make([]int64, *sessions)
	for i := range seeds {
		seeds[i] = root.Int63()
	}

	start := clk()
	results := make([]*sessionResult, *sessions)
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runSession(clk, slp, base, *stream, *lambda, seeds[i], *records, *batch, *maxRetries, codec)
		}(i)
	}
	wg.Wait()
	elapsed := clk().Sub(start).Seconds()

	sum := summarize(results, *sessions, *records, *batch, *stream, *seed, elapsed)
	sum.Config.Codec = *codecName

	// The server's own view: high-water queue depth and rejection count.
	if text, err := serve.NewClient(base, nil).Metrics(); err == nil {
		if v, ok := serve.MetricValue(text, "homserve_queue_depth_max"); ok {
			sum.Server.MaxQueueDepth = int(v)
		}
		if v, ok := serve.MetricValue(text, "homserve_rejected_total"); ok {
			sum.Server.RejectedTotal = int(v)
		}
		if v, ok := serve.MetricValue(text, "homserve_sessions_live"); ok {
			sum.Server.LiveSessionsEnd = int(v)
		}
		if qs, ok := serve.HistogramQuantiles(text, "homserve_request_seconds",
			map[string]string{"endpoint": "classify"}, 0.50, 0.95, 0.99); ok {
			sum.ServerLatencyMS.ClassifyP50 = qs[0] * 1000
			sum.ServerLatencyMS.ClassifyP95 = qs[1] * 1000
			sum.ServerLatencyMS.ClassifyP99 = qs[2] * 1000
		}
		if qs, ok := serve.HistogramQuantiles(text, "homserve_request_seconds",
			map[string]string{"endpoint": "observe"}, 0.50, 0.95, 0.99); ok {
			sum.ServerLatencyMS.ObserveP50 = qs[0] * 1000
			sum.ServerLatencyMS.ObserveP95 = qs[1] * 1000
			sum.ServerLatencyMS.ObserveP99 = qs[2] * 1000
		}
	}

	if shutdown != nil {
		if err := shutdown(); err != nil {
			fail(fmt.Errorf("draining in-process server: %w", err))
		}
	}

	if err := writeSummary(*out, sum); err != nil {
		fail(err)
	}
	fmt.Printf("homload: %d sessions x %d records: %.0f records/s, p50 %.2fms p99 %.2fms, %d retries, %d failed -> %s\n",
		*sessions, *records, sum.RecordsPerSecond, sum.LatencyMS.P50, sum.LatencyMS.P99, sum.Requests.Retried429, sum.Requests.Failed, *out)
	if sum.Requests.Failed > 0 || sum.Requests.Attempted != sum.Requests.Succeeded+sum.Requests.Retried429+sum.Requests.Failed {
		fmt.Fprintf(os.Stderr, "homload: request accounting: %+v\n", sum.Requests)
		os.Exit(1)
	}
}

// sessionResult is one session goroutine's accounting.
type sessionResult struct {
	attempted, succeeded, retried, failed int
	latencies                             []float64 // seconds, successful calls only
	records                               int
	predErrors                            int
	err                                   error
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

// call runs one HTTP call with backpressure retry (429/503), timing
// successful attempts. The backoff sleep goes through the injected
// clock.Sleeper (the sleeploop analyzer forbids raw time.Sleep in retry
// loops), so load runs are deterministic under a fake sleeper in tests.
func (r *sessionResult) call(clk clock.Clock, slp clock.Sleeper, maxRetries int, f func() error) bool {
	for retry := 0; ; retry++ {
		r.attempted++
		start := clk()
		err := f()
		if err == nil {
			r.latencies = append(r.latencies, clk().Sub(start).Seconds())
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

func runSession(clk clock.Clock, slp clock.Sleeper, base, stream string, lambda float64, seed int64, records, batch, maxRetries int, codec serve.Codec) *sessionResult {
	r := &sessionResult{}
	g, err := newStream(stream, lambda, seed)
	if err != nil {
		r.err = err
		r.failed++
		r.attempted++
		return r
	}
	c := serve.NewClient(base, nil).WithCodec(codec)

	var created serve.CreateSessionResponse
	if !r.call(clk, slp, maxRetries, func() error {
		var err error
		created, err = c.CreateSession(serve.CreateSessionRequest{})
		return err
	}) {
		return r
	}

	for done := 0; done < records; {
		n := min(batch, records-done)
		vectors := make([][]float64, n)
		classes := make([]int, n)
		for i := 0; i < n; i++ {
			rec := g.Next().Record
			vectors[i] = rec.Values
			classes[i] = rec.Class
		}
		var resp serve.ClassifyResponse
		if !r.call(clk, slp, maxRetries, func() error {
			var err error
			resp, err = c.Classify(created.ID, vectors, false)
			return err
		}) {
			return r
		}
		for i, p := range resp.Predictions {
			if p != classes[i] {
				r.predErrors++
			}
		}
		if !r.call(clk, slp, maxRetries, func() error {
			_, err := c.Observe(created.ID, vectors, classes)
			return err
		}) {
			return r
		}
		done += n
		r.records += n
	}

	r.call(clk, slp, maxRetries, func() error { return c.CloseSession(created.ID) })
	return r
}

// summary is the schema of the single-server run's JSON summary.
type summary struct {
	Config struct {
		Sessions          int    `json:"sessions"`
		RecordsPerSession int    `json:"records_per_session"`
		Batch             int    `json:"batch"`
		Stream            string `json:"stream"`
		Seed              int64  `json:"seed"`
		GoMaxProcs        int    `json:"gomaxprocs"`
		Codec             string `json:"codec"`
	} `json:"config"`
	Requests struct {
		Attempted  int `json:"attempted"`
		Succeeded  int `json:"succeeded"`
		Retried429 int `json:"retried_429"`
		Failed     int `json:"failed"`
	} `json:"requests"`
	Records           int     `json:"records"`
	PredictionErrors  int     `json:"prediction_errors"`
	ErrorRate         float64 `json:"error_rate"`
	ElapsedSeconds    float64 `json:"elapsed_seconds"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	RecordsPerSecond  float64 `json:"records_per_second"`
	LatencyMS         struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Server struct {
		MaxQueueDepth   int `json:"max_queue_depth"`
		RejectedTotal   int `json:"rejected_total"`
		LiveSessionsEnd int `json:"live_sessions_end"`
	} `json:"server"`
	// ServerLatencyMS is the server's own view of request latency,
	// estimated from the homserve_request_seconds exposition histogram by
	// bucket interpolation — coarser than the client-side samples above but
	// free of client scheduling noise.
	ServerLatencyMS struct {
		ClassifyP50 float64 `json:"classify_p50"`
		ClassifyP95 float64 `json:"classify_p95"`
		ClassifyP99 float64 `json:"classify_p99"`
		ObserveP50  float64 `json:"observe_p50"`
		ObserveP95  float64 `json:"observe_p95"`
		ObserveP99  float64 `json:"observe_p99"`
	} `json:"server_latency_ms"`
}

func summarize(results []*sessionResult, sessions, records, batch int, stream string, seed int64, elapsed float64) *summary {
	s := &summary{}
	s.Config.Sessions = sessions
	s.Config.RecordsPerSession = records
	s.Config.Batch = batch
	s.Config.Stream = stream
	s.Config.Seed = seed
	// Recorded so the summary carries its parallelism context.
	s.Config.GoMaxProcs = runtime.GOMAXPROCS(0)

	var lats []float64
	for _, r := range results {
		s.Requests.Attempted += r.attempted
		s.Requests.Succeeded += r.succeeded
		s.Requests.Retried429 += r.retried
		s.Requests.Failed += r.failed
		s.Records += r.records
		s.PredictionErrors += r.predErrors
		lats = append(lats, r.latencies...)
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "homload: session error: %v\n", r.err)
		}
	}
	if s.Records > 0 {
		s.ErrorRate = float64(s.PredictionErrors) / float64(s.Records)
	}
	s.ElapsedSeconds = elapsed
	if elapsed > 0 {
		s.RequestsPerSecond = float64(s.Requests.Succeeded) / elapsed
		s.RecordsPerSecond = float64(s.Records) / elapsed
	}
	sort.Float64s(lats)
	s.LatencyMS.P50 = percentileMS(lats, 0.50)
	s.LatencyMS.P90 = percentileMS(lats, 0.90)
	s.LatencyMS.P99 = percentileMS(lats, 0.99)
	if n := len(lats); n > 0 {
		s.LatencyMS.Max = lats[n-1] * 1000
	}
	return s
}

// percentileMS returns the q-quantile of sorted seconds, in milliseconds.
func percentileMS(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx] * 1000
}

func writeSummary(path string, s *summary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homload: %v\n", err)
	os.Exit(1)
}
