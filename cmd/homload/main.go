// Command homload drives deterministic load against a homserve instance
// and writes a BENCH_serve.json throughput/latency summary.
//
// It runs N concurrent client sessions. Each session streams its own
// seeded synthetic stream (internal/synth) through the classify + observe
// endpoints under the test-then-train protocol, honoring the server's
// backpressure: 429 responses are retried after the Retry-After hint and
// counted. Every HTTP call is accounted for — attempted equals succeeded
// plus rejected-then-retried plus failed — so a run with failures is
// loudly nonzero, never silently short.
//
// With -addr it targets a running server; with -model it boots an
// in-process server on a loopback listener (the HTTP path is still fully
// exercised) and drains it gracefully at the end — the mode verify.sh's
// smoke step and the committed BENCH_serve.json use.
//
// Fleet mode (-fleet, with -model) boots N replicas behind an in-process
// gate.Gateway instead and drives every session through the gateway: it
// can force a mid-run rebalance (-fleet-churn), crash a replica
// (-fleet-kill), hand capacity to the metrics-driven autoscaler
// (-fleet-autoscale min:max), or sweep replica counts (-fleet-sweep
// 1,2,4), while checking each served session bit-for-bit against an
// offline twin predictor. Fleet runs write BENCH_gate.json.
//
// With -spill-dir the in-process server (or every fleet replica, each
// under its own subdirectory) runs the tiered session store: a bounded
// hot set (-hot-sessions) over disk spill segments, with -wal adding a
// fsync'd write-ahead label log. Store-bench mode (-store-bench N, with
// -model) populates N concurrent sessions through a tiered server —
// far more than fit hot — then revisits the coldest and writes a
// BENCH_store.json hydration profile from the server's own
// hom_session_hydrate_seconds histogram.
//
// Usage:
//
//	homload -model model.gob -sessions 8 -records 1000 [-batch 16]
//	        [-stream stagger] [-seed 1] [-out BENCH_serve.json]
//	homload -addr http://127.0.0.1:8080 ...
//	homload -model model.gob -fleet 3 -fleet-churn [-fleet-service-delay 2ms]
//	homload -model model.gob -fleet-sweep 1,2,4 -fleet-service-delay 5ms
//	homload -model model.gob -store-bench 100000 -hot-sessions 4096 -wal
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
	out := flag.String("out", "BENCH_serve.json", "summary output path")
	maxprocs := flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS for the run (0 keeps the default)")
	fleetN := flag.Int("fleet", 0, "fleet mode: boot N replicas behind an in-process gateway (needs -model; 0 = off)")
	fleetChurn := flag.Bool("fleet-churn", false, "fleet mode: join a replica at 1/3 progress and gracefully retire one at 2/3")
	fleetKill := flag.Bool("fleet-kill", false, "fleet mode: crash a replica at 1/2 progress; clients recreate lost sessions")
	fleetAutoscale := flag.String("fleet-autoscale", "", `fleet mode: autoscale bounds "min:max" (boots min replicas)`)
	fleetScaleInterval := flag.Duration("fleet-scale-interval", 300*time.Millisecond, "fleet mode: autoscaler tick period")
	fleetSweep := flag.String("fleet-sweep", "", `fleet mode: comma-separated replica counts to sweep, e.g. "1,2,4"`)
	fleetServiceDelay := flag.Duration("fleet-service-delay", 0, "fleet mode: injected per-observe service delay so replicas are latency-bound")
	fleetVerify := flag.Bool("fleet-verify", true, "fleet mode: check every served session bit-for-bit against an offline twin")
	flightDir := flag.String("flight-dir", "", "fleet mode: record every trace on client, gateway, and replicas; write per-process flight dumps here at end of run")
	spillDir := flag.String("spill-dir", "", "tiered session store: spill directory for the in-process server or fleet replicas (empty = tiering off; the store bench defaults to a temp dir)")
	hotSessions := flag.Int("hot-sessions", 0, "tiered session store: in-memory hot-set bound (0 = default; needs -spill-dir or -store-bench)")
	wal := flag.Bool("wal", false, "tiered session store: fsync a write-ahead label log so acknowledged observes survive a crash")
	storeBench := flag.Int("store-bench", 0, "store bench: populate N concurrent sessions through a tiered in-process server, revisit cold ones, and write a hydration profile (needs -model; 0 = off)")
	storeRecords := flag.Int("store-records", 3, "store bench: labeled records observed per session")
	storeRevisits := flag.Int("store-revisits", 0, "store bench: cold sessions revisited to measure hydration (0 = sessions/10, capped at 10000)")
	codecName := flag.String("codec", "json", `classify/observe wire codec: "json" or "binary"`)
	classifyBench := flag.Int("classify-bench", 0, "after the load run, classify N records through a fresh warmed session per codec and record per-codec throughput in the summary (0 = off)")
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

	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}
	if *sessions < 1 || *records < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "homload: -sessions, -records, and -batch must be positive")
		os.Exit(2)
	}

	clk := clock.Clock(nil).OrWall()
	slp := clock.Sleeper(nil).OrReal()

	if *storeBench > 0 {
		if *modelPath == "" || *addr != "" {
			fmt.Fprintln(os.Stderr, "homload: -store-bench needs -model (and no -addr)")
			os.Exit(2)
		}
		outPath := *out
		if outPath == "BENCH_serve.json" && !flagWasSet("out") {
			outPath = "BENCH_store.json"
		}
		runStoreBench(clk, slp, *modelPath, outPath, storeBenchOptions{
			sessions: *storeBench, records: *storeRecords, revisits: *storeRevisits,
			hot: *hotSessions, wal: *wal, spillDir: *spillDir,
			queue: *queue, workers: *workers,
			stream: *stream, lambda: *lambda, seed: *seed, maxRetries: *maxRetries,
		})
		return
	}

	if *fleetN > 0 || *fleetSweep != "" || *fleetAutoscale != "" {
		if *modelPath == "" || *addr != "" {
			fmt.Fprintln(os.Stderr, "homload: fleet mode needs -model (and no -addr)")
			os.Exit(2)
		}
		sweep, err := parseSweep(*fleetSweep)
		if err != nil {
			fail(err)
		}
		fo := fleetOptions{
			replicas:      *fleetN,
			churn:         *fleetChurn,
			kill:          *fleetKill,
			autoscale:     *fleetAutoscale,
			scaleInterval: *fleetScaleInterval,
			sweep:         sweep,
			serviceDelay:  *fleetServiceDelay,
			verify:        *fleetVerify,
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
		outPath := *out
		if outPath == "BENCH_serve.json" && !flagWasSet("out") {
			outPath = "BENCH_gate.json"
		}
		w := fleetWorkload{
			sessions: *sessions, records: *records, batch: *batch, maxRetries: *maxRetries,
			stream: *stream, lambda: *lambda, seed: *seed,
			queue: *queue, workers: *workers,
			codec: codec,
		}
		runFleet(clk, slp, *modelPath, outPath, w, fo)
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

	if *classifyBench > 0 {
		cb, err := runClassifyBench(clk, base, *classifyBench)
		if err != nil {
			fail(fmt.Errorf("classify bench: %w", err))
		}
		sum.ClassifyBench = cb
	}

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

// summary is the BENCH_serve.json schema.
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
	// ClassifyBench, when -classify-bench is set, is a pure classify-path
	// throughput probe run after the mixed workload: one fresh session per
	// codec, warmed with 128 labeled records, then N records classified in
	// large batches with no observe traffic interleaved. It isolates the
	// serve classify hot path (and the wire codec around it) from
	// test-then-train protocol overhead.
	ClassifyBench *classifyBench `json:"classify_bench,omitempty"`
}

// classifyBench is the per-codec classify-only throughput section.
type classifyBench struct {
	Records int                        `json:"records"`
	Batch   int                        `json:"batch"`
	Codecs  map[string]codecBenchStats `json:"codecs"`
}

type codecBenchStats struct {
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	RecordsPerSecond float64 `json:"records_per_second"`
}

// classifyBenchBatch keeps one request comfortably under the server's
// request-size cap for both codecs while amortizing per-request cost.
const classifyBenchBatch = 2048

// runClassifyBench measures classify-only throughput per wire codec
// against the already-running server at base.
func runClassifyBench(clk clock.Clock, base string, records int) (*classifyBench, error) {
	cb := &classifyBench{
		Records: records,
		Batch:   classifyBenchBatch,
		Codecs:  map[string]codecBenchStats{},
	}
	for _, cc := range []struct {
		name  string
		codec serve.Codec
	}{{"json", serve.CodecJSON}, {"binary", serve.CodecBinary}} {
		c := serve.NewClient(base, nil).WithCodec(cc.codec)
		created, err := c.CreateSession(serve.CreateSessionRequest{})
		if err != nil {
			return nil, fmt.Errorf("%s: create session: %w", cc.name, err)
		}
		// Warm the session with labeled records so the served predictor has a
		// concentrated prior — the steady state the hot path is built for.
		g := synth.NewStagger(synth.StaggerConfig{Seed: 42, Lambda: 0.02})
		warmVec := make([][]float64, 128)
		warmCls := make([]int, len(warmVec))
		for i := range warmVec {
			rec := g.Next().Record
			warmVec[i] = rec.Values
			warmCls[i] = rec.Class
		}
		if _, err := c.Observe(created.ID, warmVec, warmCls); err != nil {
			return nil, fmt.Errorf("%s: warmup observe: %w", cc.name, err)
		}
		vectors := make([][]float64, classifyBenchBatch)
		for i := range vectors {
			vectors[i] = g.Next().Record.Values
		}
		start := clk()
		for done := 0; done < records; {
			n := min(classifyBenchBatch, records-done)
			if _, err := c.Classify(created.ID, vectors[:n], false); err != nil {
				return nil, fmt.Errorf("%s: classify: %w", cc.name, err)
			}
			done += n
		}
		elapsed := clk().Sub(start).Seconds()
		stats := codecBenchStats{ElapsedSeconds: elapsed}
		if elapsed > 0 {
			stats.RecordsPerSecond = float64(records) / elapsed
		}
		cb.Codecs[cc.name] = stats
		if err := c.CloseSession(created.ID); err != nil {
			return nil, fmt.Errorf("%s: close session: %w", cc.name, err)
		}
	}
	return cb, nil
}

func summarize(results []*sessionResult, sessions, records, batch int, stream string, seed int64, elapsed float64) *summary {
	s := &summary{}
	s.Config.Sessions = sessions
	s.Config.RecordsPerSession = records
	s.Config.Batch = batch
	s.Config.Stream = stream
	s.Config.Seed = seed
	// Recorded so committed bench numbers carry their parallelism context.
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

// flagWasSet reports whether the named flag appeared on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homload: %v\n", err)
	os.Exit(1)
}
