package main

// Fleet mode: instead of one homserve, homload boots a gate.Fleet of
// in-process replicas behind a gate.Gateway on a loopback listener and
// drives every session through the gateway's HTTP path. Mid-run it can
// force a rebalance (join a replica, gracefully retire another), crash a
// replica outright, or hand capacity decisions to the metrics-driven
// autoscaler — while every session's served state is checked
// bit-for-bit against an offline twin predictor fed the same acknowledged
// labels.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
	"highorder/internal/fault"
	"highorder/internal/gate"
	"highorder/internal/obs"
	"highorder/internal/rng"
	"highorder/internal/serve"
)

// fleetOptions are the -fleet* knobs.
type fleetOptions struct {
	replicas      int
	churn         bool
	kill          bool
	autoscale     string // "min:max", empty = off
	scaleInterval time.Duration
	serviceDelay  time.Duration
	flightDir     string // write per-process flight dumps here (empty = off)
	spillDir      string // tiered replicas: per-replica spill subtrees here (empty = off)
	hotSessions   int
	wal           bool
}

// fleetWorkload is the per-session workload shape of a fleet run.
type fleetWorkload struct {
	sessions, records, batch, maxRetries int
	stream                               string
	lambda                               float64
	seed                                 int64
	queue, workers                       int
	codec                                serve.Codec
}

// parseBounds parses "min:max" autoscale bounds.
func parseBounds(v string) (int, int, error) {
	lo, hi, ok := strings.Cut(v, ":")
	if !ok {
		return 0, 0, fmt.Errorf("autoscale bounds %q: want min:max", v)
	}
	minR, err1 := strconv.Atoi(lo)
	maxR, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || minR < 1 || maxR < minR {
		return 0, 0, fmt.Errorf("autoscale bounds %q: want 1 <= min <= max", v)
	}
	return minR, maxR, nil
}

// fleetSessionResult extends the per-session accounting with the fleet
// failure modes: session-loss events survived by recreating, and the
// served-vs-offline verification verdict.
type fleetSessionResult struct {
	sessionResult
	lost         int // replica-crash session losses tolerated by recreating
	verified     bool
	bitIdentical bool
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

// runFleetSession is runSession through the gateway: same call
// accounting, plus an offline twin predictor fed exactly the acknowledged
// observe batches (bit-identity proof at the end), and — when allowLoss —
// recovery from a crashed replica by recreating the session and resetting
// the twin, so the verdict stays valid for recreated sessions too.
func runFleetSession(clk clock.Clock, slp clock.Sleeper, base string, w fleetWorkload, seed int64,
	model *core.Model, allowLoss bool, rec *obs.Recorder, progress *atomic.Int64) *fleetSessionResult {
	r := &fleetSessionResult{}
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
		ok := r.call(clk, slp, w.maxRetries, func() error {
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
			if r.call(clk, slp, w.maxRetries, func() error {
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
			if r.call(clk, slp, w.maxRetries, func() error {
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
	if r.call(clk, slp, w.maxRetries, func() error {
		var err error
		info, err = c.Info(id)
		return err
	}) {
		r.verified = true
		r.bitIdentical = activeBitsEqual(info, twin.Snapshot())
	} else if !convert() {
		return r
	}
	if !r.call(clk, slp, w.maxRetries, func() error { return c.CloseSession(id) }) {
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

// fleetRun is one gateway-fronted workload execution.
type fleetRun struct {
	results     []*fleetSessionResult
	elapsed     float64
	metricsText string
	churnEvents []string
	decisions   []gate.Decision
	maxReplicas int
	replicasEnd int
	store       fleetStoreTotals
}

// fleetStoreTotals sums the tiered-store counters scraped from every
// replica still alive at the end of the run (killed replicas take their
// counters with them).
type fleetStoreTotals struct {
	hot, cold, spills, hydrates, walReplayed int
}

// runFleetOnce boots replicas + gateway, drives the workload, applies the
// requested churn/kill/autoscale choreography, and tears everything down.
func runFleetOnce(clk clock.Clock, slp clock.Sleeper, m *core.Model, w fleetWorkload, fo fleetOptions) (*fleetRun, error) {
	opts := serve.Options{QueueDepth: w.queue, Workers: w.workers}
	if fo.serviceDelay > 0 {
		// Every observe batch stalls by the configured service delay, so a
		// replica's throughput is latency-bound: honest near-linear scaling
		// even when the host has fewer cores than replicas.
		opts.Fault = fault.New(w.seed, fault.Plan{fault.LabelDelay: {Prob: 1, Delay: fo.serviceDelay}})
	}
	fleet := gate.NewFleet(m, opts)
	defer fleet.Close()

	// Flight recording: one recorder per process (client, gate, every
	// replica), all sampling every trace, dumped to -flight-dir at the end
	// so homtrace can merge the whole fleet's view of the run.
	var flight struct {
		sync.Mutex
		recs []*obs.Recorder
	}
	newRec := func(proc string) *obs.Recorder {
		rec := obs.NewRecorder(obs.FlightConfig{Proc: proc, SampleOneIn: 1})
		flight.Lock()
		flight.recs = append(flight.recs, rec)
		flight.Unlock()
		return rec
	}
	var clientRec, gateRec *obs.Recorder
	if fo.flightDir != "" {
		if err := os.MkdirAll(fo.flightDir, 0o755); err != nil {
			return nil, err
		}
		clientRec = newRec("client")
		gateRec = newRec("gate")
		fleet.ReplicaOptions = func(id string, opts serve.Options) serve.Options {
			opts.Recorder = newRec(id)
			return opts
		}
	}
	if fo.spillDir != "" {
		// Tiered replicas: each gets its own spill subtree so segment and
		// WAL files never collide across the fleet. Chained after the
		// flight hook so both customizations compose.
		if err := os.MkdirAll(fo.spillDir, 0o755); err != nil {
			return nil, err
		}
		inner := fleet.ReplicaOptions
		fleet.ReplicaOptions = func(id string, opts serve.Options) serve.Options {
			if inner != nil {
				opts = inner(id, opts)
			}
			opts.Tier = serve.TierOptions{
				SpillDir:    filepath.Join(fo.spillDir, id),
				HotSessions: fo.hotSessions,
				WAL:         fo.wal,
			}
			return opts
		}
	}

	g := gate.New(gate.Config{HealthInterval: 250 * time.Millisecond, Recorder: gateRec})
	for i := 0; i < fo.replicas; i++ {
		id, url, err := fleet.ScaleUp()
		if err != nil {
			return nil, err
		}
		if err := g.Join(id, url); err != nil {
			return nil, err
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: g.Handler()}
	go func() { _ = hs.Serve(l) }()
	defer func() { _ = hs.Close() }()
	base := "http://" + l.Addr().String()

	stop := make(chan struct{})
	defer close(stop)
	go g.HealthLoop(stop)

	run := &fleetRun{maxReplicas: fo.replicas}
	var runMu sync.Mutex
	scaleMin := 0
	if fo.autoscale != "" {
		minR, maxR, err := parseBounds(fo.autoscale)
		if err != nil {
			return nil, err
		}
		scaleMin = minR
		a := gate.NewAutoscaler(g, fleet, gate.AutoscalerConfig{
			Min: minR, Max: maxR,
			HighQueue: 4, LowQueue: 1,
			UpAfter: 2, DownAfter: 3, Cooldown: 2,
			Interval: fo.scaleInterval,
		})
		go a.Run(stop, func(d gate.Decision, err error) {
			if err != nil || d.Action == "" {
				return
			}
			runMu.Lock()
			run.decisions = append(run.decisions, d)
			if n := len(g.Replicas()); n > run.maxReplicas {
				run.maxReplicas = n
			}
			runMu.Unlock()
		})
	}

	var progress atomic.Int64
	total := int64(w.sessions) * int64(w.records)
	loadDone := make(chan struct{})
	waitProgress := func(target int64) bool {
		for progress.Load() < target {
			select {
			case <-loadDone:
				// The workload ended (possibly short on failures): report
				// whether the target was actually reached rather than spin.
				return progress.Load() >= target
			default:
			}
			slp.Sleep(5 * time.Millisecond)
		}
		return true
	}
	record := func(ev string) {
		runMu.Lock()
		run.churnEvents = append(run.churnEvents, ev)
		runMu.Unlock()
	}
	var choreo sync.WaitGroup
	if fo.churn {
		choreo.Add(1)
		go func() {
			defer choreo.Done()
			if !waitProgress(total / 3) {
				return
			}
			id, url, err := fleet.ScaleUp()
			if err == nil {
				err = g.Join(id, url)
			}
			if err != nil {
				record("join failed: " + err.Error())
				return
			}
			record("join " + id + " at 1/3: rebalance migrated the ring delta")
			if !waitProgress(2 * total / 3) {
				return
			}
			victim := firstHealthy(g)
			if victim == "" {
				return
			}
			if err := g.Leave(victim); err != nil {
				record("leave " + victim + " failed: " + err.Error())
				return
			}
			_ = fleet.ScaleDown(victim)
			record("leave " + victim + " at 2/3: drained and migrated off")
		}()
	}
	if fo.kill {
		choreo.Add(1)
		go func() {
			defer choreo.Done()
			if !waitProgress(total / 2) {
				return
			}
			victim := firstHealthy(g)
			if victim == "" {
				return
			}
			if err := fleet.Kill(victim); err != nil {
				record("kill " + victim + " failed: " + err.Error())
				return
			}
			record("kill " + victim + " at 1/2: crash, sessions recreated by clients")
		}()
	}

	root := rng.New(w.seed)
	seeds := make([]int64, w.sessions)
	for i := range seeds {
		seeds[i] = root.Int63()
	}
	start := clk()
	run.results = make([]*fleetSessionResult, w.sessions)
	var wg sync.WaitGroup
	for i := 0; i < w.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run.results[i] = runFleetSession(clk, slp, base, w, seeds[i], m, fo.kill, clientRec, &progress)
		}(i)
	}
	wg.Wait()
	run.elapsed = clk().Sub(start).Seconds()
	close(loadDone)
	choreo.Wait()

	// With the load gone the signals run cold; give the autoscaler time to
	// shrink back to Min so the committed run shows the full cycle.
	if scaleMin > 0 {
		deadline := clk().Add(20 * time.Second)
		for len(g.Replicas()) > scaleMin && clk().Before(deadline) {
			slp.Sleep(100 * time.Millisecond)
		}
	}

	var buf bytes.Buffer
	g.Registry().WriteText(&buf)
	run.metricsText = buf.String()
	if fo.spillDir != "" {
		for _, id := range fleet.IDs() {
			url, ok := fleet.URL(id)
			if !ok {
				continue
			}
			text, err := serve.NewClient(url, nil).Metrics()
			if err != nil {
				continue
			}
			mv := func(name string) int {
				v, _ := serve.MetricValue(text, name)
				return int(v)
			}
			run.store.hot += mv("hom_sessions_hot")
			run.store.cold += mv("hom_sessions_cold")
			run.store.spills += mv("hom_spill_total")
			run.store.hydrates += mv("hom_hydrate_total")
			run.store.walReplayed += mv("hom_wal_replayed_records_total")
		}
	}
	run.replicasEnd = len(g.Replicas())
	if run.replicasEnd > run.maxReplicas {
		run.maxReplicas = run.replicasEnd
	}

	if fo.flightDir != "" {
		flight.Lock()
		recs := append([]*obs.Recorder(nil), flight.recs...)
		flight.Unlock()
		for _, rec := range recs {
			if err := writeFlightDump(fo.flightDir, rec); err != nil {
				return nil, err
			}
		}
	}
	return run, nil
}

// writeFlightDump persists one process's end-of-run ring snapshot.
func writeFlightDump(dir string, rec *obs.Recorder) error {
	f, err := os.Create(filepath.Join(dir, rec.Proc()+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteDump(f, "end_of_run"); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// firstHealthy returns the lowest-id healthy replica, or "".
func firstHealthy(g *gate.Gateway) string {
	for _, ri := range g.Replicas() {
		if ri.Healthy {
			return ri.ID
		}
	}
	return ""
}

// fleetSummary is the schema of a fleet run's JSON summary.
type fleetSummary struct {
	Config struct {
		Replicas          int     `json:"replicas"`
		Sessions          int     `json:"sessions"`
		RecordsPerSession int     `json:"records_per_session"`
		Batch             int     `json:"batch"`
		Stream            string  `json:"stream"`
		Seed              int64   `json:"seed"`
		ServiceDelayMS    float64 `json:"service_delay_ms"`
		Churn             bool    `json:"churn"`
		Kill              bool    `json:"kill"`
		Autoscale         string  `json:"autoscale"`
		GoMaxProcs        int     `json:"gomaxprocs"`
	} `json:"config"`
	Requests struct {
		Attempted  int `json:"attempted"`
		Succeeded  int `json:"succeeded"`
		Retried429 int `json:"retried_429"`
		Failed     int `json:"failed"`
		LostEvents int `json:"lost_events"`
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
	Gate struct {
		MigrationsTotal   int `json:"migrations_total"`
		MigrationFailures int `json:"migration_failures"`
		RebalanceMoved    int `json:"rebalance_moved"`
		ParkedTotal       int `json:"parked_total"`
		SessionsLost      int `json:"sessions_lost"`
		ReplicasEnd       int `json:"replicas_end"`
	} `json:"gate"`
	Store struct {
		Enabled      bool `json:"enabled"`
		HotSessions  int  `json:"hot_sessions"`
		WAL          bool `json:"wal"`
		HotEnd       int  `json:"hot_end"`
		ColdEnd      int  `json:"cold_end"`
		SpillTotal   int  `json:"spill_total"`
		HydrateTotal int  `json:"hydrate_total"`
		WALReplayed  int  `json:"wal_replayed_records"`
	} `json:"store"`
	Verify struct {
		Checked      bool `json:"checked"`
		Sessions     int  `json:"sessions"`
		BitIdentical bool `json:"bit_identical"`
	} `json:"verify"`
	Autoscale struct {
		Enabled     bool     `json:"enabled"`
		MaxReplicas int      `json:"max_replicas"`
		Decisions   []string `json:"decisions"`
	} `json:"autoscale"`
	ChurnEvents []string `json:"churn_events,omitempty"`
}

// fleetSummarize folds one run into the JSON schema.
func fleetSummarize(run *fleetRun, w fleetWorkload, fo fleetOptions) *fleetSummary {
	s := &fleetSummary{}
	s.Config.Replicas = fo.replicas
	s.Config.Sessions = w.sessions
	s.Config.RecordsPerSession = w.records
	s.Config.Batch = w.batch
	s.Config.Stream = w.stream
	s.Config.Seed = w.seed
	s.Config.ServiceDelayMS = float64(fo.serviceDelay) / float64(time.Millisecond)
	s.Config.Churn = fo.churn
	s.Config.Kill = fo.kill
	s.Config.Autoscale = fo.autoscale
	s.Config.GoMaxProcs = runtime.GOMAXPROCS(0)

	var lats []float64
	s.Verify.BitIdentical = true
	for _, r := range run.results {
		s.Requests.Attempted += r.attempted
		s.Requests.Succeeded += r.succeeded
		s.Requests.Retried429 += r.retried
		s.Requests.Failed += r.failed
		s.Requests.LostEvents += r.lost
		s.Records += r.records
		s.PredictionErrors += r.predErrors
		lats = append(lats, r.latencies...)
		if r.verified {
			s.Verify.Checked = true
			s.Verify.Sessions++
			if !r.bitIdentical {
				s.Verify.BitIdentical = false
			}
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "homload: fleet session error: %v\n", r.err)
		}
	}
	if !s.Verify.Checked {
		s.Verify.BitIdentical = false
	}
	if s.Records > 0 {
		s.ErrorRate = float64(s.PredictionErrors) / float64(s.Records)
	}
	s.ElapsedSeconds = run.elapsed
	if run.elapsed > 0 {
		s.RequestsPerSecond = float64(s.Requests.Succeeded) / run.elapsed
		s.RecordsPerSecond = float64(s.Records) / run.elapsed
	}
	sort.Float64s(lats)
	s.LatencyMS.P50 = percentileMS(lats, 0.50)
	s.LatencyMS.P90 = percentileMS(lats, 0.90)
	s.LatencyMS.P99 = percentileMS(lats, 0.99)
	if n := len(lats); n > 0 {
		s.LatencyMS.Max = lats[n-1] * 1000
	}

	gv := func(name string) int {
		v, _ := serve.MetricValue(run.metricsText, name)
		return int(v)
	}
	s.Gate.MigrationsTotal = gv("hom_gate_migrations_total")
	s.Gate.MigrationFailures = gv("hom_gate_migration_failures_total")
	s.Gate.RebalanceMoved = gv("hom_gate_rebalance_moved")
	s.Gate.ParkedTotal = gv("hom_gate_parked_total")
	s.Gate.SessionsLost = gv("hom_gate_sessions_lost_total")
	s.Gate.ReplicasEnd = run.replicasEnd

	s.Store.Enabled = fo.spillDir != ""
	s.Store.HotSessions = fo.hotSessions
	s.Store.WAL = fo.wal
	s.Store.HotEnd = run.store.hot
	s.Store.ColdEnd = run.store.cold
	s.Store.SpillTotal = run.store.spills
	s.Store.HydrateTotal = run.store.hydrates
	s.Store.WALReplayed = run.store.walReplayed

	s.Autoscale.Enabled = fo.autoscale != ""
	s.Autoscale.MaxReplicas = run.maxReplicas
	for _, d := range run.decisions {
		s.Autoscale.Decisions = append(s.Autoscale.Decisions, d.Action+" "+d.Replica+": "+d.Reason)
	}
	s.ChurnEvents = run.churnEvents
	return s
}

// runFleet is the fleet-mode entry point: one run, its JSON summary, and
// the verdict. It exits the process like main's single-server path does.
func runFleet(clk clock.Clock, slp clock.Sleeper, modelPath, out string, w fleetWorkload, fo fleetOptions) {
	m, err := dataio.LoadModel(modelPath)
	if err != nil {
		fail(err)
	}
	run, err := runFleetOnce(clk, slp, m, w, fo)
	if err != nil {
		fail(err)
	}
	sum := fleetSummarize(run, w, fo)

	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("homload: fleet %d sessions x %d records: %.0f records/s, %d migrations, %d lost events, verify=%v -> %s\n",
		w.sessions, w.records, sum.RecordsPerSecond, sum.Gate.MigrationsTotal, sum.Requests.LostEvents, sum.Verify.BitIdentical, out)

	accounted := sum.Requests.Succeeded + sum.Requests.Retried429 + sum.Requests.Failed + sum.Requests.LostEvents
	switch {
	case sum.Requests.Failed > 0 || sum.Requests.Attempted != accounted:
		fmt.Fprintf(os.Stderr, "homload: fleet request accounting: %+v\n", sum.Requests)
		os.Exit(1)
	case !sum.Verify.BitIdentical:
		fmt.Fprintln(os.Stderr, "homload: served state diverged from the offline twin")
		os.Exit(1)
	}
}
