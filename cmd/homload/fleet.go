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
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/fault"
	"highorder/internal/gate"
	"highorder/internal/obs"
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
}

// gateSummary is the fleet summary's gateway section, scraped from the
// gateway's registry at the end of the run.
type gateSummary struct {
	MigrationsTotal   int `json:"migrations_total"`
	MigrationFailures int `json:"migration_failures"`
	RebalanceMoved    int `json:"rebalance_moved"`
	ParkedTotal       int `json:"parked_total"`
	SessionsLost      int `json:"sessions_lost"`
	ReplicasEnd       int `json:"replicas_end"`
}

// storeSummary sums the tiered-store counters scraped from every replica
// still alive at the end of the run (killed replicas take their counters
// with them).
type storeSummary struct {
	Enabled      bool `json:"enabled"`
	HotSessions  int  `json:"hot_sessions"`
	WAL          bool `json:"wal"`
	HotEnd       int  `json:"hot_end"`
	ColdEnd      int  `json:"cold_end"`
	SpillTotal   int  `json:"spill_total"`
	HydrateTotal int  `json:"hydrate_total"`
	WALReplayed  int  `json:"wal_replayed_records"`
}

// autoscaleSummary records the autoscaler's decisions.
type autoscaleSummary struct {
	Enabled     bool     `json:"enabled"`
	MaxReplicas int      `json:"max_replicas"`
	Decisions   []string `json:"decisions"`
}

// runFleet boots replicas + gateway, drives the workload through the
// gateway, applies the requested churn/kill/autoscale choreography, tears
// everything down, and returns the run's summary with its gate, store and
// autoscale sections. opts are the replicas' serving options; a spill
// directory in opts.Tier gives each replica its own subtree under it.
func runFleet(clk clock.Clock, slp clock.Sleeper, m *core.Model, w workload, opts serve.Options, fo fleetOptions) (*summary, error) {
	if fo.serviceDelay > 0 {
		// Every observe batch stalls by the configured service delay, so a
		// replica's throughput is latency-bound: honest near-linear scaling
		// even when the host has fewer cores than replicas.
		opts.Fault = fault.New(w.seed, fault.Plan{fault.LabelDelay: {Prob: 1, Delay: fo.serviceDelay}})
	}
	spillDir := opts.Tier.SpillDir
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
	if spillDir != "" {
		// Tiered replicas: each gets its own spill subtree so segment and
		// WAL files never collide across the fleet. Chained after the
		// flight hook so both customizations compose.
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		inner := fleet.ReplicaOptions
		fleet.ReplicaOptions = func(id string, opts serve.Options) serve.Options {
			if inner != nil {
				opts = inner(id, opts)
			}
			opts.Tier.SpillDir = filepath.Join(spillDir, id)
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

	var (
		runMu       sync.Mutex
		decisions   []gate.Decision
		churnEvents []string
	)
	maxReplicas := fo.replicas
	scaleMin := 0
	if fo.autoscale != "" {
		minR, maxR, err := gate.ParseBounds(fo.autoscale)
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
			decisions = append(decisions, d)
			maxReplicas = max(maxReplicas, len(g.Replicas()))
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
		churnEvents = append(churnEvents, ev)
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

	results := runSessions(slp, base, w, m, fo.kill, clientRec, &progress)
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

	sum := summarize(results, w)
	sum.Config.Replicas = fo.replicas
	sum.Config.ServiceDelayMS = float64(fo.serviceDelay) / float64(time.Millisecond)
	sum.Config.Churn = fo.churn
	sum.Config.Kill = fo.kill
	sum.Config.Autoscale = fo.autoscale

	var buf bytes.Buffer
	g.Registry().WriteText(&buf)
	gv := func(name string) int {
		v, _ := serve.MetricValue(buf.String(), name)
		return int(v)
	}
	replicasEnd := len(g.Replicas())
	sum.Gate = &gateSummary{
		MigrationsTotal:   gv("hom_gate_migrations_total"),
		MigrationFailures: gv("hom_gate_migration_failures_total"),
		RebalanceMoved:    gv("hom_gate_rebalance_moved"),
		ParkedTotal:       gv("hom_gate_parked_total"),
		SessionsLost:      gv("hom_gate_sessions_lost_total"),
		ReplicasEnd:       replicasEnd,
	}

	sum.Store = &storeSummary{Enabled: spillDir != "", HotSessions: opts.Tier.HotSessions, WAL: opts.Tier.WAL}
	if spillDir != "" {
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
			sum.Store.HotEnd += mv("hom_sessions_hot")
			sum.Store.ColdEnd += mv("hom_sessions_cold")
			sum.Store.SpillTotal += mv("hom_spill_total")
			sum.Store.HydrateTotal += mv("hom_hydrate_total")
			sum.Store.WALReplayed += mv("hom_wal_replayed_records_total")
		}
	}

	runMu.Lock()
	sum.Autoscale = &autoscaleSummary{Enabled: fo.autoscale != "", MaxReplicas: max(maxReplicas, replicasEnd)}
	for _, d := range decisions {
		sum.Autoscale.Decisions = append(sum.Autoscale.Decisions, d.Action+" "+d.Replica+": "+d.Reason)
	}
	sum.ChurnEvents = churnEvents
	runMu.Unlock()

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
	return sum, nil
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
