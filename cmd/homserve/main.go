// Command homserve serves a persisted high-order model as a concurrent
// online-prediction HTTP service. Each client stream opens a session that
// owns its active-probability state; each classify and observe runs on its
// own handler goroutine, at most -workers at once, with at most -queue
// more waiting for a slot and 429 backpressure beyond that; /metrics
// exposes Prometheus-format counters. SIGINT/SIGTERM drain in-flight work
// before exit.
//
// Usage:
//
//	homserve -model model.gob [-addr :8080] [-queue 256] [-workers N]
//	         [-ttl 15m] [-max-sessions 10000]
//	         [-request-timeout 10s] [-shed-depth 0]
//	         [-debug-addr 127.0.0.1:6060]
//	         [-flight-sample N] [-flight-slots 4096] [-flight-dir dumps/]
//	         [-spill-dir sessions/ -hot-sessions 1024 -wal]
//
// The model is compiled at boot (internal/compiled); every model homtrain
// writes compiles, and a model the compiler rejects is refused with an
// error naming the concept.
//
// Without -spill-dir, sessions live in memory: -max-sessions bounds them
// and -ttl discards idle ones. -spill-dir enables the tiered session
// store: a bounded in-memory hot set over on-disk snapshot segments.
// Sessions evicted by pressure or TTL spill to disk and rehydrate
// transparently on their next request, so the session population is
// bounded by disk, not RAM. With -wal every acknowledged observe batch is
// fsync'd to a write-ahead label log before the response, and replayed on
// restart — acknowledged labels survive kill -9. -hot-sessions and -wal
// need -spill-dir: without it homserve refuses to start.
//
// -flight-sample enables the always-on flight recorder: spans for ~1 in N
// traces land in a fixed-size in-memory ring, dumpable on demand via
// POST /admin/flightdump and automatically on deadline-expiry, shed, and
// injected faults (written to -flight-dir when set). See cmd/homtrace for
// merging dumps across the fleet.
//
// -debug-addr starts a second listener with net/http/pprof profiles under
// /debug/pprof/ and expvar runtime counters under /debug/vars. It is off
// by default and should be bound to loopback: the profile endpoints are
// diagnostic surface, not part of the serving API.
//
// API:
//
//	POST   /v1/sessions                  open a session
//	GET    /v1/sessions                  list sessions (introspection)
//	GET    /v1/sessions/{id}             session info (active probabilities, explained rate)
//	GET    /v1/sessions/{id}/state       predictor snapshot
//	DELETE /v1/sessions/{id}             close a session
//	POST   /v1/sessions/{id}/classify    classify a batch of records
//	POST   /v1/sessions/{id}/observe     feed labeled records (cue stream)
//	GET    /metrics                      Prometheus text metrics
//	GET    /healthz                      liveness
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"highorder/internal/dataio"
	"highorder/internal/obs"
	"highorder/internal/serve"
)

func main() {
	modelPath := flag.String("model", "model.gob", "persisted high-order model")
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 0, "classify/observe requests that may wait for an execution slot before 429 (0 = default 256)")
	workers := flag.Int("workers", 0, "execution slots: classify/observe requests run at once (0 = GOMAXPROCS)")
	ttl := flag.Duration("ttl", 15*time.Minute, "idle session time-to-live")
	maxSessions := flag.Int("max-sessions", 0, "live session limit (0 = default 10000)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline for the slot and session-lock wait; expired requests answer 503 without running (0 = default 10s)")
	shedDepth := flag.Int("shed-depth", 0, "waiting requests at which new work is shed with 503 before -queue is full (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "optional listen address for /debug/pprof/* and /debug/vars (off when empty)")
	flightSample := flag.Uint64("flight-sample", 0, "flight recorder: keep ~1 in N traces (0 = recorder off, 1 = every trace)")
	flightSlots := flag.Int("flight-slots", 0, "flight recorder ring capacity in spans (0 = default 4096)")
	flightDir := flag.String("flight-dir", "", "write fault-triggered flight dumps into this directory (with -flight-sample)")
	flightProc := flag.String("flight-proc", "homserve", "process name stamped on flight dumps")
	spillDir := flag.String("spill-dir", "", "tiered session store: directory for disk spill segments (empty = tiering off: at most -max-sessions sessions, which die with the process)")
	hotSessions := flag.Int("hot-sessions", 0, "tiered session store: in-memory hot-set bound (0 = default 1024; needs -spill-dir)")
	wal := flag.Bool("wal", false, "tiered session store: fsync a write-ahead label log so acknowledged observes survive a crash (needs -spill-dir)")
	flag.Parse()

	m, err := dataio.LoadModel(*modelPath)
	if err != nil {
		fail(err)
	}
	var rec *obs.Recorder
	if *flightSample > 0 {
		rec = obs.NewRecorder(obs.FlightConfig{
			Proc:        *flightProc,
			Slots:       *flightSlots,
			SampleOneIn: *flightSample,
		})
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fail(err)
			}
			dir := *flightDir
			rec.OnTrigger(func(d obs.FlightDump) { writeTriggeredDump(dir, d) })
		}
		fmt.Printf("homserve: flight recorder on (1 in %d, %s)\n", *flightSample, *flightProc)
	}
	s, err := serve.NewTiered(m, serve.Options{
		QueueDepth:     *queue,
		Workers:        *workers,
		SessionTTL:     *ttl,
		MaxSessions:    *maxSessions,
		RequestTimeout: *requestTimeout,
		ShedDepth:      *shedDepth,
		Recorder:       rec,
		Tier: serve.TierOptions{
			SpillDir:    *spillDir,
			HotSessions: *hotSessions,
			WAL:         *wal,
		},
	})
	if err != nil {
		fail(err)
	}
	if *spillDir != "" {
		fmt.Printf("homserve: tiered sessions on (spill %s, hot %d, wal %v)\n", *spillDir, *hotSessions, *wal)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(err)
		}
		go serveDebug(dl)
		fmt.Printf("homserve: debug endpoints (pprof, expvar) on %s\n", dl.Addr())
	}

	fmt.Printf("homserve: serving %d-concept model from %s on %s\n", m.NumConcepts(), *modelPath, l.Addr())
	if err := s.Serve(ctx, l); err != nil {
		fail(err)
	}
	fmt.Println("homserve: drained, bye")
}

// serveDebug exposes the diagnostic endpoints on their own mux so nothing
// registers on http.DefaultServeMux and nothing leaks onto the API
// listener. Best-effort: debug serving errors never take the server down.
func serveDebug(l net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if err := http.Serve(l, mux); err != nil {
		fmt.Fprintf(os.Stderr, "homserve: debug listener: %v\n", err)
	}
}

// writeTriggeredDump persists a fault-triggered flight dump. Best-effort:
// a full disk must never take the serving path down.
func writeTriggeredDump(dir string, d obs.FlightDump) {
	name := fmt.Sprintf("%s-%s-%d.json", d.Proc, d.Reason, d.CapturedNS)
	b, err := json.MarshalIndent(d, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "homserve: flight dump: %v\n", err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homserve: %v\n", err)
	os.Exit(1)
}
