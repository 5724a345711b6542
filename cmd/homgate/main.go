// Command homgate fronts a fleet of homserve replicas with a
// session-routing gateway: session ids are consistent-hashed onto the
// replica ring, replica join/leave triggers live migration of only the
// sessions whose ring owner changed, a health loop quarantines dead
// replicas, and an optional metrics-driven autoscaler grows and shrinks
// a self-hosted fleet.
//
// Two deployment shapes:
//
//   - External replicas: start homserve processes yourself and hand their
//     addresses to -replica (repeatable). More replicas can join or leave
//     at runtime through POST/DELETE /admin/replicas.
//   - Self-hosted fleet: give -model and -fleet N and homgate boots N
//     in-process replicas on loopback listeners. Only this shape can
//     autoscale (-autoscale min:max), because scaling needs the authority
//     to provision replicas, not just route to them.
//
// Usage:
//
//	homgate -listen :8090 -replica r1=http://10.0.0.1:8080 -replica r2=http://10.0.0.2:8080
//	homgate -listen :8090 -model model.gob -fleet 3
//	homgate -listen :8090 -model model.gob -fleet 1 -autoscale 1:4
//
// API (forwarded):  /v1/sessions*, per-session classify/observe/state.
// API (gateway):    /metrics, /healthz, GET/POST /admin/replicas,
// DELETE /admin/replicas/{id}, POST /admin/migrate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"highorder/internal/dataio"
	"highorder/internal/gate"
	"highorder/internal/obs"
	"highorder/internal/serve"
)

// replicaFlags collects repeatable -replica id=url pairs in order.
type replicaFlags []struct{ id, url string }

func (r *replicaFlags) String() string { return fmt.Sprintf("%d replicas", len(*r)) }

func (r *replicaFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return errors.New(`want "id=url"`)
	}
	*r = append(*r, struct{ id, url string }{id, url})
	return nil
}

func main() {
	var replicas replicaFlags
	listen := flag.String("listen", ":8090", "gateway listen address")
	flag.Var(&replicas, "replica", `external replica as "id=http://host:port" (repeatable)`)
	modelPath := flag.String("model", "", "model for a self-hosted in-process fleet (mutually exclusive with -replica)")
	fleetN := flag.Int("fleet", 1, "self-hosted replica count at boot (with -model)")
	autoscale := flag.String("autoscale", "", `autoscale bounds "min:max" (with -model; empty = off)`)
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 128)")
	healthInterval := flag.Duration("health-interval", time.Second, "replica health-probe period")
	healthFails := flag.Int("health-fails", 0, "consecutive probe failures that quarantine a replica (0 = default 2)")
	scaleInterval := flag.Duration("scale-interval", 2*time.Second, "autoscaler tick period")
	highQueue := flag.Float64("scale-high-queue", 0, "scale up at this fleet-average queue depth (0 = default 8)")
	highP99 := flag.Duration("scale-high-p99", 0, "scale up when any replica's classify p99 reaches this (0 = off)")
	queue := flag.Int("queue", 0, "self-hosted replica: requests that may wait for an execution slot (0 = default)")
	workers := flag.Int("workers", 0, "self-hosted replica: execution slots (0 = GOMAXPROCS)")
	flightSample := flag.Uint64("flight-sample", 0, "flight recorder: keep ~1 in N traces on the gateway and self-hosted replicas (0 = off)")
	flightSlots := flag.Int("flight-slots", 0, "flight recorder ring capacity in spans (0 = default 4096)")
	flightDir := flag.String("flight-dir", "", "write fault-triggered flight dumps into this directory (with -flight-sample)")
	flag.Parse()

	if (*modelPath != "") == (len(replicas) != 0) {
		fmt.Fprintln(os.Stderr, "homgate: exactly one of -model or -replica is required")
		os.Exit(2)
	}
	if *autoscale != "" && *modelPath == "" {
		fmt.Fprintln(os.Stderr, "homgate: -autoscale needs a self-hosted fleet (-model)")
		os.Exit(2)
	}

	var gateRec *obs.Recorder
	if *flightSample > 0 {
		if *flightDir != "" {
			if err := os.MkdirAll(*flightDir, 0o755); err != nil {
				fail(err)
			}
		}
		gateRec = newFlightRecorder("gate", *flightSample, *flightSlots, *flightDir)
		fmt.Printf("homgate: flight recorder on (1 in %d)\n", *flightSample)
	}

	g := gate.New(gate.Config{
		Vnodes:         *vnodes,
		HealthInterval: *healthInterval,
		HealthFails:    *healthFails,
		Recorder:       gateRec,
	})

	var fleet *gate.Fleet
	if *modelPath != "" {
		m, err := dataio.LoadModel(*modelPath)
		if err != nil {
			fail(err)
		}
		if *fleetN < 1 {
			fail(errors.New("-fleet must be at least 1"))
		}
		fleet = gate.NewFleet(m, serve.Options{QueueDepth: *queue, Workers: *workers})
		if *flightSample > 0 {
			sample, slots, dir := *flightSample, *flightSlots, *flightDir
			fleet.ReplicaOptions = func(id string, opts serve.Options) serve.Options {
				opts.Recorder = newFlightRecorder(id, sample, slots, dir)
				return opts
			}
		}
		defer fleet.Close()
		for i := 0; i < *fleetN; i++ {
			id, url, err := fleet.ScaleUp()
			if err != nil {
				fail(err)
			}
			if err := g.Join(id, url); err != nil {
				fail(fmt.Errorf("joining self-hosted replica %s: %w", id, err))
			}
			fmt.Printf("homgate: replica %s on %s\n", id, url)
		}
	} else {
		for _, r := range replicas {
			if err := g.Join(r.id, r.url); err != nil {
				fail(fmt.Errorf("joining replica %s at %s: %w", r.id, r.url, err))
			}
			fmt.Printf("homgate: replica %s at %s\n", r.id, r.url)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go g.HealthLoop(ctx.Done())

	if *autoscale != "" {
		minR, maxR, err := gate.ParseBounds(*autoscale)
		if err != nil {
			fail(err)
		}
		a := gate.NewAutoscaler(g, fleet, gate.AutoscalerConfig{
			Min:       minR,
			Max:       maxR,
			HighQueue: *highQueue,
			HighP99:   *highP99,
			Interval:  *scaleInterval,
		})
		go a.Run(ctx.Done(), func(d gate.Decision, err error) {
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "homgate: autoscale: %v\n", err)
			case d.Action != "":
				fmt.Printf("homgate: autoscale %s %s (%s)\n", d.Action, d.Replica, d.Reason)
			}
		})
		fmt.Printf("homgate: autoscaling %d..%d replicas every %s\n", minR, maxR, *scaleInterval)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: g.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	fmt.Printf("homgate: routing %d replicas on %s\n", len(g.Replicas()), l.Addr())

	select {
	case err := <-served:
		fail(err)
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		fail(err)
	}
	fmt.Println("homgate: drained, bye")
}

// newFlightRecorder builds one process's flight recorder, persisting
// fault-triggered dumps into dir when set. Best-effort writes: a full disk
// must never take routing down.
func newFlightRecorder(proc string, sample uint64, slots int, dir string) *obs.Recorder {
	rec := obs.NewRecorder(obs.FlightConfig{Proc: proc, Slots: slots, SampleOneIn: sample})
	if dir != "" {
		rec.OnTrigger(func(d obs.FlightDump) {
			name := fmt.Sprintf("%s-%s-%d.json", d.Proc, d.Reason, d.CapturedNS)
			b, err := json.MarshalIndent(d, "", " ")
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "homgate: flight dump: %v\n", err)
			}
		})
	}
	return rec
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homgate: %v\n", err)
	os.Exit(1)
}
