package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"highorder/internal/clock"
)

// tinySizes shrinks every workload so the whole harness runs in seconds.
func tinySizes() sizes {
	s := benchSizes
	s.SetupRepeats = 2
	s.Slice = 200 * time.Millisecond
	s.Calibration, s.CalibrationSlice = 20*time.Millisecond, 5*time.Millisecond
	s.ModelHistory = 4000
	s.TrainHistories, s.TrainHistory, s.TrainContinuation = 2, 3000, 400
	s.StreamSessions = 16
	s.BulkSessions, s.BulkWarm, s.BulkBatch, s.BulkPool = 4, 64, 128, 2
	s.FleetSessions, s.FleetHot = 400, 8
	s.ReplayOps, s.HashOps = 300, 50
	return s
}

func TestOpsHashDeterminism(t *testing.T) {
	sz := tinySizes()
	for _, w := range workloads {
		a, b := opsHash(w.Name, 7, &sz), opsHash(w.Name, 7, &sz)
		if a != b {
			t.Errorf("%s: seed 7 hashed %s then %s", w.Name, a, b)
		}
		if c := opsHash(w.Name, 8, &sz); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs (%s)", w.Name, a)
		}
	}
}

// TestFleetOpsShape checks the fleet op stream: creates come first for a
// worker, every op touches only the worker's own sessions, and reuse only
// picks sessions already created.
func TestFleetOpsShape(t *testing.T) {
	sz := tinySizes()
	created := map[int]bool{}
	creates := 0
	const n = 2000
	for w := 0; w < sz.Workers; w++ {
		g := newOpGen(wFleetTiered, 3, w, &sz)
		for i := 0; i < n; i++ {
			o := g.next()
			if o.session%sz.Workers != w {
				t.Fatalf("worker %d op %d touches session %d", w, i, o.session)
			}
			switch o.kind {
			case opCreate:
				if created[o.session] {
					t.Fatalf("session %d created twice", o.session)
				}
				created[o.session] = true
				creates++
			case opRound:
				if !created[o.session] {
					t.Fatalf("op %d reuses session %d before it exists", i, o.session)
				}
			}
		}
	}
	// 1 op in FleetCreateOneIn creates until the worker's share is full,
	// which ~500 create draws per worker reach.
	if creates != sz.FleetSessions {
		t.Errorf("%d creates over %d ops, want the cap %d", creates, sz.Workers*n, sz.FleetSessions)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and the
// metric and workload tables hombench reports from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from the code's:\n%+v\n%+v", bj.Workloads, workloads)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code's:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's:\n%+v\n%+v", bj.PerLayer, perLayer)
	}
	if want := []string{"bash", "cmd/hombench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny sizes through the real
// binaries — boot, closed loop, scrape, twin checks, and fleet-tiered's
// SIGKILL and restart of r0 — and the traced replay on fleet-tiered.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the servers")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "bin")
	if err := buildServers(filepath.Join("..", ".."), bin); err != nil {
		t.Fatal(err)
	}
	sz := tinySizes()
	run := func(name string, traced bool) *result {
		t.Helper()
		dir := filepath.Join(work, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		rc := &runCtx{
			workload: name, seed: 5, window: 700 * time.Millisecond, traced: traced,
			sz: &sz, dir: dir, bin: bin, inflight: runtime.NumCPU(), clk: clock.Clock(nil).OrWall(),
		}
		if traced {
			rc.tr = newTracer(rc.clk)
		}
		res, err := runWorkload(rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct %v, %d of %d failed: %v", name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, d := range want {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, d.Name)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
		}
		return res
	}
	for _, w := range workloads {
		res := run(w.Name, false)
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		if w.Name == wFleetTiered && (res.Extras["recover_s"] <= 0 || res.Extras["r0_sessions_checked"] < 1) {
			t.Errorf("fleet-tiered: restart of r0 not checked: %v", res.Extras)
		}

		// Every per-layer timing is measured on every workload.
		res = run(w.Name, true)
		for _, d := range perLayer {
			if timeUnits[d.Unit] && !(res.Metrics[d.Name] > 0) {
				t.Errorf("traced %s: %s = %v, want > 0", w.Name, d.Name, res.Metrics[d.Name])
			}
		}
	}
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}
