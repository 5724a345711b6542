// Command hombench is the repository's benchmark. For one of four seeded
// workloads it prepares the inputs, builds and boots the real homserve and
// homgate binaries as child processes (train runs core.Build in process),
// drives a closed-loop load for a fixed window from this one process with
// at most NumCPU requests in flight, checks every output against an offline
// twin, and prints each metric as "workload metric value unit" followed by a
// one-line JSON result.
//
// Usage, from the repository root (run.sh builds hombench into .bench_build
// and keeps the Go build cache there):
//
//	bash cmd/hombench/run.sh -workload stream-json -seed 7 -seconds 15
//	bash cmd/hombench/run.sh -workload all -seed 7 -out results/a
//	bash cmd/hombench/run.sh -workload fleet-tiered -trace 1 -trace-out fleet.json
//	bash cmd/hombench/run.sh -compare results/a results/b
//
// With -trace 1 the run keeps spans and reports the per-layer metrics
// instead of the end-to-end ones; -compare reads two directories of result
// files and judges every end-to-end metric against its bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"highorder/internal/clock"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hombench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "train, stream-json, bulk-binary, fleet-tiered, or all")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	secs := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 keeps spans and reports per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1: Chrome trace-event file (default <work>/trace-<workload>-<seed>.json)")
	outDir := fs.String("out", "", "also write each workload's full result as JSON into this directory")
	work := fs.String("work", ".bench_build", "directory for binaries, models and server data")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hombench: -compare needs two result directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "hombench: -trace must be 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if !knownWorkload(n) {
			fmt.Fprintf(stderr, "hombench: unknown workload %q\n", n)
			return 2
		}
	}
	if *traceOut != "" && len(names) > 1 {
		fmt.Fprintln(stderr, "hombench: -trace-out names one file; use it with a single -workload")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "hombench: -seconds must be positive")
		return 2
	}

	b := bench{
		root: ".", work: *work, seed: *seed,
		window: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1, traceOut: *traceOut, outDir: *outDir,
		sz: benchSizes, stderr: stderr,
	}
	results, err := b.runAll(names)
	if err != nil {
		fmt.Fprintf(stderr, "hombench: %v\n", err)
		return 1
	}
	return report(results, stdout, stderr)
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// bench is one invocation's settings.
type bench struct {
	root, work string
	seed       int64
	window     time.Duration
	traced     bool
	traceOut   string
	outDir     string
	sz         sizes
	stderr     io.Writer
}

// runCtx is one workload run.
type runCtx struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	sz       *sizes
	dir      string // the run's scratch directory
	bin      string // homserve and homgate
	inflight int    // the load generator's cap on requests in flight
	clk      clock.Clock
	tr       *tracer // nil unless traced
}

func (b *bench) runAll(names []string) ([]*result, error) {
	work, err := filepath.Abs(b.work)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(work, "bin")
	if err := buildServers(b.root, bin); err != nil {
		return nil, err
	}
	env, err := captureEnv(b.root)
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, name := range names {
		dir := filepath.Join(work, "runs", fmt.Sprintf("%s-seed%d-pid%d", name, b.seed, os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rc := &runCtx{
			workload: name, seed: b.seed, window: b.window, traced: b.traced,
			sz: &b.sz, dir: dir, bin: bin, inflight: runtime.NumCPU(),
			clk: clock.Clock(nil).OrWall(),
		}
		if b.traced {
			rc.tr = newTracer(rc.clk)
		}
		res, err := runWorkload(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.dropNonFinite()
		res.Env = env
		res.Env.Seed, res.Env.Seconds, res.Env.Sizes = b.seed, b.window.Seconds(), b.sz
		res.Env.OpsSHA256 = opsHash(name, b.seed, &b.sz)
		if b.traced {
			if err := b.writeTrace(rc); err != nil {
				return nil, err
			}
		}
		if b.outDir != "" {
			if err := writeResult(b.outDir, res); err != nil {
				return nil, err
			}
		}
		// Server data can run to hundreds of MB; a finished run keeps
		// nothing but what it reported.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func runWorkload(rc *runCtx) (*result, error) {
	if rc.workload == wTrain {
		return runTrain(rc)
	}
	return runServing(rc)
}

func (b *bench) writeTrace(rc *runCtx) error {
	path := b.traceOut
	if path == "" {
		path = filepath.Join(b.work, fmt.Sprintf("trace-%s-%d.json", rc.workload, rc.seed))
	}
	if err := rc.tr.writeChrome(path); err != nil {
		return err
	}
	rc.tr.writeTable(b.stderr, rc.workload)
	fmt.Fprintf(b.stderr, "# %s trace written to %s\n", rc.workload, path)
	return nil
}

// result is one workload run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Retried   int64              `json:"retried"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Extras    map[string]float64 `json:"extras"`
	Env       environment        `json:"env"`
}

func newResult(rc *runCtx) *result {
	return &result{Workload: rc.workload, Traced: rc.traced, Correct: true, Extras: make(map[string]float64)}
}

// problem records a correctness failure; the run then reports
// "correct": false and exits nonzero.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// dropNonFinite keeps the result JSON-encodable: a metric that could not be
// measured (a failed op's infinite latency, an empty sample) is reported as
// -1 and makes the run incorrect; such an extra is left out.
func (r *result) dropNonFinite() {
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s could not be measured (%v)", k, v)
			r.Metrics[k] = -1
		}
	}
	for k, v := range r.Extras {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.Extras, k)
		}
	}
}

// extraUnits are the units of the metrics printed beside the contract set.
var extraUnits = map[string]string{
	"ops": "count", "scrape_ms": "ms", "recover_s": "s", "error_rate": "ratio",
	"r0_sessions_checked": "count", "calibration_factor": "ratio",
	"calibration_cpu": "ratio", "calibration_http": "ratio", "calibration_mem": "ratio",
}

func unitOf(name string) string {
	name = strings.TrimSuffix(name, "_raw")
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return extraUnits[name]
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric as "workload metric value unit" and, last, the
// one-line JSON result. With several workloads the JSON metric names are
// prefixed with the workload.
func report(results []*result, stdout, stderr io.Writer) int {
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range results {
		for _, m := range sortedKeys(r.Metrics) {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", r.Workload, m, r.Metrics[m], unitOf(m))
			key := m
			if len(results) > 1 {
				key = r.Workload + "." + m
			}
			final.Metrics[key] = jsonMetric{r.Metrics[m], unitOf(m)}
		}
		for _, m := range sortedKeys(r.Extras) {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", r.Workload, m, r.Extras[m], unitOf(m))
		}
		fmt.Fprintf(stdout, "%s attempted %d failed %d retried %d correct %v ops_sha256 %s\n",
			r.Workload, r.Attempted, r.Failed, r.Retried, r.Correct, r.Env.OpsSHA256)
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "hombench: %s: %s\n", r.Workload, p)
		}
		final.Correct = final.Correct && r.Correct && r.Failed == 0
		final.Attempted += r.Attempted
		final.Failed += r.Failed
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "hombench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Env.Seed)
	if r.Traced {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}
