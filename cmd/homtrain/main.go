// Command homtrain builds a high-order model from a historical CSV stream
// and persists it for use by hompredict.
//
// Usage:
//
//	homtrain -in history.csv -schema schema.json -o model.gob \
//	         [-block 10] [-seed 1] [-learner tree|bayes] \
//	         [-trace trace.json] [-bench-out BENCH_pipeline.json]
//
// -trace writes the offline pipeline's phase spans as a flight-recorder
// dump, the format POST /admin/flightdump writes; render it with
// `homtrace trace.json`. -bench-out writes the same spans summarized per
// phase — span counts, wall times and counts — as JSON (the committed
// BENCH_pipeline.json). The build's parallelism follows the GOMAXPROCS
// environment variable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"highorder/internal/bayes"
	"highorder/internal/core"
	"highorder/internal/dataio"
	"highorder/internal/obs"
)

func main() {
	in := flag.String("in", "", "historical labeled stream (CSV, required)")
	schemaPath := flag.String("schema", "", "stream schema (JSON, required)")
	out := flag.String("o", "model.gob", "output model path")
	block := flag.Int("block", 10, "concept-clustering block size (paper: 2-20)")
	seed := flag.Int64("seed", 1, "random seed")
	learner := flag.String("learner", "tree", "base learner: tree or bayes")
	tracePath := flag.String("trace", "", "write pipeline phase spans as a flight-recorder dump (render with homtrace)")
	benchOut := flag.String("bench-out", "", "write per-phase wall times as JSON")
	reuse := flag.Float64("reuse", core.DefaultOptions().ReuseRatio, "classifier-reuse ratio (§II-D); 0 disables reuse")
	earlyStop := flag.Int("earlystop", core.DefaultOptions().EarlyStopMinSize, "early-termination minimum cluster size (§II-D); 0 disables the freeze")
	flag.Parse()

	opts := core.DefaultOptions()
	opts.BlockSize = *block
	opts.Seed = *seed
	opts.ReuseRatio = *reuse
	opts.EarlyStopMinSize = *earlyStop
	switch *learner {
	case "tree":
	case "bayes":
		opts.Learner = bayes.NewLearner()
	default:
		fmt.Fprintf(os.Stderr, "homtrain: unknown learner %q\n", *learner)
		os.Exit(2)
	}

	if *in == "" || *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "homtrain: -in and -schema are required")
		os.Exit(2)
	}
	sf, err := os.Open(*schemaPath)
	if err != nil {
		fail(err)
	}
	schema, err := dataio.ReadSchema(sf)
	sf.Close()
	if err != nil {
		fail(err)
	}
	df, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	hist, err := dataio.ReadCSV(df, schema)
	df.Close()
	if err != nil {
		fail(err)
	}

	var rec *obs.Recorder
	if *tracePath != "" || *benchOut != "" {
		rec = buildRecorder(*seed)
		opts.Recorder = rec
	}

	m, err := core.Build(hist, opts)
	if err != nil {
		fail(err)
	}
	if err := dataio.SaveModel(*out, m); err != nil {
		fail(err)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, rec); err != nil {
			fail(err)
		}
		fmt.Printf("phase trace written to %s (render with: homtrace %s)\n", *tracePath, *tracePath)
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, m, hist.Len(), *block, *seed, *learner, rec); err != nil {
			fail(err)
		}
		fmt.Printf("pipeline bench written to %s\n", *benchOut)
	}
	fmt.Printf("built high-order model from %d records in %.2fs\n", hist.Len(), m.Stats.Elapsed.Seconds())
	fmt.Printf("concepts: %d (from %d occurrences)\n", m.NumConcepts(), len(m.Occurrences))
	for i, c := range m.Concepts {
		fmt.Printf("  concept %d: %d records, validation error %.4f, avg run %.0f records, frequency %.3f\n",
			i, c.Size, c.Err, c.Len, c.Freq)
	}
	fmt.Printf("model written to %s\n", *out)
}

// buildRecorder returns the flight recorder for one traced build. The
// build records from one goroutine, so one shard holds all 1<<14 slots;
// a build that laps them makes Summarize fail rather than under-count.
func buildRecorder(seed int64) *obs.Recorder {
	return obs.NewRecorder(obs.FlightConfig{Proc: "homtrain", Slots: 1 << 14, Shards: 1, Seed: seed})
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteDump(f, "build"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipelineBench is the BENCH_pipeline.json schema: the build configuration
// and the recorded spans' per-phase aggregate (span counts, wall seconds,
// summed span args).
type pipelineBench struct {
	Config struct {
		HistoryRecords int    `json:"history_records"`
		Block          int    `json:"block"`
		Seed           int64  `json:"seed"`
		Learner        string `json:"learner"`
		GoMaxProcs     int    `json:"gomaxprocs"`
		NumCPU         int    `json:"num_cpu"`
		GoVersion      string `json:"go_version"`
	} `json:"config"`
	Concepts       int                `json:"concepts"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Phases         []obs.PhaseSummary `json:"phases"`
}

func writeBench(path string, m *core.Model, records, block int, seed int64, learner string, rec *obs.Recorder) error {
	phases, err := obs.Summarize(rec.Snapshot("build"))
	if err != nil {
		return err
	}
	var b pipelineBench
	b.Config.HistoryRecords = records
	b.Config.Block = block
	b.Config.Seed = seed
	b.Config.Learner = learner
	b.Config.GoMaxProcs = runtime.GOMAXPROCS(0)
	b.Config.NumCPU = runtime.NumCPU()
	b.Config.GoVersion = runtime.Version()
	b.Concepts = m.NumConcepts()
	b.ElapsedSeconds = m.Stats.Elapsed.Seconds()
	b.Phases = phases
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "homtrain: %v\n", err)
	os.Exit(1)
}
