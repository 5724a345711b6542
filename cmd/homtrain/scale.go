package main

// The scaling mode: homtrain -scale sweeps history size × worker count
// over the synthetic Stagger stream and writes the committed
// BENCH_scale.json. Every history size is first built with the retained
// naive reference engine (the pre-optimization cost model, single
// worker); each optimized run is then timed against that baseline and
// checked to produce bit-identical per-record concept assignments — the
// determinism contract the speedup must not buy itself out of.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/obs"
	"highorder/internal/synth"
)

// scaleRun is one row of BENCH_scale.json.
type scaleRun struct {
	HistoryRecords int    `json:"history_records"`
	Engine         string `json:"engine"` // "reference" or "optimized"
	Workers        int    `json:"workers"`
	GoMaxProcs     int    `json:"gomaxprocs"`
	// MergeSeconds is chunk_merge + concept_merge wall time — the
	// agglomeration hot path this PR optimizes.
	MergeSeconds   float64 `json:"merge_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
	Concepts       int     `json:"concepts"`
	ModelsTrained  int     `json:"models_trained"`
	ModelsReused   int     `json:"models_reused"`
	EdgesEvaluated int     `json:"edges_evaluated"`
	EdgesPruned    int     `json:"edges_pruned"`
	RecordsCopied  int     `json:"records_copied"`
	// SpeedupVsReference is reference MergeSeconds / this run's, for
	// optimized rows.
	SpeedupVsReference float64 `json:"speedup_vs_reference,omitempty"`
	// AssignmentsIdentical records the bit-identity check against the
	// reference run of the same history size.
	AssignmentsIdentical bool `json:"assignments_identical"`
}

type scaleBench struct {
	Config struct {
		Block            int     `json:"block"`
		Seed             int64   `json:"seed"`
		StreamSeed       int64   `json:"stream_seed"`
		Learner          string  `json:"learner"`
		ReuseRatio       float64 `json:"reuse_ratio"`
		EarlyStopMinSize int     `json:"early_stop_min_size"`
		HistorySizes     []int   `json:"history_sizes"`
		Workers          []int   `json:"workers"`
	} `json:"config"`
	Runs []scaleRun `json:"runs"`
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("homtrain: %s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("homtrain: %s: empty list", flagName)
	}
	return out, nil
}

// scaleAssignments expands a model's occurrence list into the per-record
// concept id vector used for the bit-identity check.
func scaleAssignments(m *core.Model, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for _, occ := range m.Occurrences {
		for t := occ.Start; t < occ.End && t < n; t++ {
			out[t] = occ.Concept
		}
	}
	return out
}

func sameAssignments(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeSeconds sums the agglomeration phases from a build's phase summary.
func mergeSeconds(phases []obs.PhaseSummary) float64 {
	total := 0.0
	for _, p := range phases {
		if p.Phase == "build/chunk_merge" || p.Phase == "build/concept_merge" {
			total += p.WallSeconds
		}
	}
	return total
}

// buildScaleRun builds one configuration and returns its row plus the
// per-record assignments.
func buildScaleRun(hist *data.Dataset, opts core.Options, engine string, workers, maxprocs int) (scaleRun, []int, error) {
	prev := runtime.GOMAXPROCS(maxprocs)
	defer runtime.GOMAXPROCS(prev)
	rec := buildRecorder(opts.Seed)
	opts.Recorder = rec
	opts.Workers = workers
	opts.ReferenceEngine = engine == "reference"
	m, err := core.Build(hist, opts)
	if err != nil {
		return scaleRun{}, nil, err
	}
	phases, err := obs.Summarize(rec.Snapshot("build"))
	if err != nil {
		return scaleRun{}, nil, err
	}
	run := scaleRun{
		HistoryRecords: hist.Len(),
		Engine:         engine,
		Workers:        workers,
		GoMaxProcs:     maxprocs,
		MergeSeconds:   mergeSeconds(phases),
		TotalSeconds:   m.Stats.Elapsed.Seconds(),
		Concepts:       m.NumConcepts(),
		ModelsTrained:  m.Stats.Clustering.ModelsTrained,
		ModelsReused:   m.Stats.Clustering.ModelsReused,
		EdgesEvaluated: m.Stats.Clustering.EdgesEvaluated,
		EdgesPruned:    m.Stats.Clustering.EdgesPruned,
		RecordsCopied:  m.Stats.Clustering.RecordsCopied,
	}
	return run, scaleAssignments(m, hist.Len()), nil
}

// runScale executes the sweep and writes outPath.
func runScale(outPath string, block int, seed int64, learnerName string, opts core.Options, histList, workerList string) error {
	sizes, err := parseIntList("-scale-hist", histList)
	if err != nil {
		return err
	}
	workers, err := parseIntList("-scale-workers", workerList)
	if err != nil {
		return err
	}
	const streamSeed = 1021
	var b scaleBench
	b.Config.Block = block
	b.Config.Seed = seed
	b.Config.StreamSeed = streamSeed
	b.Config.Learner = learnerName
	b.Config.ReuseRatio = opts.ReuseRatio
	b.Config.EarlyStopMinSize = opts.EarlyStopMinSize
	b.Config.HistorySizes = sizes
	b.Config.Workers = workers

	for _, n := range sizes {
		g := synth.NewStagger(synth.StaggerConfig{Seed: streamSeed})
		hist := synth.TakeDataset(g, n)
		ref, refAssign, err := buildScaleRun(hist, opts, "reference", 1, 1)
		if err != nil {
			return err
		}
		ref.AssignmentsIdentical = true
		b.Runs = append(b.Runs, ref)
		fmt.Printf("scale: %6d records  reference  w=1  merge %.3fs  total %.3fs\n",
			n, ref.MergeSeconds, ref.TotalSeconds)
		for _, w := range workers {
			run, assign, err := buildScaleRun(hist, opts, "optimized", w, w)
			if err != nil {
				return err
			}
			run.AssignmentsIdentical = sameAssignments(refAssign, assign)
			if !run.AssignmentsIdentical {
				return fmt.Errorf("homtrain: scale: %d records, %d workers: assignments differ from the reference engine", n, w)
			}
			if run.MergeSeconds > 0 {
				run.SpeedupVsReference = ref.MergeSeconds / run.MergeSeconds
			}
			b.Runs = append(b.Runs, run)
			fmt.Printf("scale: %6d records  optimized  w=%d  merge %.3fs  total %.3fs  speedup %.2fx\n",
				n, w, run.MergeSeconds, run.TotalSeconds, run.SpeedupVsReference)
		}
	}
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scaling bench written to %s\n", outPath)
	return nil
}
