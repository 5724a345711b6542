// Package core implements the paper's primary contribution: the high-order
// model. Offline, Build mines the stable concepts of a historical labeled
// stream with concept clustering (§II), trains one base classifier per
// concept, and learns the concept change patterns (Eq. 6). Online, a
// Predictor tracks each concept's active probability from a labeled cue
// stream (Eqs. 5–9) and classifies unlabeled records with the
// probability-weighted ensemble of concept classifiers (Eqs. 10–11),
// optionally pruning concepts whose probability cannot change the answer
// (§III-C).
package core

import (
	"fmt"
	"time"

	"highorder/internal/classifier"
	"highorder/internal/clock"
	"highorder/internal/cluster"
	"highorder/internal/data"
	"highorder/internal/obs"
	"highorder/internal/transition"
	"highorder/internal/tree"
)

// Options configure Build.
type Options struct {
	// Learner trains base classifiers. nil selects the C4.5-style tree
	// learner, the paper's common base classifier.
	Learner classifier.Learner
	// BlockSize is the concept-clustering block size; < 2 selects the
	// default of 10 (the paper recommends 2–20).
	BlockSize int
	// Seed drives every random choice in the build.
	Seed int64
	// EarlyStopMinSize and EarlyStopFactor configure the clustering
	// early-termination optimization (§II-D). EarlyStopMinSize <= 0
	// disables it; Build's default enables it at the paper's 2000 records
	// and factor 1.2 via DefaultOptions.
	EarlyStopMinSize int
	EarlyStopFactor  float64
	// ReuseRatio configures the clustering classifier-reuse optimization
	// (§II-D); 0 disables it.
	ReuseRatio float64
	// RetrainConcepts retrains each final concept's classifier on all of
	// the concept's records (rather than keeping the model trained on the
	// holdout training half). The paper credits its accuracy to "us[ing]
	// all data scattered in the stream but pertaining to a unique concept"
	// (§V); Err is still the holdout estimate.
	RetrainConcepts bool
	// EmpiricalTransitions replaces Eq. 6's frequency-based χ with the
	// smoothed empirical occurrence-transition matrix (ablation extension).
	EmpiricalTransitions bool
	// Workers is the training parallelism of the build (see
	// cluster.Options.Workers); <= 0 selects GOMAXPROCS.
	Workers int
	// Step2DeltaQ makes concept clustering's step 2 use the ΔQ merge
	// strategy instead of model similarity (ablation; see cluster.Options).
	Step2DeltaQ bool
	// CutSlack overrides the clustering cut slack (see cluster.Options);
	// 0 keeps the default.
	CutSlack float64
	// Clock supplies the time source for BuildStats.Elapsed; nil selects
	// the wall clock. Inject a clock.Fake to make build timing
	// deterministic in tests.
	Clock clock.Clock
	// Recorder records the offline pipeline's phase spans (block building,
	// chunk merge, concept merge, transition estimation, per-concept
	// retraining) under one forced root span when non-nil. nil disables
	// tracing at zero cost.
	Recorder *obs.Recorder
}

// Span names of the build, interned once (see obs.InternName). The
// clustering phases name their own spans under spanBuild.
var (
	spanBuild        = obs.InternName("build")
	spanTransitions  = obs.InternName("transitions")
	spanRetrain      = obs.InternName("retrain")
	spanTrainConcept = obs.InternName("train_concept")
	spanConcepts     = obs.InternName("concepts")
)

// DefaultOptions returns the configuration used in the experiments: tree
// base learner, block size 10, the paper's early-termination thresholds,
// and final concept models retrained on all concept data.
func DefaultOptions() Options {
	return Options{
		Learner:          tree.NewLearner(),
		BlockSize:        10,
		EarlyStopMinSize: 2000,
		EarlyStopFactor:  1.2,
		ReuseRatio:       0.05,
		RetrainConcepts:  true,
	}
}

func (o Options) withDefaults() Options {
	if o.Learner == nil {
		o.Learner = tree.NewLearner()
	}
	if o.BlockSize < 2 {
		o.BlockSize = 10
	}
	return o
}

// Concept is one stable concept of the high-order model.
type Concept struct {
	// Model is the concept's base classifier.
	Model classifier.Classifier
	// Err is the concept model's holdout validation error, the error-rate
	// estimate ψ uses (Eq. 8).
	Err float64
	// Len is the concept's average historical occurrence length in
	// records; Freq its share of historical occurrences.
	Len, Freq float64
	// Size is the number of historical records assigned to the concept.
	Size int
}

// BuildStats reports offline work, for Table IV and Figure 4.
type BuildStats struct {
	// Elapsed is the wall-clock build time.
	Elapsed time.Duration
	// Clustering reports the clustering work counters.
	Clustering cluster.Stats
	// HistorySize is the number of historical records consumed.
	HistorySize int
}

// Model is a trained high-order model.
type Model struct {
	// Schema is the stream schema the model was built for.
	Schema *data.Schema
	// Concepts are the discovered stable concepts.
	Concepts []Concept
	// Chi is the per-record concept transition matrix χ (Eq. 6).
	Chi [][]float64
	// Occurrences is the historical occurrence sequence (diagnostics and
	// persistence; the predictor does not need it).
	Occurrences []cluster.Occurrence
	// Stats reports the offline build work.
	Stats BuildStats
}

// NumConcepts returns the number of stable concepts.
func (m *Model) NumConcepts() int { return len(m.Concepts) }

// Build mines hist for stable concepts and returns the high-order model.
func Build(hist *data.Dataset, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if hist == nil || hist.Len() == 0 {
		return nil, fmt.Errorf("core: empty historical dataset")
	}
	clk := o.Clock.OrWall()
	start := clk()
	build := o.Recorder.Start(o.Recorder.ForceTrace(), spanBuild)
	defer build.End()
	build.SetArg(int64(hist.Len()))
	cl, err := cluster.ClusterConcepts(hist, cluster.Options{
		Learner:          o.Learner,
		BlockSize:        o.BlockSize,
		Seed:             o.Seed,
		EarlyStopMinSize: o.EarlyStopMinSize,
		EarlyStopFactor:  o.EarlyStopFactor,
		ReuseRatio:       o.ReuseRatio,
		Workers:          o.Workers,
		Step2DeltaQ:      o.Step2DeltaQ,
		CutSlack:         o.CutSlack,
		Span:             build,
	})
	if err != nil {
		return nil, err
	}
	spTrans := build.Child(spanTransitions)
	trans, err := transition.FromOccurrences(cl.Occurrences, len(cl.Concepts))
	spTrans.End()
	if err != nil {
		return nil, err
	}
	chi := trans.Chi
	if o.EmpiricalTransitions {
		chi = trans.Empirical(0.5)
	}

	m := &Model{
		Schema:      hist.Schema,
		Concepts:    make([]Concept, len(cl.Concepts)),
		Chi:         chi,
		Occurrences: cl.Occurrences,
	}
	spRetrain := build.Child(spanRetrain)
	for ci, c := range cl.Concepts {
		model := c.Model
		if o.RetrainConcepts {
			spc := spRetrain.Child(spanTrainConcept)
			// Gather the concept's records with one sized allocation; the
			// per-occurrence Concat this replaces reallocated the whole
			// accumulated prefix at every step.
			total := 0
			for _, oi := range c.Occurrences {
				total += cl.Occurrences[oi].Len()
			}
			recs := make([]data.Record, 0, total)
			for _, oi := range c.Occurrences {
				occ := cl.Occurrences[oi]
				recs = append(recs, hist.Records[occ.Start:occ.End]...)
			}
			full := &data.Dataset{Schema: hist.Schema, Records: recs}
			spc.SetArg(int64(full.Len()))
			if full.Len() > 0 {
				retrained, err := o.Learner.Train(full)
				if err != nil {
					spc.End()
					spRetrain.End()
					return nil, fmt.Errorf("core: retraining concept %d: %w", ci, err)
				}
				model = retrained
			}
			spc.End()
		}
		m.Concepts[ci] = Concept{
			Model: model,
			Err:   c.Err,
			Len:   trans.Len[ci],
			Freq:  trans.Freq[ci],
			Size:  c.Size,
		}
	}
	spRetrain.End()
	m.Stats = BuildStats{
		Elapsed:     clk().Sub(start),
		Clustering:  cl.Stats,
		HistorySize: hist.Len(),
	}
	build.Instant(spanConcepts, int64(len(m.Concepts)))
	return m, nil
}
