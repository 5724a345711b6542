package cluster

import (
	"fmt"
	"math"
	"testing"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/synth"
	"highorder/internal/tree"
)

// goldenRun clusters the 6000-record stagger stream with one engine
// configuration and returns the full merge log plus the clustering. With
// reference set, the naive loop of naive_test.go runs instead of the
// optimized one.
func goldenRun(t *testing.T, learner classifier.Learner, workers int, reuse float64, reference bool) ([]mergeRecord, *Clustering) {
	t.Helper()
	g := synth.NewStagger(synth.StaggerConfig{Seed: 41})
	d := synth.TakeDataset(g, 6000)
	var log []mergeRecord
	opts := Options{
		Learner:   learner,
		BlockSize: 10,
		Seed:      9,
		Workers:   workers,
		// Exercise the optimized evaluation paths the reference must match:
		// classifier reuse (mistake-count recombination) and early-stop
		// freezing.
		ReuseRatio:       reuse,
		EarlyStopMinSize: 1000,
		EarlyStopFactor:  1.2,
		KeepDendrogram:   true,
		mergeLog:         &log,
	}
	if reference {
		opts.agglomerate = (*engine).agglomerateNaive
	}
	cl, err := ClusterConcepts(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return log, cl
}

// sameFloat compares bit-for-bit: the golden contract is bit identity,
// not tolerance.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func diffMergeLogs(t *testing.T, label string, want, got []mergeRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: merge count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.U != g.U || w.V != g.V || w.W != g.W || w.Size != g.Size || w.Wrong != g.Wrong {
			t.Fatalf("%s: merger %d is %+v, want %+v", label, i, g, w)
		}
		if !sameFloat(w.Err, g.Err) || !sameFloat(w.ErrStar, g.ErrStar) {
			t.Fatalf("%s: merger %d errors (%v, %v), want bit-identical (%v, %v)",
				label, i, g.Err, g.ErrStar, w.Err, w.ErrStar)
		}
	}
}

func diffClusterings(t *testing.T, label string, want, got *Clustering, n int) {
	t.Helper()
	if len(want.Occurrences) != len(got.Occurrences) {
		t.Fatalf("%s: %d occurrences, want %d", label, len(got.Occurrences), len(want.Occurrences))
	}
	for i := range want.Occurrences {
		if want.Occurrences[i] != got.Occurrences[i] {
			t.Fatalf("%s: occurrence %d is %+v, want %+v", label, i, got.Occurrences[i], want.Occurrences[i])
		}
	}
	if len(want.Concepts) != len(got.Concepts) {
		t.Fatalf("%s: %d concepts, want %d", label, len(got.Concepts), len(want.Concepts))
	}
	for ci := range want.Concepts {
		w, g := want.Concepts[ci], got.Concepts[ci]
		if w.Size != g.Size || !sameFloat(w.Err, g.Err) {
			t.Fatalf("%s: concept %d size/err (%d, %v), want (%d, %v)", label, ci, g.Size, g.Err, w.Size, w.Err)
		}
		if len(w.Occurrences) != len(g.Occurrences) {
			t.Fatalf("%s: concept %d occurrence list length differs", label, ci)
		}
		for oi := range w.Occurrences {
			if w.Occurrences[oi] != g.Occurrences[oi] {
				t.Fatalf("%s: concept %d member %d differs", label, ci, oi)
			}
		}
	}
	wa, ga := assignments(want, n), assignments(got, n)
	for rec := range wa {
		if wa[rec] != ga[rec] {
			t.Fatalf("%s: record %d assigned to %d, want %d", label, rec, ga[rec], wa[rec])
		}
	}
	diffDendrograms(t, label, want.Dendrogram, got.Dendrogram)
}

func diffDendrograms(t *testing.T, label string, want, got []*DendrogramNode) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: dendrogram has %d roots, want %d", label, len(got), len(want))
	}
	var walk func(w, g *DendrogramNode)
	walk = func(w, g *DendrogramNode) {
		if (w == nil) != (g == nil) {
			t.Fatalf("%s: dendrogram shapes differ", label)
		}
		if w == nil {
			return
		}
		if w.Size != g.Size || w.Final != g.Final || !sameFloat(w.Err, g.Err) || !sameFloat(w.ErrStar, g.ErrStar) {
			t.Fatalf("%s: dendrogram node %+v, want %+v", label, g, w)
		}
		if len(w.Chunks) != len(g.Chunks) {
			t.Fatalf("%s: dendrogram chunk lists differ", label)
		}
		for i := range w.Chunks {
			if w.Chunks[i] != g.Chunks[i] {
				t.Fatalf("%s: dendrogram chunk %d differs", label, i)
			}
		}
		walk(w.Left, g.Left)
		walk(w.Right, g.Right)
	}
	for i := range want {
		walk(want[i], got[i])
	}
}

// TestGoldenEquivalence is the equivalence contract of the optimized
// engine: for both base learners, a sparing and a full reuse ratio, and
// every worker count, the zero-copy parallel engine must execute the exact
// same merge sequence as the naive reference — same pairs, same order,
// bit-identical Err and Err* at every merger — and arrive at bit-identical
// occurrences, concepts, per-record assignments, and dendrograms. At
// reuse 1 every merger reuses the larger child's classifier, so the
// mistake-count recombination carries the whole build.
func TestGoldenEquivalence(t *testing.T) {
	learners := []struct {
		name string
		mk   func() classifier.Learner
	}{
		{"tree", func() classifier.Learner { return tree.NewLearner() }},
		{"bayes", func() classifier.Learner { return bayes.NewLearner() }},
	}
	for _, lc := range learners {
		t.Run(lc.name, func(t *testing.T) {
			for _, reuse := range []float64{0.05, 1} {
				t.Run(fmt.Sprintf("reuse=%g", reuse), func(t *testing.T) {
					refLog, refCl := goldenRun(t, lc.mk(), 1, reuse, true)
					if len(refLog) == 0 {
						t.Fatal("reference run executed no mergers; the test is vacuous")
					}
					if refCl.Stats.ModelsReused == 0 {
						t.Fatal("reference run reused no classifiers; the reuse path is untested")
					}
					for _, workers := range []int{1, 2, 8} {
						log, cl := goldenRun(t, lc.mk(), workers, reuse, false)
						label := fmt.Sprintf("%s/reuse=%g/workers=%d", lc.name, reuse, workers)
						diffMergeLogs(t, label, refLog, log)
						diffClusterings(t, label, refCl, cl, 6000)
						if cl.Stats.ModelsReused != refCl.Stats.ModelsReused {
							t.Fatalf("%s: optimized engine reused %d models, reference %d",
								label, cl.Stats.ModelsReused, refCl.Stats.ModelsReused)
						}
					}
				})
			}
		})
	}
}
