package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highorder/internal/bayes"
	"highorder/internal/classifier"
	"highorder/internal/cluster"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/synth"
	"highorder/internal/tree"
)

var update = flag.Bool("update", false, "rewrite testdata/model_golden.txt from the current build")

const modelGoldenFile = "testdata/model_golden.txt"

// TestModelGolden pins what core.Build produces and how its online
// predictor runs. Each line of testdata/model_golden.txt names a history, a
// base learner and a worker count, then holds the SHA-256 of a canonical
// encoding of the model, the readable Stats.Clustering counts, and the
// test-then-train run of m.NewPredictor() over the next 2,000 records of the
// same generator: its mistakes and a short hash of its final active
// probabilities. The encoding covers every concept's model, Err, Len, Freq
// and Size, the transition matrix χ and the occurrences; it leaves out the
// build time. The twin tests check one engine against another, so a change
// that moves both sides, such as to χ, the dendrogram cut, the grower's tie
// rule or ψ (Eq. 8) in both the predictor and its oracle, shows only here.
//
// Regenerate only on purpose, with
//
//	go test ./internal/core -run TestModelGolden -update
//
// and say which lines moved and why.
func TestModelGolden(t *testing.T) {
	// take returns the history and the next 2,000 records of its generator.
	take := func(s synth.Stream, n int) [2]*data.Dataset {
		return [2]*data.Dataset{synth.TakeDataset(s, n), synth.TakeDataset(s, 2000)}
	}
	sea := take(synth.NewSEA(synth.SEAConfig{Seed: 62, Lambda: 0.002}), 6000)
	// The exact-cut row runs the paper's own cut comparison (no slack),
	// where Err* often equals Err, so a changed comparison shows.
	histories := []struct {
		name     string
		d        [2]*data.Dataset
		cutSlack float64
	}{
		{"stagger", take(synth.NewStagger(synth.StaggerConfig{Seed: 61}), 4000), 0},
		{"sea", sea, 0},
		{"sea-exactcut", sea, -1},
		{"sea-noise", take(synth.NewSEA(synth.SEAConfig{Seed: 63, Lambda: 0.002, Noise: 0.1}), 6000), 0},
		{"hyperplane", take(synth.NewHyperplane(synth.HyperplaneConfig{Seed: 64, Lambda: 0.002}), 4000), 0},
		{"intrusion", take(synth.NewIntrusion(synth.IntrusionConfig{Seed: 65, Lambda: 0.002}), 1500), 0},
	}
	learners := []struct {
		name string
		mk   func() classifier.Learner
	}{
		{"tree", func() classifier.Learner { return tree.NewLearner() }},
		{"bayes", func() classifier.Learner { return bayes.NewLearner() }},
	}
	var got []string
	for _, h := range histories {
		for _, l := range learners {
			for _, workers := range []int{1, 2} {
				opts := core.DefaultOptions()
				opts.Learner = l.mk()
				opts.Seed = 7
				opts.Workers = workers
				opts.CutSlack = h.cutSlack
				m, err := core.Build(h.d[0], opts)
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", h.name, l.name, workers, err)
				}
				got = append(got, fmt.Sprintf("%s/%s/w%d %x %s %s", h.name, l.name, workers, modelDigest(t, m), statsLine(m.Stats.Clustering), predictorLine(m, h.d[1])))
			}
		}
	}
	if *update {
		body := "# Regenerate: go test ./internal/core -run TestModelGolden -update\n" + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(modelGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelGoldenFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the test builds %d", modelGoldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("model golden line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(modelGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func statsLine(s cluster.Stats) string {
	return fmt.Sprintf("blocks=%d chunks=%d trained=%d mergers=%d edges=%d pruned=%d reused=%d copied=%d",
		s.Blocks, s.Chunks, s.ModelsTrained, s.Mergers, s.EdgesEvaluated, s.EdgesPruned, s.ModelsReused, s.RecordsCopied)
}

// predictorLine runs m.NewPredictor() test-then-train over next and
// renders its mistakes and the first 8 bytes of the SHA-256 of its final
// active probabilities' bits.
func predictorLine(m *core.Model, next *data.Dataset) string {
	p := m.NewPredictor()
	mistakes := 0
	for _, r := range next.Records {
		if p.Predict(r) != r.Class {
			mistakes++
		}
		p.Observe(r)
	}
	e := &canon{h: sha256.New()}
	e.floats(p.ActiveProbabilities())
	return fmt.Sprintf("mistakes=%d active=%x", mistakes, e.h.Sum(nil)[:8])
}

// modelDigest hashes the canonical encoding of m: fixed-width
// little-endian integers and float bits, every slice preceded by its
// length, nothing of the build time.
func modelDigest(t *testing.T, m *core.Model) []byte {
	t.Helper()
	e := &canon{h: sha256.New()}
	e.int(len(m.Concepts))
	for _, c := range m.Concepts {
		switch mod := c.Model.(type) {
		case *tree.Tree:
			e.int(1)
			e.node(mod.Root)
		case *bayes.Model:
			e.int(2)
			_, logPrio, nominal, mean, stddev := mod.Params()
			e.floats(logPrio)
			e.int(len(nominal))
			for _, perClass := range nominal {
				e.int(len(perClass))
				for _, logFreq := range perClass {
					e.floats(logFreq)
				}
			}
			e.int(len(mean))
			for a := range mean {
				e.floats(mean[a])
				e.floats(stddev[a])
			}
		default:
			t.Fatalf("no canonical encoding for a %T concept model", c.Model)
		}
		e.float(c.Err)
		e.float(c.Len)
		e.float(c.Freq)
		e.int(c.Size)
	}
	e.int(len(m.Chi))
	for _, row := range m.Chi {
		e.floats(row)
	}
	e.int(len(m.Occurrences))
	for _, o := range m.Occurrences {
		e.int(o.Start)
		e.int(o.End)
		e.int(o.Concept)
	}
	return e.h.Sum(nil)
}

// canon writes the canonical encoding into a hash.
type canon struct {
	h   hash.Hash
	buf [8]byte
}

func (e *canon) int(v int) {
	binary.LittleEndian.PutUint64(e.buf[:], uint64(int64(v)))
	e.h.Write(e.buf[:])
}

func (e *canon) float(v float64) {
	binary.LittleEndian.PutUint64(e.buf[:], math.Float64bits(v))
	e.h.Write(e.buf[:])
}

func (e *canon) floats(vs []float64) {
	e.int(len(vs))
	for _, v := range vs {
		e.float(v)
	}
}

// node encodes a subtree in preorder; a nil child (a nominal value no
// training record had) is its own marker.
func (e *canon) node(n *tree.Node) {
	if n == nil {
		e.int(0)
		return
	}
	e.int(1)
	e.int(n.Attr)
	e.float(n.Threshold)
	e.int(n.Class)
	e.int(n.N)
	e.int(n.Errors)
	e.floats(n.Dist)
	e.int(len(n.Children))
	for _, c := range n.Children {
		e.node(c)
	}
}
