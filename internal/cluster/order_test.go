package cluster

import (
	"reflect"
	"testing"

	"highorder/internal/synth"
	"highorder/internal/tree"
)

// TestOrdersFollowMergers pins the memory the cached column orders hold:
// after each step every merged-away node has dropped its order, and every
// root holds exactly the threshold order of its train half. Step 2 gives
// an order to each chunk the cut took from inside a step-1 dendrogram,
// whose merger consumed its own, so no step-2 merger sorts.
func TestOrdersFollowMergers(t *testing.T) {
	d := synth.TakeDataset(synth.NewSEA(synth.SEAConfig{Seed: 44, Noise: 0.1, Lambda: 0.005}), 3000)
	steps := 0
	opts := Options{
		Learner:          tree.NewLearner(),
		BlockSize:        10,
		Seed:             9,
		Workers:          2,
		ReuseRatio:       0.05,
		EarlyStopMinSize: 1000,
		EarlyStopFactor:  1.2,
	}
	opts.agglomerate = func(e *engine, nodes []*node, complete bool) []*node {
		roots := e.agglomerate(nodes, complete)
		steps++
		mergers := 0
		var walk func(n *node)
		walk = func(n *node) {
			if n.left == nil {
				return
			}
			mergers++
			for _, c := range []*node{n.left, n.right} {
				if !c.dead || c.order != nil {
					t.Fatalf("step %d: merged-away node %d is dead=%v with order %v", steps, c.id, c.dead, c.order != nil)
				}
				walk(c)
			}
		}
		for _, r := range roots {
			walk(r)
			if r.order == nil {
				t.Fatalf("step %d: root %d has no order", steps, r.id)
			}
			want, err := tree.NewOrder(r.train.Materialize())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.order, want) {
				t.Fatalf("step %d: root %d's order is not the threshold order of its %d train records", steps, r.id, r.train.Len())
			}
		}
		if mergers == 0 {
			t.Fatalf("step %d merged nothing; the test is vacuous", steps)
		}
		return roots
	}
	if _, err := ClusterConcepts(d, opts); err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Fatalf("ran %d steps, want 2", steps)
	}
}
