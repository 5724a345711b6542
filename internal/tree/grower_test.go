package tree

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"highorder/internal/data"
	"highorder/internal/rng"
	"highorder/internal/synth"
)

// sameTree reports the first difference between two trees, comparing every
// node's Attr, Threshold bits, Class, N, Errors, Dist bits and nil-child
// pattern; "" means identical.
func sameTree(a, b *Node, path string) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: nil mismatch (got nil=%v, want nil=%v)", path, a == nil, b == nil)
	}
	if a.Attr != b.Attr || math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
		return fmt.Sprintf("%s: split attr %d <= %v, want attr %d <= %v", path, a.Attr, a.Threshold, b.Attr, b.Threshold)
	}
	if a.Class != b.Class || a.N != b.N || a.Errors != b.Errors {
		return fmt.Sprintf("%s: class/n/errors %d/%d/%d, want %d/%d/%d", path, a.Class, a.N, a.Errors, b.Class, b.N, b.Errors)
	}
	if len(a.Dist) != len(b.Dist) {
		return fmt.Sprintf("%s: dist len %d, want %d", path, len(a.Dist), len(b.Dist))
	}
	for c := range a.Dist {
		if math.Float64bits(a.Dist[c]) != math.Float64bits(b.Dist[c]) {
			return fmt.Sprintf("%s: dist %v, want %v", path, a.Dist, b.Dist)
		}
	}
	if (a.Children == nil) != (b.Children == nil) || len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%s: %d children, want %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if d := sameTree(a.Children[i], b.Children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// checkAgainstReference trains d with the production and the reference
// grower and fails on the first node that differs.
func checkAgainstReference(t *testing.T, d *data.Dataset, opts Options) {
	t.Helper()
	c, err := (&Learner{Opts: opts}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameTree(c.(*Tree).Root, refTrain(d, opts), "root"); diff != "" {
		t.Fatal(diff)
	}
}

// mixedSchema has two numeric attributes around one nominal one.
func mixedSchema() *data.Schema {
	return &data.Schema{
		Attributes: []data.Attribute{
			{Name: "x", Kind: data.Numeric},
			{Name: "c", Kind: data.Nominal, Values: []string{"p", "q", "r", "s"}},
			{Name: "y", Kind: data.Numeric},
		},
		Classes: []string{"a", "b", "c"},
	}
}

// pickData draws n mixed-schema records whose numeric values come from
// levels, so ties, signed zeros and infinities recur; the label is a
// noisy function of all three attributes.
func pickData(n int, seed int64, levels []float64) *data.Dataset {
	src := rng.New(seed)
	d := data.NewDataset(mixedSchema())
	for i := 0; i < n; i++ {
		x := levels[src.Intn(len(levels))]
		y := levels[src.Intn(len(levels))]
		c := src.Intn(4)
		class := 0
		switch {
		case src.Float64() < 0.15:
			class = src.Intn(3)
		case x > 0 && c != 2:
			class = 1
		case y <= 0 || c == 3:
			class = 2
		}
		d.Add(data.Record{Values: []float64{x, float64(c), y}, Class: class})
	}
	return d
}

func TestGrowerMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	streams := []struct {
		name string
		d    *data.Dataset
	}{
		{"sea", synth.TakeDataset(synth.NewSEA(synth.SEAConfig{Seed: 1, Noise: 0.1, Lambda: 0.01}), 3000)},
		{"hyperplane", synth.TakeDataset(synth.NewHyperplane(synth.HyperplaneConfig{Seed: 2, Lambda: 0.01}), 3000)},
		{"stagger", synth.TakeDataset(synth.NewStagger(synth.StaggerConfig{Seed: 3, Lambda: 0.01}), 2000)},
		{"intrusion", synth.TakeDataset(synth.NewIntrusion(synth.IntrusionConfig{Seed: 4, Lambda: 0.01}), 2000)},
		{"heavy-ties", pickData(2000, 5, []float64{0, 1, 2, 3})},
		{"signed-zeros", pickData(1500, 6, []float64{negZero, 0, -1, 1})},
		{"infinities", pickData(1500, 7, []float64{-inf, -1e308, -1, negZero, 0, 2.5, 1e308, inf})},
		{"only-infinities", pickData(500, 8, []float64{-inf, inf})},
		{"inf-and-finite", pickData(500, 9, []float64{-inf, 3})},
		{"all-nominal", staggerData(1500, 10, conceptA)},
		{"tiny", pickData(5, 11, []float64{0, 1, 2})},
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"unpruned", Options{Confidence: 1}},
		{"minleaf1", Options{MinLeaf: 1, Confidence: 1}},
		{"minleaf25", Options{MinLeaf: 25}},
		{"depth3", Options{MaxDepth: 3, Confidence: 1}},
		{"cf0.05", Options{Confidence: 0.05}},
	}
	for _, s := range streams {
		for _, v := range variants {
			t.Run(s.name+"/"+v.name, func(t *testing.T) {
				checkAgainstReference(t, s.d, v.opts)
			})
		}
	}
}

// FuzzGrowerVsReference decodes arbitrary bytes into a small NaN-free
// mixed-schema dataset (values from a palette with ties, signed zeros,
// extremes and infinities) plus options, and requires the production
// grower to match the reference node for node.
func FuzzGrowerVsReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x02\x01\x00\x00\x0f\x0f\x10\x11\x20\x21\x30\x31\x40\x41\x50\x51\x60\x61\x70\x71"))
	f.Add([]byte{1, 3, 0xff, 0x00, 0xfe, 0x01, 0xfd, 0x02, 0xfc, 0x03, 0xfb, 0x04, 0xfa, 0x05})
	palette := []float64{
		math.Inf(-1), -1e308, -2, -1, -0.5, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, 1, 1.0000000000000002, 2, 3, 1e308, math.Inf(1), 7,
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		opts := Options{MinLeaf: int(b[0]%4) + 1, MaxDepth: int(b[1] % 4)}
		if b[0]&0x10 != 0 {
			opts.Confidence = 1
		}
		d := data.NewDataset(mixedSchema())
		for _, x := range b[2:] {
			d.Add(data.Record{
				Values: []float64{palette[x&0x0f], float64(x >> 6), palette[(x>>4)^(x&0x0f)]},
				Class:  int(x>>4) % 3,
			})
		}
		if d.Len() == 0 {
			return
		}
		checkAgainstReference(t, d, opts)
	})
}

// TestTrainRejectsNaN: a NaN value anywhere fails training with an error
// naming the record and attribute, instead of recursing until the stack
// overflows.
func TestTrainRejectsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		at   func(i int) bool // records whose attribute attr is NaN
		attr int
		want string
	}{
		{"every third x", func(i int) bool { return i%3 == 2 }, 0, `record 2: attribute "x" is NaN`},
		{"last y", func(i int) bool { return i == 19 }, 2, `record 19: attribute "y" is NaN`},
		{"nominal", func(i int) bool { return i == 7 }, 1, `record 7: attribute "c" is NaN`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := pickData(20, 12, []float64{0, 1, 2, 3})
			for i := range d.Records {
				if tc.at(i) {
					d.Records[i].Values[tc.attr] = nan
				}
			}
			_, err := NewLearner().Train(d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Train error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSplitAtNegativeInfinity: adjacent sorted values -Inf and +Inf (or
// -Inf and a finite value) have a NaN midpoint; the split must fall back
// to the lower value instead of sending every record right forever.
func TestSplitAtNegativeInfinity(t *testing.T) {
	for _, upper := range []float64{math.Inf(1), 4} {
		t.Run(fmt.Sprint(upper), func(t *testing.T) {
			d := data.NewDataset(numericSchema(1))
			for i := 0; i < 6; i++ {
				d.Add(data.Record{Values: []float64{math.Inf(-1)}, Class: 0})
				d.Add(data.Record{Values: []float64{upper}, Class: 1})
			}
			tr, err := NewLearner().Train(d)
			if err != nil {
				t.Fatal(err)
			}
			root := tr.(*Tree).Root
			if root.IsLeaf() || !math.IsInf(root.Threshold, -1) {
				t.Fatalf("root = %+v, want a split at -Inf", root)
			}
			if root.Children[0].N != 6 || root.Children[1].N != 6 {
				t.Fatalf("children hold %d and %d records, want 6 and 6", root.Children[0].N, root.Children[1].N)
			}
		})
	}
}
