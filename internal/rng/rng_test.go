package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a, b := root.Split(), root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split sources produced %d/100 identical draws; want independent streams", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("Split is not a pure function of the root seed (draw %d)", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %v outside [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(3)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v, want ≈0.25", got)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	s := New(5)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical index %d frequency = %v, want ≈%v", i, got, want)
		}
	}
}

func TestCategoricalSingleton(t *testing.T) {
	s := New(6)
	for i := 0; i < 10; i++ {
		if got := s.Categorical([]float64{3.5}); got != 0 {
			t.Fatalf("Categorical over one weight returned %d, want 0", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := map[string][]float64{
		"empty":    {},
		"zero":     {0, 0},
		"negative": {1, -1},
		"nan":      {math.NaN()},
	}
	for name, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%s) did not panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestZipfRanking(t *testing.T) {
	s := New(11)
	z := NewZipf(s, 4, 1)
	counts := make([]int, 4)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	// With z=1 over 4 ranks, P ∝ 1, 1/2, 1/3, 1/4 → must be strictly
	// decreasing, and rank 1 should appear roughly 1/(1+1/2+1/3+1/4)=0.48
	// of the time.
	for i := 1; i < 4; i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("Zipf counts not decreasing: %v", counts)
		}
	}
	got := float64(counts[0]) / float64(n)
	if math.Abs(got-0.48) > 0.01 {
		t.Fatalf("Zipf rank-1 frequency = %v, want ≈0.48", got)
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	s := New(13)
	z := NewZipf(s, 5, 0)
	counts := make([]int, 5)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-0.2) > 0.01 {
			t.Errorf("Zipf z=0 rank %d frequency = %v, want ≈0.2", i, got)
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		p := s.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(17)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Gaussian(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Gaussian mean = %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Gaussian variance = %v, want ≈4", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			if v := s.Intn(7); v < 0 || v >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// matchDraws runs the same mix of draws through s and math/rand's r: every
// sampler Source forwards, with Uint64, Intn, Perm and Shuffle at sizes
// that take each of math/rand's code paths. It returns the draws made and
// the first mismatch, "" when there is none.
func matchDraws(s *Source, r *rand.Rand, rounds int) (int, string) {
	draws := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < 40; i++ {
			if a, b := s.Int63(), r.Int63(); a != b {
				return draws, fmt.Sprintf("round %d Int63 %d: %d, want %d", round, i, a, b)
			}
			if a, b := s.r.Uint64(), r.Uint64(); a != b {
				return draws, fmt.Sprintf("round %d Uint64 %d: %d, want %d", round, i, a, b)
			}
			n := []int{1, 2, 7, 1 << 20, 1<<31 - 1, 1 << 40}[i%6]
			if a, b := s.Intn(n), r.Intn(n); a != b {
				return draws, fmt.Sprintf("round %d Intn(%d) %d: %d, want %d", round, n, i, a, b)
			}
			if a, b := s.Float64(), r.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				return draws, fmt.Sprintf("round %d Float64 %d: %v, want %v", round, i, a, b)
			}
			if a, b := s.NormFloat64(), r.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				return draws, fmt.Sprintf("round %d NormFloat64 %d: %v, want %v", round, i, a, b)
			}
			draws += 5
		}
		pa, pb := s.Perm(10+round), r.Perm(10+round)
		for i := range pb {
			if pa[i] != pb[i] {
				return draws, fmt.Sprintf("round %d Perm(%d)[%d]: %d, want %d", round, len(pb), i, pa[i], pb[i])
			}
		}
		draws += len(pb)
		sa, sb := make([]int, 30), make([]int, 30)
		for i := range sa {
			sa[i], sb[i] = i, i
		}
		s.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
		r.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
		for i := range sb {
			if sa[i] != sb[i] {
				return draws, fmt.Sprintf("round %d Shuffle[%d]: %d, want %d", round, i, sa[i], sb[i])
			}
		}
		draws += len(sb) - 1
	}
	return draws, ""
}

// TestSourceMatchesMathRand pins Source to math/rand's stream for the seeds
// at the edges of its seed reduction (mod 2^31−1, with 0 remapped), over
// more draws than it takes to build every lazily seeded word (334), then
// again after reseeding in place. The eager Seed, which rand.Source
// requires, must match too.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 42, m, -m, 2 * m, -2 * m, 7 * m, -7 * m, m << 32, -(m << 32),
		m - 1, m + 1, 1 << 62, -(1 << 62), math.MinInt64, math.MaxInt64,
	}
	for _, seed := range seeds {
		s, r := New(seed), rand.New(rand.NewSource(seed))
		draws, diff := matchDraws(s, r, 6)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if draws < 1300 {
			t.Fatalf("seed %d: only %d draws compared", seed, draws)
		}
		var eager lagged
		eager.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*lagLen; i++ {
			if a, b := eager.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: eagerly seeded draw %d is %d, want %d", seed, i, a, b)
			}
		}
		reseed := seed ^ 0x5deece66d
		s.Seed(reseed)
		r.Seed(reseed)
		if _, diff := matchDraws(s, r, 5); diff != "" {
			t.Fatalf("seed %d reseeded to %d: %s", seed, reseed, diff)
		}
	}
}

// FuzzSourceMatchesMathRand compares Int63 draws from a fuzzed seed, then
// after an in-place reseed, with math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(400))
	f.Add(int64(math.MinInt64), uint16(1))
	f.Add(int64(1<<31-1), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		s, r := New(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			for i := 0; i < int(n)%2000; i++ {
				if a, b := s.Int63(), r.Int63(); a != b {
					t.Fatalf("seed %d round %d draw %d: %d, want %d", seed, round, i, a, b)
				}
			}
			s.Seed(seed + int64(n))
			r.Seed(seed + int64(n))
		}
	})
}

// BenchmarkNewPerm10 is a holdout split of one 10-record block from a
// fresh seed, the build's most frequent use of a source: from a new
// Source, from one reseeded in place (as the build's leaves draw), and
// from a new math/rand source.
func BenchmarkNewPerm10(b *testing.B) {
	b.Run("new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			permSink = New(int64(i)).Perm(10)
		}
	})
	b.Run("reseed", func(b *testing.B) {
		s := New(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			permSink = s.Perm(10)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			permSink = rand.New(rand.NewSource(int64(i))).Perm(10)
		}
	})
}

// BenchmarkDraw times one Int63 from a source past its lazy seeding, and
// the same draw from math/rand, which must cost the same.
func BenchmarkDraw(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		s := New(1)
		s.Perm(lazyDraws)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drawSink = s.Int63()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		r.Perm(lazyDraws)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drawSink = r.Int63()
		}
	})
}

var (
	permSink []int
	drawSink int64
)
