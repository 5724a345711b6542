// Package rng provides deterministic, seedable random sources shared by the
// stream generators, the holdout splits inside concept clustering, and the
// evaluation harness.
//
// Every stochastic component in this repository draws from an explicit
// *rng.Source rather than the global math/rand state, so experiments are
// reproducible record-for-record given a seed, and independent components
// can be given independent sub-streams via Split.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic pseudo-random source. Its stream is exactly
// math/rand's for the same seed (TestSourceMatchesMathRand), drawn through
// math/rand's own samplers, so results are stable across Go releases.
//
// The state is seeded lazily. math/rand fills all 607 words of its state
// when it is seeded, which costs 1,841 Park–Miller steps; a Source builds
// each word only when a draw first reads it, so a source that draws a few
// times, such as a 10-record holdout split, pays for a few words. By draw
// 334 every word has been built, and from then on draws take math/rand's
// own path, at its cost.
type Source struct {
	// r draws: lazy while words are still to be built, then fast.
	r, lazy, fast *rand.Rand
	gen           lagged
	seeding       seeding
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.seeding.s = s
	s.lazy = rand.New(&s.seeding)
	s.fast = rand.New(&s.gen)
	s.Seed(seed)
	return s
}

// Seed reseeds s in place: it then draws what New(seed) would, and no
// state is allocated.
func (s *Source) Seed(seed int64) {
	s.seeding.Seed(seed)
	s.r = s.lazy
}

// Split derives a new independent Source from s. The derived source's seed
// is drawn from s, so two Splits in sequence yield different streams, while
// the whole tree of sources remains a pure function of the root seed.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// Int63 returns a non-negative 63-bit random integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.r.NormFloat64() }

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Categorical draws an index with probability proportional to weights[i].
// It panics if weights is empty or sums to a non-positive value.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical weights sum to zero")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack lands on the last index
}

// Zipf draws ranks from a Zipf distribution over n items with exponent z:
// P(rank k) ∝ 1/k^z for k = 1..n. The paper uses z = 1 to pick the next
// concept on a change (§IV-A).
type Zipf struct {
	weights []float64
	src     *Source
}

// NewZipf returns a Zipf sampler over n ranks with exponent z, drawing
// randomness from src. It panics if n <= 0.
func NewZipf(src *Source, n int, z float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	w := make([]float64, n)
	for k := 1; k <= n; k++ {
		w[k-1] = 1 / math.Pow(float64(k), z)
	}
	return &Zipf{weights: w, src: src}
}

// Draw returns a rank index in [0, n) with P(i) ∝ 1/(i+1)^z.
func (z *Zipf) Draw() int { return z.src.Categorical(z.weights) }

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.weights) }

// The lagged Fibonacci generator of math/rand: x[n] = x[n−607] + x[n−273]
// over 607 words of state.
const (
	lagLen   = 607
	lagTap   = 273
	int32max = 1<<31 - 1
	// lazyDraws is the draw by which every state word has been read: draw k
	// reads word 334−k for the first time as its feed, and word 607−k as its
	// tap, which is new up to draw 273 and was an earlier draw's feed after.
	lazyDraws = lagLen - lagTap
)

// lagged is math/rand's source: the same state and the same step. Word i
// of a seeded state is cooked[i] ^ u_i(seed), where u_i packs the
// Park–Miller values x_{3i+21}, x_{3i+22} and x_{3i+23} of the seed.
type lagged struct {
	tap, feed int
	vec       [lagLen]int64
}

// Seed builds every word of seed's state, as math/rand does.
func (g *lagged) Seed(seed int64) {
	g.tap, g.feed = 0, lazyDraws
	seed = reduceSeed(seed)
	for i := range g.vec {
		g.vec[i] = word(seed, i)
	}
}

// Int63 returns a non-negative 63-bit integer.
func (g *lagged) Int63() int64 { return int64(g.Uint64() & (1<<63 - 1)) }

// Uint64 advances the generator one step.
func (g *lagged) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += lagLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += lagLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// seeding is the source of a Source's first draws: before each draw it
// builds the words the draw reads for the first time, and after the last
// of them it points the Source's draws at gen.
type seeding struct {
	s *Source
	// seed is the reduced seed the unbuilt words derive from, and left the
	// draws still to build words.
	seed int64
	left int
}

// Seed resets gen to seed's state without building a word.
func (z *seeding) Seed(seed int64) {
	z.s.gen.tap, z.s.gen.feed = 0, lazyDraws
	z.seed = reduceSeed(seed)
	z.left = lazyDraws
}

// Int63 returns a non-negative 63-bit integer.
func (z *seeding) Int63() int64 { return int64(z.Uint64() & (1<<63 - 1)) }

// Uint64 builds this draw's new words, its feed and, unless an earlier
// draw fed it, its tap (see lazyDraws), then steps gen.
func (z *seeding) Uint64() uint64 {
	g := &z.s.gen
	if z.left > 0 {
		z.left--
		feed, tap := g.feed-1, g.tap-1
		if tap < 0 {
			tap += lagLen
		}
		g.vec[feed] = word(z.seed, feed)
		if tap >= lazyDraws {
			g.vec[tap] = word(z.seed, tap)
		}
		if z.left == 0 {
			z.s.r = z.s.fast
		}
	}
	return g.Uint64()
}

// reduceSeed maps seed into [1, 2^31−1) as math/rand does.
func reduceSeed(seed int64) int64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}

// word returns word i of the state of a reduced seed.
func word(seed int64, i int) int64 {
	return cooked[i] ^ seedBits(seed, i)
}

// seedBits is u_i(seed): the three Park–Miller values after the 20
// warm-up steps and the 3i steps of the words before i, where
// x_n = seed·48271^n mod (2^31−1).
func seedBits(seed int64, i int) int64 {
	n := 3*i + 21
	return seed*parkMiller[n]%int32max<<40 ^ seed*parkMiller[n+1]%int32max<<20 ^ seed*parkMiller[n+2]%int32max
}

// parkMiller[n] is 48271^n mod (2^31−1), and cooked is math/rand's table
// of state masks, recovered from the generator itself.
var (
	parkMiller = powers()
	cooked     = recoverCooked()
)

func powers() (pow [3*lagLen + 21]int64) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % int32max
	}
	return pow
}

// recoverCooked reads the masks back from one seeded math/rand source.
// With x_1..x_607 its initial words in the order draws feed them (x_k is
// word (334−k) mod 607), draw k outputs x_{607+k} = x_k + x_{k+334}, so
// 607 outputs give every x_k, and cooked[i] is word i xor u_i(seed).
func recoverCooked() (ck [lagLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var x [2*lagLen + 1]int64
	for k := 1; k <= lagLen; k++ {
		x[lagLen+k] = int64(src.Uint64())
	}
	for k := lagLen; k >= 1; k-- {
		x[k] = x[lagLen+k] - x[k+lazyDraws]
	}
	for k := 1; k <= lagLen; k++ {
		i := (lazyDraws - k + lagLen) % lagLen
		ck[i] = x[k] ^ seedBits(seed, i)
	}
	return ck
}
