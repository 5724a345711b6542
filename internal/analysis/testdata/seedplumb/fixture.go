// Package fixture seeds deliberate seed-plumbing violations for the
// determinism analyzer's seed rule: a seed read from the clock or the
// process id, next to plumbed seeds and a pid used outside a seed.
package fixture

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"highorder/internal/rng"
)

func ambientClock() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want determinism "time.Now"
}

func ambientPid() *rand.Rand {
	return rand.New(rand.NewSource(int64(os.Getpid()))) // want determinism "rand.NewSource seeded from os.Getpid"
}

func ambientRngSource() *rng.Source {
	return rng.New(time.Now().Unix()) // want determinism "time.Now"
}

func plumbedFine(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func constantFine() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func derivedFine(src *rng.Source) *rng.Source {
	return rng.New(src.Int63())
}

// The pid is legal outside a seed, e.g. in a per-process directory name.
func pidNameFine() string {
	return fmt.Sprintf("run-%d", os.Getpid())
}
