package compiled

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"highorder/internal/core"
	"highorder/internal/data"
)

// FuzzCompiledVsInterpreted is the differential half of the equivalence
// contract: raw fuzz bytes are reinterpreted as float64 *bit patterns* —
// NaNs, infinities, negative zeros, huge magnitudes, fractional nominal
// codes — so the shared nominal fallback rule and every numeric
// comparison are exercised on inputs no synthetic generator would emit.
// The test-only oracle and core.Predictor, over the compiled tables and
// over the model's own classifiers, consume the identical stream and must
// agree bit for bit on every prediction, distribution, and snapshot, for
// every golden model.
func FuzzCompiledVsInterpreted(f *testing.F) {
	// Seed corpus: ordinary nominal codes, an all-NaN record, out-of-range
	// and fractional codes, and a mixed observe/advance control stream.
	plain := make([]byte, 0, 2*(1+3*8))
	for _, vals := range [][3]float64{{2, 0, 0}, {0.5, 1e18, -3}} {
		plain = append(plain, 0)
		for _, v := range vals {
			plain = binary.LittleEndian.AppendUint64(plain, math.Float64bits(v))
		}
	}
	f.Add(plain)
	nan := make([]byte, 0, 1+3*8)
	nan = append(nan, 0x17)
	for i := 0; i < 3; i++ {
		nan = binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN()))
	}
	f.Add(nan)

	f.Fuzz(func(t *testing.T, raw []byte) {
		for mname, m := range equivalenceModels(t) {
			for _, ev := range evaluators(t, mname, m) {
				fuzzStream(t, mname+"/"+ev.name, m, ev.new(core.PredictorOptions{}), raw)
			}
		}
	})
}

// fuzzStream drives the oracle and cp through the stream raw encodes.
func fuzzStream(t *testing.T, name string, m *core.Model, cp *core.Predictor, raw []byte) {
	ip := newOracle(m, core.PredictorOptions{})
	pred := make([]int, 1)
	nattr := len(m.Schema.Attributes)
	k := m.Schema.NumClasses()
	stride := 1 + 8*nattr
	vals := make([]float64, nattr)
	step := 0
	for off := 0; off+stride <= len(raw); off += stride {
		ctl := raw[off]
		for a := 0; a < nattr; a++ {
			vals[a] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off+1+8*a:]))
		}
		r := data.Record{Values: vals, Class: int(ctl>>2) % k}
		if !sameFloats(ip.PredictProba(r), cp.PredictProba(r)) {
			t.Fatalf("%s step %d: PredictProba diverged on %v", name, step, vals)
		}
		iw := ip.Predict(r)
		if cw := cp.Predict(r); iw != cw {
			t.Fatalf("%s step %d: Predict %d vs %d on %v", name, step, iw, cw, vals)
		}
		cp.ClassifyBatch([]data.Record{r}, pred)
		if pred[0] != iw {
			t.Fatalf("%s step %d: ClassifyBatch %d vs Predict %d on %v", name, step, pred[0], iw, vals)
		}
		// Low control bits pick the state transition so the fuzzer
		// also explores observe/advance/restore interleavings.
		switch ctl & 3 {
		case 0, 1:
			ip.Observe(r)
			cp.Observe(r)
		case 2:
			ip.AdvanceTime(int(ctl>>4)%3 + 1)
			cp.AdvanceTime(int(ctl>>4)%3 + 1)
		case 3:
			is, cs := ip.Snapshot(), cp.Snapshot()
			if err := cp.Restore(is); err != nil {
				t.Fatalf("%s step %d: restore oracle snapshot: %v", name, step, err)
			}
			if err := ip.Restore(cs); err != nil {
				t.Fatalf("%s step %d: restore predictor snapshot: %v", name, step, err)
			}
		}
		checkStateEqual(t, ip, cp, fmt.Sprintf("%s step %d", name, step))
		step++
	}
}
