package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"highorder/internal/data"
	"highorder/internal/rng"
	"highorder/internal/synth"
)

// Every input is a pure function of -seed: each stream and each choice
// sequence takes its own seed from subSeed, so adding one input never shifts
// another.

// subSeed derives the seed of one named input from the run seed.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

// newStream is the record source of every workload: the SEA concepts
// stream (x1 + x2 <= θ over [0,10]³). Its concepts are fixed thresholds, so
// streams from different seeds share them with the served model; only the
// records and the drift timing come from the seed.
func newStream(seed int64) synth.Stream {
	return synth.NewSEA(synth.SEAConfig{Seed: seed})
}

func take(s synth.Stream, n int) []data.Record {
	out := make([]data.Record, n)
	for i := range out {
		out[i] = s.Next().Record
	}
	return out
}

// opKind is what one closed-loop step of a worker does.
type opKind uint8

const (
	// opRound classifies the batch, then observes its labels: one
	// test-then-train round.
	opRound opKind = iota
	// opCreate creates the session, then observes the batch's labels.
	opCreate
	// opClassify classifies a pooled batch and observes nothing.
	opClassify
)

// op is one step of a worker's op sequence.
type op struct {
	kind    opKind
	session int // global session index; the wire id is sessionID(session)
	batch   int // opClassify: index into the session's batch pool
	recs    []data.Record
}

func sessionID(i int) string { return "s" + strconv.Itoa(i) }

// sessionIndex inverts sessionID.
func sessionIndex(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	i, err := strconv.Atoi(rest)
	return i, ok && err == nil
}

// opGen yields one worker's deterministic op sequence. Worker w owns the
// sessions w, w+workers, w+2·workers, …, so no two workers ever touch one
// session and each session's ops run in sequence order.
type opGen struct {
	workload        string
	worker, workers int
	sz              *sizes

	stream synth.Stream // stream-json, fleet-tiered: the worker's records
	pick   *rng.Source  // fleet-tiered: create-or-reuse and Zipf draws
	zipf   []float64    // fleet-tiered: cumulative Zipf weights by rank
	n      int          // ops generated so far
	local  int          // sessions this worker owns (fleet-tiered: created)

	warm [][]data.Record   // bulk-binary: warm-up labels per local session
	pool [][][]data.Record // bulk-binary: batch pool per local session
}

func newOpGen(workload string, seed int64, worker int, sz *sizes) *opGen {
	g := &opGen{workload: workload, worker: worker, workers: sz.Workers, sz: sz}
	label := fmt.Sprintf("%s/worker%d", workload, worker)
	switch workload {
	case wStreamJSON:
		g.stream = newStream(subSeed(seed, label))
		g.local = sz.StreamSessions / sz.Workers
	case wBulkBinary:
		s := newStream(subSeed(seed, label))
		g.local = sz.BulkSessions / sz.Workers
		for k := 0; k < g.local; k++ {
			g.warm = append(g.warm, take(s, sz.BulkWarm))
			var batches [][]data.Record
			for b := 0; b < sz.BulkPool; b++ {
				batches = append(batches, take(s, sz.BulkBatch))
			}
			g.pool = append(g.pool, batches)
		}
	case wFleetTiered:
		g.stream = newStream(subSeed(seed, label))
		g.pick = rng.New(subSeed(seed, label+"/pick"))
		g.zipf = zipfCumulative(sz.FleetSessions/sz.Workers, sz.FleetZipf)
	}
	return g
}

// global maps a worker-local session index to the global one.
func (g *opGen) global(k int) int { return g.worker + g.workers*k }

func (g *opGen) next() op {
	defer func() { g.n++ }()
	switch g.workload {
	case wStreamJSON:
		k := g.n % g.local
		return op{kind: opRound, session: g.global(k), recs: take(g.stream, g.sz.StreamBatch)}
	case wBulkBinary:
		k := g.n % g.local
		b := (g.n / g.local) % g.sz.BulkPool
		return op{kind: opClassify, session: g.global(k), batch: b, recs: g.pool[k][b]}
	default: // wFleetTiered
		create := g.pick.Intn(g.sz.FleetCreateOneIn) == 0
		if g.local == 0 || (create && g.local < len(g.zipf)) {
			g.local++
			return op{kind: opCreate, session: g.global(g.local - 1), recs: take(g.stream, g.sz.FleetBatch)}
		}
		k := zipfDraw(g.zipf[:g.local], g.pick.Float64())
		return op{kind: opRound, session: g.global(k), recs: take(g.stream, g.sz.FleetBatch)}
	}
}

// zipfCumulative returns the cumulative Zipf(z) weights of ranks 0..n-1.
func zipfCumulative(n int, z float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), z)
		cum[r] = total
	}
	return cum
}

// zipfDraw maps u in [0,1) to a rank over the cumulative weights cum: rank
// 0, the oldest session, is the most popular.
func zipfDraw(cum []float64, u float64) int {
	r := sort.SearchFloat64s(cum, u*cum[len(cum)-1])
	return min(r, len(cum)-1)
}

// trainInput is one seeded history and its continuation.
type trainInput struct {
	hist, cont []data.Record
}

func trainInputs(seed int64, sz *sizes) []trainInput {
	out := make([]trainInput, sz.TrainHistories)
	for k := range out {
		s := newStream(subSeed(seed, fmt.Sprintf("train/history%d", k)))
		out[k] = trainInput{hist: take(s, sz.TrainHistory), cont: take(s, sz.TrainContinuation)}
	}
	return out
}

// modelHistory is the served model's training stream (see sizes.ModelSeed).
func modelHistory(sz *sizes) []data.Record {
	return take(newStream(sz.ModelSeed), sz.ModelHistory)
}

// opsHash fingerprints a workload's inputs: the first sz.HashOps ops of
// every worker (or, for train, every history and continuation). Two runs
// with the same hash received the same inputs.
func opsHash(workload string, seed int64, sz *sizes) string {
	h := sha256.New()
	if workload == wTrain {
		for _, in := range trainInputs(seed, sz) {
			hashRecords(h, in.hist)
			hashRecords(h, in.cont)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	hashRecords(h, modelHistory(sz))
	for w := 0; w < sz.Workers; w++ {
		g := newOpGen(workload, seed, w, sz)
		for _, recs := range g.warm {
			hashRecords(h, recs)
		}
		for i := 0; i < sz.HashOps; i++ {
			o := g.next()
			var b [17]byte
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], uint64(o.session))
			binary.LittleEndian.PutUint64(b[9:], uint64(o.batch))
			h.Write(b[:])
			hashRecords(h, o.recs)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashRecords(h hash.Hash, recs []data.Record) {
	var b [8]byte
	for _, r := range recs {
		for _, v := range r.Values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], uint64(r.Class))
		h.Write(b[:])
	}
}
