#!/bin/sh
# verify.sh — the repository's tier-1 verification gate.
#
# Runs, in order: formatting, vet, build, the full test suite under the
# race detector, the serving admission path repeated under it, the
# allocation, heap, disk and records/s ceilings the race detector would
# skew (one build's allocation among them), the cross-engine identity of
# the merge loop, the build's determinism, model golden and random stream
# at one and four Ps, short fuzz passes over the CSV parsers, the serving
# API decoder, the tree grower, the random source against math/rand, and
# the homlint directive grammar, the benchmark module's own
# tests, a coverage floor on the fault-hardened serving packages, the
# repository's own whole-module static-analysis suite (cmd/homlint, which
# fails on any finding), and end-to-end smokes of the command-line tools,
# among them a model with unseen nominal branches trained, saved and
# served. Every step must pass; the script exits nonzero at the first
# failure. Nothing is written into the repository.
#
# Usage:  ./verify.sh            # from the module root
#         FUZZTIME=30s ./verify.sh   # longer fuzz budget
set -eu

cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-5s}"

step() {
	echo "== $*"
}

step gofmt
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

step go vet ./...
go vet ./...

step go build ./...
go build ./...

step "go test -race ./..."
go test -race ./...

# Classify and observe run on their handler goroutines; the only
# synchronization between them is the execution-slot channel, the
# waiting counter and the close guard. Repeat the tests that drive that
# admission path (backpressure, shedding, deadline expiry, the slot bound,
# a session spilled while its task waits, graceful close) under the race
# detector, so a rare interleaving shows up here rather than in production.
step "admission path under -race"
go test -race ./internal/serve -run 'Backpressure|LoadShed503|DeadlineExpiry|WorkersBound|SpilledWhileWaiting|ServerLifecycle|FlightDeadline' -count=20

# The race detector skews allocation counts, so the AllocsPerRun
# ceilings (similarityEdge, zero-copy view iteration, the flight
# recorder's disabled/unsampled 0-alloc paths, the tree grower's
# grown-nodes-only allocations whether it sorts its columns or merges two
# presorted orders, the exposition renderer's and the JSON
# request decoder's constant allocations, and the zero-allocation hot
# session lookup over a memory-only and a tiered store), the heap bound
# per hot session (1 KiB, memory-only and tiered), the disk bound per
# checkpointed cold session (256 B), the allocation bound of one
# core.Build of a 20,000-record SEA history (32 MB, at one and two
# workers), and the benchmark smoke run without it.
step "alloc ceilings (internal/cluster, internal/data, internal/tree, internal/core build, internal/obs, internal/store, internal/serve incl. session lookup, heap per session and disk per cold session)"
go test ./internal/cluster ./internal/data ./internal/tree -run Allocs -count=1
go test ./internal/core -run TestBuildAllocBound -count=1
go test ./internal/obs -run Allocs -count=1
go test ./internal/store -run Allocs -count=1
go test ./internal/serve -run 'Allocs|HeapBound|DiskBound' -count=1

# The classify hot path contract: core.Predictor's ClassifyBatch
# allocates nothing per call over the compiled tables for any compiled
# base learner, and Predict, PredictProba and ClassifyBatch stay 0-alloc
# over the model's own classifiers too; both the compiled kernel and the
# whole binary-codec classify path through a loopback HTTP server
# (execution slots, session table, codec; client and server on the same
# core) sustain at least 1M records/s pinned to one core — constant
# floors, in internal/compiled and internal/serve
# TestClassifyBatchThroughput and TestBinaryClassifyThroughput. The -race
# pass above already proves the predictor over both concept evaluators
# bit-identical to the test-only oracle (TestGoldenEquivalence plus the
# differential fuzz corpus); these ceilings run without the race detector
# because its instrumentation skews both allocations and time.
step "compiled hot path: alloc ceilings + records/s floors, kernel and binary HTTP (GOMAXPROCS=1)"
go test ./internal/core -run Allocs -count=1
GOMAXPROCS=1 go test ./internal/compiled -run 'Allocs|Throughput' -count=1
GOMAXPROCS=1 go test ./internal/serve -run Throughput -count=1

# The optimized merge engine (zero-copy views, parallel evaluation,
# classifier reuse, early stop, stale-edge pruning, mergers trained from
# their children's merged column orders) must execute the naive reference
# loop's merge sequence bit for bit: same pairs, same order, same
# Err/Err*, same assignments and dendrograms, at workers 1, 2 and 8. The
# histories are nominal (Stagger: tree and bayes at reuse 0.05 and 1),
# numeric (SEA with 10% noise) and mixed (Intrusion, 34 numeric and 7
# nominal attributes, many ties), the last two for the tree at reuse
# 0.05; the naive loop sorts every training set from scratch, so those
# rows check the merged orders against an independent oracle. Also part
# of the -race pass above, but a divergence should name itself in the
# verify log.
step "cross-engine identity (internal/cluster TestGoldenEquivalence)"
go test ./internal/cluster -run TestGoldenEquivalence -count=1

# The build's pool hands work between goroutines that poll for it, and
# step 2 trains a merger's model ahead beside the one it executes, so
# which goroutine trains what depends on the scheduler. The merge
# sequence, the work counts, the span tree, the persisted model, the
# committed model golden (testdata/model_golden.txt), the holdout
# sources' stream (math/rand's, seeded lazily and reseeded in place from
# a pool) and the pool's own contract must not: run their tests with one
# P, where the caller and the helpers take turns, and with four, besides
# the default the full pass above ran with.
step "build determinism at GOMAXPROCS=1 and 4 (internal/cluster, internal/core, internal/rng)"
for procs in 1 4; do
	GOMAXPROCS=$procs go test ./internal/cluster ./internal/core ./internal/rng -count=1 \
		-run 'TestGoldenEquivalence|TestParallelMatchesSequential|TestPool|TestBuildSpanTreeDeterminism|TestBuildBytesIndependentOfWorkers|TestModelGolden|TestSourceMatchesMathRand'
done

step "bench smoke (-benchtime 1x)"
go test ./internal/cluster ./internal/data ./internal/tree -run '^$' -bench . -benchtime 1x >/dev/null

step "fuzz dataio (${FUZZTIME} each)"
go test ./internal/dataio -run='^$' -fuzz='^FuzzParseRecord$' -fuzztime="$FUZZTIME"
go test ./internal/dataio -run='^$' -fuzz='^FuzzReadStream$' -fuzztime="$FUZZTIME"

# The JSON request decoder must be a strict subset of encoding/json:
# whatever it accepts, encoding/json accepts with the same bits.
step "fuzz serve JSON request decoder vs encoding/json (${FUZZTIME})"
go test ./internal/serve -run='^$' -fuzz='^FuzzClassifyRequest$' -fuzztime="$FUZZTIME"

# The binary wire codec and the online predictor each carry a
# differential fuzzer: binary frames must round-trip losslessly and
# reach the same accept/reject verdict as the JSON decoder, and the
# production predictor, over the compiled tables and over the model's own
# classifiers, must stay bit-identical to the test-only oracle (the
# interpreted predictor in internal/compiled/oracle_test.go) under
# arbitrary interleavings of observe/advance/restore/classify.
step "fuzz binary records codec (${FUZZTIME})"
go test ./internal/serve -run='^$' -fuzz='^FuzzBinaryRecords$' -fuzztime="$FUZZTIME"

step "fuzz predictor (compiled tables and classifiers) vs test-only oracle (${FUZZTIME})"
go test ./internal/compiled -run='^$' -fuzz='^FuzzCompiledVsInterpreted$' -fuzztime="$FUZZTIME"

# The sort-once tree grower must build the same tree as the retained
# reference grower (per-node sort.SliceStable copies), node for node and
# bit for bit, on arbitrary NaN-free data with ties, signed zeros and
# infinities — both when it sorts the data and when it merges the orders
# of the data's two parts at a fuzzed split point. The merged order must
# equal a stable sort of the whole, index for index.
step "fuzz tree grower vs reference (${FUZZTIME})"
go test ./internal/tree -run='^$' -fuzz='^FuzzGrowerVsReference$' -fuzztime="$FUZZTIME"

# rng.Source builds math/rand's state lazily, word by word, and reseeds
# in place; its draws must be math/rand's for any seed and draw count,
# before and after a reseed.
step "fuzz random source vs math/rand (${FUZZTIME})"
go test ./internal/rng -run='^$' -fuzz='^FuzzSourceMatchesMathRand$' -fuzztime="$FUZZTIME"

step "fuzz homlint directive grammar (${FUZZTIME})"
go test ./internal/analysis -run='^$' -fuzz='^FuzzParseDirective$' -fuzztime="$FUZZTIME"

step "fuzz store WAL replay + segment reader (${FUZZTIME} each)"
go test ./internal/store -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime="$FUZZTIME"
go test ./internal/store -run='^$' -fuzz='^FuzzSegmentRead$' -fuzztime="$FUZZTIME"

# Crash-recovery chaos: every seeded fault point (torn WAL tail, corrupt
# spill frame, crash before fsync) across 3 seeds, with concurrent
# writers under the race detector; recovered state must be bit-identical
# to an offline twin fed the same acknowledged labels, and runs must be
# deterministic per seed. Also part of the full -race pass above, but a
# chaos regression should name itself in the verify log.
step "store chaos suite (3 fault points x 3 seeds, -race)"
go test -race ./internal/store -run 'TestStoreChaos' -count=1

# The benchmark (cmd/hombench) is a module of its own, so the root
# go test ./... above skips it. Its tests cover the compare and
# percentile math, BENCHMARK.json's consistency with the code, and a
# short smoke run of all four workloads through the real binaries.
step "hombench module tests (cd cmd/hombench && go test ./...)"
(cd cmd/hombench && go test ./...)

# Coverage floor: the packages that own failure handling — the serving
# stack, the gateway, the fault-injection layer, and the tiered session
# store — must keep at least 75% statement coverage, so degraded paths
# (shed, deadline, drop, corruption, interrupted migration, torn-WAL
# recovery) stay exercised as they evolve.
step "coverage floor (internal/serve, internal/gate, internal/fault, internal/store >= 75%)"
cov=$(go test -cover ./internal/serve ./internal/gate ./internal/fault ./internal/store | tee /dev/stderr)
echo "$cov" | awk '
	/^ok/ {
		for (i = 1; i <= NF; i++) {
			if ($i == "coverage:") {
				pct = $(i + 1)
				sub(/%$/, "", pct)
				if (pct + 0 < 75.0) {
					printf "coverage gate: %s at %s%% (< 75%%)\n", $2, pct
					bad = 1
				}
			}
		}
	}
	END { exit bad }
' >&2

# Every finding fails the gate. A justified exception is a
# //homlint:allow <analyzer> -- <reason> directive next to its code.
step "homlint ./..."
go run ./cmd/homlint ./...

# Serving smoke: train a small model through the real pipeline — with
# phase tracing on, recording the build into the flight recorder, whose
# dump homtrace must render with every pipeline phase on one trace — and
# push one session of load through an in-process homserve (loopback
# HTTP, the execution slots, graceful drain). homload exits nonzero on
# any failed or unaccounted request and on a served session that is not
# bit-identical to its offline twin.
step "homserve/homload smoke (1 session, 200 records, traced build)"
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go run ./cmd/genstream -stream stagger -n 3000 -seed 7 \
	-o "$smoketmp/hist.csv" -schema "$smoketmp/schema.json"
go run ./cmd/homtrain -in "$smoketmp/hist.csv" -schema "$smoketmp/schema.json" \
	-o "$smoketmp/model.gob" -seed 7 \
	-trace "$smoketmp/trace.json" -bench-out "$smoketmp/BENCH_pipeline.json" >/dev/null
for f in trace.json BENCH_pipeline.json; do
	if [ ! -s "$smoketmp/$f" ]; then
		echo "homtrain produced empty $f" >&2
		exit 1
	fi
done
# Flags go before the dump: Go's flag parser stops at the first
# positional argument.
go run ./cmd/homtrace -o "$smoketmp/build_trace.json" \
	-assert-span build -assert-span chunk_merge \
	-assert-span concept_merge -assert-span train_concept "$smoketmp/trace.json"
if [ ! -s "$smoketmp/build_trace.json" ]; then
	echo "homtrace produced empty build_trace.json" >&2
	exit 1
fi
go run ./cmd/homload -model "$smoketmp/model.gob" -sessions 1 -records 200 \
	-batch 16 -out "$smoketmp/homload.json"

# Compiled serving smoke: the same model over the binary wire codec,
# through the live HTTP stack, with the same accounting and offline-twin
# checks. Its records/s floor is TestBinaryClassifyThroughput, in the
# compiled hot-path step above.
step "compiled serve smoke: binary codec"
go run ./cmd/homload -model "$smoketmp/model.gob" -sessions 1 -records 200 \
	-batch 16 -codec binary -out "$smoketmp/homload_binary.json"

# Intrusion serving smoke: a mixed numeric and nominal history whose tree
# has nominal branches no training record reached. The model must save
# and load (the persisted tree marks each unseen branch), and the served
# sessions must stay bit-identical to their offline twin over JSON and
# over the binary codec.
step "intrusion serve smoke (unseen nominal branches, JSON and binary codec)"
go run ./cmd/genstream -stream intrusion -n 3000 -seed 1 \
	-o "$smoketmp/intrusion.csv" -schema "$smoketmp/intrusion_schema.json"
go run ./cmd/homtrain -in "$smoketmp/intrusion.csv" -schema "$smoketmp/intrusion_schema.json" \
	-o "$smoketmp/intrusion.gob" -seed 1 >/dev/null
for codec in json binary; do
	go run ./cmd/homload -model "$smoketmp/intrusion.gob" -stream intrusion \
		-sessions 1 -records 200 -batch 16 -codec "$codec" \
		-out "$smoketmp/homload_intrusion_$codec.json"
done

# Gateway fleet smoke: three replicas behind an in-process gate.Gateway,
# with a forced mid-run rebalance (a fourth replica joins at 1/3, one
# retires gracefully at 2/3). homload exits nonzero on any failed or
# unaccounted request and on any served-vs-offline bit-identity mismatch;
# the migration counter below proves sessions actually moved live.
step "homgate fleet smoke (3 replicas, churn, bit-identity, flight-recorded)"
go run ./cmd/homload -model "$smoketmp/model.gob" -fleet 3 -fleet-churn \
	-sessions 6 -records 200 -batch 10 -out "$smoketmp/fleet.json" \
	-flight-dir "$smoketmp/flight"
migrations=$(sed -n 's/.*"migrations_total": \([0-9]*\).*/\1/p' "$smoketmp/fleet.json")
if [ -z "$migrations" ] || [ "$migrations" -eq 0 ]; then
	echo "fleet smoke: hom_gate_migrations_total is ${migrations:-missing}, want > 0" >&2
	exit 1
fi

# Tiered fleet smoke: every replica runs the tiered store with a hot set
# of 4, and 128 sessions are 16x the fleet's 8 hot slots, so sessions
# spill and rehydrate constantly through the real HTTP path with the WAL
# on. homload exits nonzero on any failed request or lost session, and
# the offline-twin check demands bit-identical served state for every
# session. The hydration counter proves the cold tier was actually
# crossed, not idly configured.
step "tiered fleet smoke (2 replicas, hot set 4, 128 sessions, WAL, bit-identity)"
go run ./cmd/homload -model "$smoketmp/model.gob" -fleet 2 \
	-sessions 128 -records 100 -batch 10 \
	-spill-dir "$smoketmp/fleet-spill" -hot-sessions 4 -wal \
	-out "$smoketmp/fleet_tiered.json"
hydrations=$(sed -n 's/.*"hydrate_total": \([0-9]*\).*/\1/p' "$smoketmp/fleet_tiered.json")
if [ -z "$hydrations" ] || [ "$hydrations" -eq 0 ]; then
	echo "tiered fleet smoke: hom_hydrate_total is ${hydrations:-missing}, want > 0" >&2
	exit 1
fi

# Fleet trace gate: merge the per-process flight dumps the smoke just
# wrote and require one trace to hold the client hop, the gateway's
# route+forward, and the replica's classify — proof the X-Hom-Trace
# header survived every hop. The churn above makes the run include a
# live migration, whose ForceTrace span must also be present.
step "homtrace fleet merge (one trace across client, gate, replica)"
go run ./cmd/homtrace -dir "$smoketmp/flight" -o "$smoketmp/fleet_trace.json" \
	-assert-span client.request -assert-span gate.route \
	-assert-span gate.forward -assert-span serve.classify
go run ./cmd/homtrace -dir "$smoketmp/flight" -grep name=gate.migrate \
	-assert-span gate.migrate >/dev/null
if [ ! -s "$smoketmp/fleet_trace.json" ]; then
	echo "homtrace produced empty fleet_trace.json" >&2
	exit 1
fi

# homtop gate: the dashboard renderer is pinned byte-for-byte against
# testdata/frame.golden (already covered by the race run above, but a
# frame drift should name itself in the verify log).
step "homtop golden frame"
go test ./cmd/homtop -run TestRenderGoldenFrame -count=1

# Autoscale smoke: the fleet starts at the lower bound and capacity
# decisions come only from the replicas' exported metrics. The decisions
# array must show at least one scale-up; sessions survive every move.
step "homgate autoscale smoke (1:2 bounds, metrics-driven)"
go run ./cmd/homload -model "$smoketmp/model.gob" -fleet-autoscale 1:2 \
	-sessions 8 -records 300 -batch 4 -workers 1 \
	-fleet-service-delay 4ms -fleet-scale-interval 150ms \
	-out "$smoketmp/fleet_autoscale.json"
if ! grep -q '"up r' "$smoketmp/fleet_autoscale.json"; then
	echo "autoscale smoke: no scale-up decision recorded" >&2
	exit 1
fi

echo "verify.sh: all gates passed"
