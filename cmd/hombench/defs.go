package main

import "time"

// Workload names, in the order -workload all runs them.
const (
	wTrain       = "train"
	wStreamJSON  = "stream-json"
	wBulkBinary  = "bulk-binary"
	wFleetTiered = "fleet-tiered"
)

// workloadDef names a workload and records why the benchmark has it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wTrain, "In-process core.Build on seeded SEA histories; clustering and tree learning do all the work and no serving layer runs, so it is the control for every serving change."},
	{wStreamJSON, "4096 sessions, classify 16 then observe 16 in JSON: per-request cost dominates (HTTP, JSON, queue, session lock) and the per-session scrape is heavy; no store, no gate."},
	{wBulkBinary, "8 warmed sessions, classify-only, binary codec, 2048 records per request: the compiled kernel matters most and there are no writes; the control for request, store and gate changes."},
	{wFleetTiered, "Client, homgate, 2 tiered homserve replicas with WAL and 512 hot sessions each, Zipf reuse of up to 20000 sessions: store and gate dominate; ends with a SIGKILL and restart of r0."},
}

// metricDef is one reported metric. Better and Bound apply to end-to-end
// metrics; Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; what "op" and "record" mean per workload is in the
// README.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "rec/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"cpu_s_per_mrec", "s/Mrec", "lower", 0.25},
}

// perLayer are the traced run's per-layer metrics. Timings come from spans
// hombench records around calls into each layer's public functions, so they
// exist on every workload; shares and counts of a layer a workload does not
// reach read 0.
var perLayer = []metricDef{
	{"dataio.read_csv_s", "s", "lower", 0},
	{"dataio.load_model_ms", "ms", "lower", 0},
	{"compiled.compile_ms", "ms", "lower", 0},
	{"compiled.classify_ns_per_record", "ns", "lower", 0},
	{"compiled.observe_ns_per_record", "ns", "lower", 0},
	{"compiled.snapshot_us", "us", "lower", 0},
	{"compiled.restore_us", "us", "lower", 0},
	{"core.classify_ns_per_record", "ns", "lower", 0},
	{"core.observe_ns_per_record", "ns", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"core.alloc_mb_per_build", "MB", "lower", 0},
	{"cluster.cluster_s", "s", "lower", 0},
	{"cluster.concepts", "count", "lower", 0},
	{"cluster.edges_evaluated", "count", "lower", 0},
	{"cluster.models_trained", "count", "lower", 0},
	{"cluster.models_reused", "count", "higher", 0},
	{"cluster.records_copied", "count", "lower", 0},
	{"cluster.reuse_ratio", "ratio", "higher", 0},
	{"tree.train_ms", "ms", "lower", 0},
	{"serve.json_decode_ns_per_record", "ns", "lower", 0},
	{"serve.json_encode_ns_per_record", "ns", "lower", 0},
	{"serve.binary_decode_ns_per_record", "ns", "lower", 0},
	{"serve.binary_encode_ns_per_record", "ns", "lower", 0},
	{"serve.server_share", "ratio", "lower", 0},
	{"serve.unattributed_share", "ratio", "lower", 0},
	{"serve.queue_depth_max", "count", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.log_observe_us", "us", "lower", 0},
	{"store.spill_us", "us", "lower", 0},
	{"store.hydrate_us", "us", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.hot_hit_ratio", "ratio", "higher", 0},
	{"store.spills", "count", "lower", 0},
	{"store.hydrates", "count", "lower", 0},
	{"store.wal_replayed_records", "count", "lower", 0},
	{"gate.ring_owner_ns", "ns", "lower", 0},
	{"gate.route_share", "ratio", "lower", 0},
	{"obs.scrape_bytes", "bytes", "lower", 0},
	{"client.cpu_share", "ratio", "lower", 0},
	{"client.retried", "count", "lower", 0},
	{"quality.error_rate", "ratio", "lower", 0},
	{"trace.records_per_s", "rec/s", "higher", 0},
}

// sizes fixes the amount of work in each workload. The sizes are part of
// the benchmark's definition — changing one changes what every recorded
// number means — so they are constants, not flags; tests shrink a copy.
type sizes struct {
	// Workers is the number of closed-loop client connections of every
	// serving workload: under test-then-train a stream's labeller waits for
	// the prediction, so each connection waits for its reply.
	Workers int `json:"workers"`
	// SetupRepeats is how many times each run sets up; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// Slice is the length of one slice of a serving window; every slice
	// starts with one /metrics scrape of every server.
	Slice time.Duration `json:"slice_ns"`
	// Calibration and CalibrationSlice are how long the host-speed
	// calibration runs before a window and after each slice of it (a build,
	// for train); see calibrate.go.
	Calibration      time.Duration `json:"calibration_ns"`
	CalibrationSlice time.Duration `json:"calibration_slice_ns"`

	// ModelSeed and ModelHistory define the served model's training stream.
	// The served model is part of the system under test, like its code, so
	// it does not change with -seed: concept counts of models built from
	// different seeds ranged from 3 to 13, and observe cost scales with them.
	ModelSeed    int64 `json:"model_seed"`
	ModelHistory int   `json:"model_history"`

	TrainHistories    int `json:"train_histories"`
	TrainHistory      int `json:"train_history"`
	TrainContinuation int `json:"train_continuation"`
	TrainBatch        int `json:"train_batch"`

	StreamSessions int `json:"stream_sessions"`
	StreamBatch    int `json:"stream_batch"`

	BulkSessions int `json:"bulk_sessions"`
	BulkWarm     int `json:"bulk_warm"`
	BulkBatch    int `json:"bulk_batch"`
	BulkPool     int `json:"bulk_pool"`

	FleetSessions    int     `json:"fleet_sessions"`
	FleetBatch       int     `json:"fleet_batch"`
	FleetCreateOneIn int     `json:"fleet_create_one_in"`
	FleetZipf        float64 `json:"fleet_zipf"`
	FleetHot         int     `json:"fleet_hot"`

	// ReplayOps caps the ops per worker the traced run replays in process.
	ReplayOps int `json:"replay_ops"`
	// HashOps is how many ops per worker the op-sequence hash covers.
	HashOps int `json:"hash_ops"`
}

var benchSizes = sizes{
	Workers:          2,
	SetupRepeats:     15,
	Slice:            time.Second,
	Calibration:      600 * time.Millisecond,
	CalibrationSlice: 150 * time.Millisecond,

	ModelSeed:    1,
	ModelHistory: 50_000,

	TrainHistories:    3,
	TrainHistory:      50_000,
	TrainContinuation: 20_000,
	TrainBatch:        16,

	StreamSessions: 4096,
	StreamBatch:    16,

	BulkSessions: 8,
	BulkWarm:     512,
	BulkBatch:    2048,
	BulkPool:     4,

	FleetSessions:    20_000,
	FleetBatch:       8,
	FleetCreateOneIn: 4,
	FleetZipf:        1.1,
	FleetHot:         512,

	ReplayOps: 20_000,
	HashOps:   2_000,
}
