package serve

import (
	"io"
	"strconv"
	"time"

	"highorder/internal/obs"
)

// latencyBuckets are the cumulative histogram upper bounds in seconds,
// spanning sub-millisecond in-process calls up to multi-second stalls.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// samplers supply the render-time values owned by other subsystems (the
// admission wait line, the session table). The metrics layer samples them on every
// exposition instead of caching copies.
type samplers struct {
	queueDepth func() int64
	live       func() int64
	evicted    func() int64
	// activeProbs emits every live session's active-probability vector,
	// one (session id, concept index, probability) triple at a time.
	activeProbs func(emit func(session string, concept int, p float64))
	// degraded counts sessions currently serving in degraded mode; nil is
	// treated as always zero (tests that exercise only the older families).
	degraded func() int64
	// faultFired emits the per-point firing counts of the installed fault
	// injector; nil (or a nil injector) emits nothing.
	faultFired func(emit func(point string, fired int64))
	// tier samples the tiered session store's counters; nil (tiering
	// disabled) leaves the tier families unregistered entirely.
	tier func() (hot, cold, spills, hydrates, walReplayed int64)
}

// metrics is the server's instrument set over a shared obs.Registry. The
// families registered first reproduce the original hand-rolled exposition
// byte for byte (the registry renders families in registration order and
// series in natural label order, which coincides with the old sorted-map
// order for these label sets); the hom_* introspection families are
// appended after them so existing scrape configs keep parsing unchanged
// output plus new trailing series.
type metrics struct {
	reg *obs.Registry

	numClasses  int
	numConcepts int

	requests        *obs.CounterVec   // endpoint, code
	latency         *obs.HistogramVec // endpoint
	rejected        *obs.Counter
	queueMax        *obs.Gauge
	sessionsCreated *obs.Counter
	byClass         *obs.CounterVec // class
	byConcept       *obs.CounterVec // concept
	observedRecords *obs.Counter

	// switches counts MAP-concept switches per session, fed by each
	// session's predictor introspection sink. Series are removed when the
	// session closes or expires, so cardinality is bounded by live sessions.
	switches *obs.CounterVec

	// shedTotal counts 503 load-shed refusals (distinct from the 429 path
	// counted by rejected); deadlineExpiredTotal counts requests answered
	// 503 because their deadline lapsed before they held their slot and
	// their session lock.
	shedTotal            *obs.Counter
	deadlineExpiredTotal *obs.Counter

	// hydrateSeconds times cold-tier rehydrations; nil without tiering.
	hydrateSeconds *obs.Histogram
	// spillRetryExhaustedTotal counts batches refused 503 because their
	// session kept spilling out from under them (runTask re-resolve cap)
	// — the signature of a hot set sized below the concurrently active
	// set. nil without tiering.
	spillRetryExhaustedTotal *obs.Counter
	// sessionQuarantinedTotal counts sessions quarantined and removed
	// because an applied observe batch could not be durably WAL-logged.
	// nil without tiering.
	sessionQuarantinedTotal *obs.Counter
}

// hydrateBuckets span the tiered store's rehydration latencies: a warm
// page-cache read and JSON decode lands around tens of microseconds, a
// cold disk read with recovery-ladder fallback can reach tens of
// milliseconds.
var hydrateBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

func newMetrics(numClasses, numConcepts int, smp samplers) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg, numClasses: numClasses, numConcepts: numConcepts}
	m.requests = reg.NewCounterVec("homserve_requests_total",
		"Finished HTTP requests by endpoint and status code.", "endpoint", "code")
	m.latency = reg.NewHistogramVec("homserve_request_seconds",
		"Request latency by endpoint.", latencyBuckets, "endpoint")
	m.rejected = reg.NewCounter("homserve_rejected_total",
		"Requests refused with 429 because the queue was full.")
	reg.NewGaugeFunc("homserve_queue_depth",
		"Tasks waiting in the bounded queue.", smp.queueDepth)
	m.queueMax = reg.NewGauge("homserve_queue_depth_max",
		"High-water queue depth since start.")
	reg.NewGaugeFunc("homserve_sessions_live",
		"Live sessions.", smp.live)
	m.sessionsCreated = reg.NewCounter("homserve_sessions_created_total",
		"Sessions opened since start.")
	reg.NewCounterFunc("homserve_sessions_evicted_total",
		"Sessions evicted by TTL since start.", smp.evicted)
	m.byClass = reg.NewCounterVec("homserve_predictions_total",
		"Classified records by predicted class.", "class")
	for c := 0; c < numClasses; c++ {
		m.byClass.Preset(strconv.Itoa(c))
	}
	m.byConcept = reg.NewCounterVec("homserve_concept_predictions_total",
		"Classified records by posterior-MAP concept at call time.", "concept")
	for c := 0; c < numConcepts; c++ {
		m.byConcept.Preset(strconv.Itoa(c))
	}
	m.observedRecords = reg.NewCounter("homserve_observed_records_total",
		"Labeled records folded into sessions.")

	// New introspection families: appended after every pre-existing family
	// so the exposition prefix stays byte-identical.
	reg.NewGaugeVecFunc("hom_active_prob",
		"Per-session concept active probability P_t(c) at scrape time.",
		[]string{"session", "concept"},
		func(emit func(values []string, v float64)) {
			values := make([]string, 2)
			smp.activeProbs(func(session string, concept int, p float64) {
				values[0], values[1] = session, strconv.Itoa(concept)
				emit(values, p)
			})
		})
	m.switches = reg.NewCounterVec("hom_concept_switches_total",
		"MAP-concept switches observed on the session's labeled stream.", "session")
	if smp.degraded == nil {
		smp.degraded = func() int64 { return 0 }
	}
	reg.NewGaugeFunc("hom_degraded_sessions",
		"Sessions serving from last-good state after fault-injected label loss.",
		smp.degraded)
	m.shedTotal = reg.NewCounter("hom_shed_total",
		"Requests refused with 503 because queue depth reached the shed threshold.")
	m.deadlineExpiredTotal = reg.NewCounter("hom_deadline_expired_total",
		"Queued tasks answered 503 because their per-request deadline lapsed before execution.")
	if ff := smp.faultFired; ff != nil {
		reg.NewGaugeVecFunc("hom_fault_fired",
			"Fault-point firings of the installed injector (absent series when disabled).",
			[]string{"point"},
			func(emit func(values []string, v float64)) {
				values := make([]string, 1)
				ff(func(point string, fired int64) {
					values[0] = point
					emit(values, float64(fired))
				})
			})
	}
	// Tier families render only when tiering is enabled, appended after
	// every other family so the untiered exposition stays byte-identical.
	if ts := smp.tier; ts != nil {
		reg.NewGaugeFunc("hom_sessions_hot",
			"Sessions resident in the in-memory hot tier.",
			func() int64 { h, _, _, _, _ := ts(); return h })
		reg.NewGaugeFunc("hom_sessions_cold",
			"Sessions demoted to the on-disk cold tier.",
			func() int64 { _, c, _, _, _ := ts(); return c })
		reg.NewCounterFunc("hom_spill_total",
			"Hot sessions snapshotted to disk since start (clock eviction or TTL demotion).",
			func() int64 { _, _, sp, _, _ := ts(); return sp })
		reg.NewCounterFunc("hom_hydrate_total",
			"Cold sessions rebuilt into the hot tier since start.",
			func() int64 { _, _, _, hy, _ := ts(); return hy })
		reg.NewCounterFunc("hom_wal_replayed_records_total",
			"Observe records replayed from the write-ahead label log during recovery.",
			func() int64 { _, _, _, _, wr := ts(); return wr })
		m.hydrateSeconds = reg.NewHistogram("hom_session_hydrate_seconds",
			"Latency of rebuilding a session from its cold-tier snapshot.", hydrateBuckets)
		m.spillRetryExhaustedTotal = reg.NewCounter("hom_spill_retry_exhausted_total",
			"Batches refused 503 after their session repeatedly spilled out from under them (hot set sized below the concurrently active set).")
		m.sessionQuarantinedTotal = reg.NewCounter("hom_session_quarantined_total",
			"Sessions quarantined and removed because an applied observe batch could not be durably WAL-logged.")
	}
	return m
}

// hydrateObserved records one rehydration's latency; no-op without tiering.
func (m *metrics) hydrateObserved(sec float64) {
	if m.hydrateSeconds != nil {
		m.hydrateSeconds.Observe(sec)
	}
}

func (m *metrics) request(endpoint string, code int, d time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(code)).Inc()
	m.latency.With(endpoint).Observe(d.Seconds())
}

func (m *metrics) reject() { m.rejected.Inc() }

func (m *metrics) shed() { m.shedTotal.Inc() }

func (m *metrics) deadlineExpired() { m.deadlineExpiredTotal.Inc() }

// spillRetryExhausted counts one re-resolve-cap refusal; no-op without
// tiering (the cap is only reachable with a store installed).
func (m *metrics) spillRetryExhausted() {
	if m.spillRetryExhaustedTotal != nil {
		m.spillRetryExhaustedTotal.Inc()
	}
}

// sessionQuarantined counts one WAL-divergence quarantine; no-op without
// tiering.
func (m *metrics) sessionQuarantined() {
	if m.sessionQuarantinedTotal != nil {
		m.sessionQuarantinedTotal.Inc()
	}
}

func (m *metrics) observeQueueDepth(depth int) { m.queueMax.SetMax(int64(depth)) }

func (m *metrics) classified(predictions []int, mapConcept int) {
	for _, p := range predictions {
		if p >= 0 && p < m.numClasses {
			m.byClass.With(strconv.Itoa(p)).Inc()
		}
	}
	if mapConcept >= 0 && mapConcept < m.numConcepts {
		m.byConcept.With(strconv.Itoa(mapConcept)).Add(int64(len(predictions)))
	}
}

func (m *metrics) observed(n int) { m.observedRecords.Add(int64(n)) }

func (m *metrics) sessionCreated() { m.sessionsCreated.Inc() }

// sessionClosed drops the session's per-session series.
func (m *metrics) sessionClosed(id string) { m.switches.Remove(id) }

// switchSink returns the predictor introspection sink that feeds the
// session's hom_concept_switches_total series. Touching the counter here
// also creates the series at zero, so a fresh session is visible on the
// next scrape.
func (m *metrics) switchSink(id string) obs.PredictorSink {
	ctr := m.switches.With(id)
	return obs.FuncSink(func(ev obs.PredictorEvent) {
		if ev.Switched {
			ctr.Inc()
		}
	})
}

// writeTo renders the Prometheus text exposition.
func (m *metrics) writeTo(w io.Writer) { m.reg.WriteText(w) }
