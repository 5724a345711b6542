package gate

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"highorder/internal/serve"
)

// Scaler provisions and retires replicas for the autoscaler. The in-
// process Fleet implements it; a production deployment would wrap its
// orchestrator.
type Scaler interface {
	// ScaleUp provisions one replica and returns its id and base URL. The
	// autoscaler joins it to the gateway.
	ScaleUp() (id, baseURL string, err error)
	// ScaleDown retires the named replica after the autoscaler has drained
	// and removed it from the gateway.
	ScaleDown(id string) error
}

// ReplicaStats is one replica's scrape, reduced to the scaling signals.
type ReplicaStats struct {
	ID string
	// QueueDepth is the instantaneous number of requests waiting for an
	// execution slot (homserve_queue_depth).
	QueueDepth float64
	// Shed is the cumulative count of refused work: hom_shed_total plus
	// homserve_rejected_total. The autoscaler differences it per tick.
	Shed float64
	// P99 is the request-latency 99th percentile in seconds, re-assembled
	// from the homserve_request_seconds exposition histogram.
	P99 float64
	// Sessions is the replica's live-session count, used to pick the
	// emptiest replica when scaling down.
	Sessions float64
}

// AutoscalerConfig tunes the control loop. Thresholds come in high/low
// pairs — the gap between them is the hysteresis band: load must cross
// the high side to grow the fleet and fall below the (strictly smaller)
// low side to shrink it, so a signal hovering between the two changes
// nothing.
type AutoscalerConfig struct {
	// Min and Max bound the replica count; Min <= 0 selects 1.
	Min, Max int

	// HighQueue scales up when the fleet-average queue depth reaches it;
	// <= 0 selects 8.
	HighQueue float64
	// LowQueue permits scale-down only when the fleet-average queue depth
	// is at or below it; defaults to HighQueue/4.
	LowQueue float64
	// HighShedPerTick scales up when the fleet sheds at least this many
	// requests between consecutive ticks; <= 0 selects 1.
	HighShedPerTick float64
	// HighP99 scales up when any replica's p99 latency reaches it;
	// 0 disables the latency trigger.
	HighP99 time.Duration

	// UpAfter and DownAfter are how many consecutive ticks the signals
	// must hold before acting (<= 0 selects 2 and 5): the second half of
	// the anti-flap defense alongside the threshold gap.
	UpAfter, DownAfter int
	// Cooldown is how many ticks after any scaling action the loop stays
	// quiet, letting the signals reflect the new fleet before the next
	// decision; <= 0 selects 3.
	Cooldown int

	// Interval is the tick period for Run; <= 0 selects 2 seconds.
	Interval time.Duration
}

// ParseBounds parses the "min:max" replica bounds of an -autoscale flag
// into AutoscalerConfig's Min and Max, requiring 1 <= min <= max.
func ParseBounds(v string) (minR, maxR int, err error) {
	lo, hi, ok := strings.Cut(v, ":")
	if !ok {
		return 0, 0, fmt.Errorf("autoscale bounds %q: want min:max", v)
	}
	minR, err1 := strconv.Atoi(lo)
	maxR, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || minR < 1 || maxR < minR {
		return 0, 0, fmt.Errorf("autoscale bounds %q: want 1 <= min <= max", v)
	}
	return minR, maxR, nil
}

// withDefaults fills the zero-value knobs.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.HighQueue <= 0 {
		c.HighQueue = 8
	}
	if c.LowQueue <= 0 || c.LowQueue >= c.HighQueue {
		c.LowQueue = c.HighQueue / 4
	}
	if c.HighShedPerTick <= 0 {
		c.HighShedPerTick = 1
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	return c
}

// Decision is one tick's outcome.
type Decision struct {
	// Action is "up", "down", or "" (hold).
	Action string
	// Replica is the replica added or retired.
	Replica string
	// Reason is a human-readable account of the triggering signal.
	Reason string
}

// Autoscaler sizes the gateway's replica set from scraped metrics.
// Tick is not safe for concurrent use; Run serializes it.
type Autoscaler struct {
	g      *Gateway
	scaler Scaler
	cfg    AutoscalerConfig

	// scrape collects per-replica stats; the default reads each replica's
	// /metrics exposition through its client. Tests inject synthetic
	// signal streams here.
	scrape func() []ReplicaStats

	upFor, downFor int
	cooldown       int
	lastShed       float64
	haveLastShed   bool
}

// NewAutoscaler wires an autoscaler to a gateway and a scaler.
func NewAutoscaler(g *Gateway, scaler Scaler, cfg AutoscalerConfig) *Autoscaler {
	a := &Autoscaler{g: g, scaler: scaler, cfg: cfg.withDefaults()}
	a.scrape = a.scrapeReplicas
	return a
}

// SetScrape replaces the stats source (tests drive the loop with
// synthetic signals).
func (a *Autoscaler) SetScrape(fn func() []ReplicaStats) { a.scrape = fn }

// scrapeReplicas reads every healthy replica's exposition text.
func (a *Autoscaler) scrapeReplicas() []ReplicaStats {
	var out []ReplicaStats
	for _, rep := range a.g.reg.list() {
		if !a.g.reg.isHealthy(rep.id) {
			continue
		}
		text, err := rep.client.Metrics()
		if err != nil {
			continue
		}
		s := ReplicaStats{ID: rep.id}
		s.QueueDepth, _ = serve.MetricValue(text, "homserve_queue_depth")
		shed, _ := serve.MetricValue(text, "hom_shed_total")
		rejected, _ := serve.MetricValue(text, "homserve_rejected_total")
		s.Shed = shed + rejected
		s.Sessions, _ = serve.MetricValue(text, "homserve_sessions_live")
		if qs, ok := serve.HistogramQuantiles(text, "homserve_request_seconds",
			map[string]string{"endpoint": "classify"}, 0.99); ok {
			s.P99 = qs[0]
		}
		out = append(out, s)
	}
	return out
}

// Tick evaluates the signals once and possibly scales by one replica.
// One-replica steps with a cooldown keep the loop stable: the fleet
// changes at most once per cooldown window, in the direction the signals
// have agreed on for UpAfter/DownAfter consecutive ticks.
func (a *Autoscaler) Tick() (Decision, error) {
	stats := a.scrape()
	n := a.g.reg.size()

	var queueSum, shedSum, maxP99 float64
	for _, s := range stats {
		queueSum += s.QueueDepth
		shedSum += s.Shed
		if s.P99 > maxP99 {
			maxP99 = s.P99
		}
	}
	avgQueue := 0.0
	if len(stats) > 0 {
		avgQueue = queueSum / float64(len(stats))
	}
	shedDelta := 0.0
	if a.haveLastShed && shedSum >= a.lastShed {
		shedDelta = shedSum - a.lastShed
	}
	a.lastShed = shedSum
	a.haveLastShed = true

	hot := avgQueue >= a.cfg.HighQueue || shedDelta >= a.cfg.HighShedPerTick ||
		(a.cfg.HighP99 > 0 && maxP99 >= a.cfg.HighP99.Seconds())
	cold := avgQueue <= a.cfg.LowQueue && shedDelta == 0 && //homlint:allow floatcmp -- shedDelta is a difference of integral counter scrapes; zero is exact
		(a.cfg.HighP99 <= 0 || maxP99 < a.cfg.HighP99.Seconds())

	if hot {
		a.upFor++
		a.downFor = 0
	} else if cold {
		a.downFor++
		a.upFor = 0
	} else {
		// Between the thresholds: the hysteresis band holds the fleet.
		a.upFor, a.downFor = 0, 0
	}

	if a.cooldown > 0 {
		a.cooldown--
		return Decision{}, nil
	}

	switch {
	case a.upFor >= a.cfg.UpAfter && n < a.cfg.Max:
		id, baseURL, err := a.scaler.ScaleUp()
		if err != nil {
			return Decision{}, err
		}
		if err := a.g.Join(id, baseURL); err != nil {
			return Decision{}, fmt.Errorf("gate: autoscale join %s: %w", id, err)
		}
		a.g.metrics.autoscale.With("up").Inc()
		a.upFor, a.downFor = 0, 0
		a.cooldown = a.cfg.Cooldown
		return Decision{Action: "up", Replica: id, Reason: scaleReason(avgQueue, shedDelta, maxP99)}, nil

	case a.downFor >= a.cfg.DownAfter && n > a.cfg.Min:
		victim := a.emptiest(stats)
		if victim == "" {
			return Decision{}, nil
		}
		if err := a.g.Leave(victim); err != nil {
			return Decision{}, fmt.Errorf("gate: autoscale leave %s: %w", victim, err)
		}
		if err := a.scaler.ScaleDown(victim); err != nil {
			return Decision{}, err
		}
		a.g.metrics.autoscale.With("down").Inc()
		a.upFor, a.downFor = 0, 0
		a.cooldown = a.cfg.Cooldown
		return Decision{Action: "down", Replica: victim, Reason: scaleReason(avgQueue, shedDelta, maxP99)}, nil
	}
	return Decision{}, nil
}

// emptiest picks the healthy replica with the fewest live sessions (ties
// to the lexically last id, so earlier replicas are kept).
func (a *Autoscaler) emptiest(stats []ReplicaStats) string {
	best := ""
	bestSessions := 0.0
	for _, s := range stats {
		if best == "" || s.Sessions < bestSessions ||
			(s.Sessions == bestSessions && s.ID > best) { //homlint:allow floatcmp -- exact tie on integral session counts, not a tolerance comparison
			best = s.ID
			bestSessions = s.Sessions
		}
	}
	return best
}

// scaleReason renders the triggering signals for logs and bench records.
func scaleReason(avgQueue, shedDelta, maxP99 float64) string {
	return fmt.Sprintf("avg_queue=%.1f shed_delta=%.0f p99=%.4fs", avgQueue, shedDelta, maxP99)
}

// Run ticks the loop every Interval until stop closes.
func (a *Autoscaler) Run(stop <-chan struct{}, onDecision func(Decision, error)) {
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			d, err := a.Tick()
			if onDecision != nil && (d.Action != "" || err != nil) {
				onDecision(d, err)
			}
		}
	}
}
