package gate

import (
	"strings"
	"testing"
	"time"

	"highorder/internal/serve"
)

// scaleHarness wires an autoscaler over a real in-process fleet with an
// injectable signal stream: the fleet provisions and retires real
// replicas (so Join/Leave and migrations are exercised), while the
// scaling signals are synthetic and deterministic.
type scaleHarness struct {
	g     *Gateway
	fleet *Fleet
	a     *Autoscaler
	// queue/shed/p99 are the synthetic signals reported for every healthy
	// replica on the next tick.
	queue float64
	shed  float64
	p99   float64
}

func newScaleHarness(t *testing.T, cfg AutoscalerConfig) *scaleHarness {
	t.Helper()
	g, fleet, _ := testFleet(t, 1, Config{})
	h := &scaleHarness{g: g, fleet: fleet}
	h.a = NewAutoscaler(g, fleet, cfg)
	h.a.SetScrape(func() []ReplicaStats {
		var out []ReplicaStats
		for _, ri := range g.Replicas() {
			if !ri.Healthy {
				continue
			}
			out = append(out, ReplicaStats{
				ID:         ri.ID,
				QueueDepth: h.queue,
				Shed:       h.shed,
				P99:        h.p99,
				Sessions:   float64(ri.Sessions),
			})
		}
		return out
	})
	return h
}

func (h *scaleHarness) tick(t *testing.T) Decision {
	t.Helper()
	d, err := h.a.Tick()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var scaleCfg = AutoscalerConfig{
	Min: 1, Max: 3,
	HighQueue: 10, LowQueue: 2,
	HighShedPerTick: 5,
	UpAfter:         2, DownAfter: 3,
	Cooldown: 2,
}

// TestAutoscalerScalesUpAfterConsecutiveHotTicks: one hot tick is noise,
// UpAfter consecutive hot ticks are a trend.
func TestAutoscalerScalesUpAfterConsecutiveHotTicks(t *testing.T) {
	h := newScaleHarness(t, scaleCfg)
	h.queue = 20 // above HighQueue

	if d := h.tick(t); d.Action != "" {
		t.Fatalf("tick 1 acted (%+v) before UpAfter ticks", d)
	}
	d := h.tick(t)
	if d.Action != "up" {
		t.Fatalf("tick 2 = %+v, want scale-up", d)
	}
	if h.g.reg.size() != 2 || h.fleet.Size() != 2 {
		t.Fatalf("fleet size %d/%d after scale-up, want 2", h.g.reg.size(), h.fleet.Size())
	}
	// Cooldown: two more hot ticks change nothing.
	for i := 0; i < int(scaleCfg.Cooldown); i++ {
		if d := h.tick(t); d.Action != "" {
			t.Fatalf("cooldown tick acted: %+v", d)
		}
	}
	// First post-cooldown tick: the sustained trend scales again, to Max.
	if d := h.tick(t); d.Action != "up" {
		t.Fatalf("post-cooldown tick = %+v, want scale-up", d)
	}
	// At Max: hot ticks can no longer grow the fleet.
	for i := 0; i < 5; i++ {
		if d := h.tick(t); d.Action != "" {
			t.Fatalf("tick above Max acted: %+v", d)
		}
	}
	if h.g.reg.size() != 3 {
		t.Fatalf("fleet grew past Max: %d", h.g.reg.size())
	}
}

// TestAutoscalerHysteresisBandHolds: a signal hovering between LowQueue
// and HighQueue must never scale in either direction, no matter how long
// it persists.
func TestAutoscalerHysteresisBandHolds(t *testing.T) {
	h := newScaleHarness(t, scaleCfg)
	h.queue = 5 // between LowQueue=2 and HighQueue=10
	for i := 0; i < 20; i++ {
		if d := h.tick(t); d.Action != "" {
			t.Fatalf("in-band tick %d acted: %+v", i, d)
		}
	}
	if h.g.reg.size() != 1 {
		t.Fatalf("in-band signal changed the fleet: %d replicas", h.g.reg.size())
	}
}

// TestAutoscalerFlappingSignalsDoNothing: alternating hot and cold ticks
// never satisfy a consecutive-tick requirement, so the fleet holds.
func TestAutoscalerFlappingSignalsDoNothing(t *testing.T) {
	h := newScaleHarness(t, scaleCfg)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			h.queue = 20
		} else {
			h.queue = 0
		}
		if d := h.tick(t); d.Action != "" {
			t.Fatalf("flapping tick %d acted: %+v", i, d)
		}
	}
	if h.g.reg.size() != 1 {
		t.Fatalf("flapping signal changed the fleet: %d replicas", h.g.reg.size())
	}
}

// TestAutoscalerScalesDownAndKeepsSessions: sustained cold signals
// shrink the fleet one replica per cooldown window, never below Min, and
// every session survives each drain-and-migrate decommission.
func TestAutoscalerScalesDownAndKeepsSessions(t *testing.T) {
	h := newScaleHarness(t, scaleCfg)

	// Grow to Max first.
	h.queue = 20
	h.tick(t)
	if d := h.tick(t); d.Action != "up" {
		t.Fatal("setup scale-up missed")
	}
	h.tick(t)
	h.tick(t)
	if d := h.tick(t); d.Action != "up" {
		t.Fatal("second setup scale-up missed")
	}

	// Spread sessions across the fleet through the gateway.
	gc := serveClientFor(t, h.g)
	vectors, classes := staggerWire(23, 5)
	var sessions []string
	for i := 0; i < 9; i++ {
		created, err := gc.CreateSession(serve.CreateSessionRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Observe(created.ID, vectors, classes); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, created.ID)
	}

	// Cold signals: after cooldown plus DownAfter agreement, shed one
	// replica per window down to Min.
	h.queue = 0
	downs := 0
	for i := 0; i < 30 && h.g.reg.size() > 1; i++ {
		if d := h.tick(t); d.Action == "down" {
			downs++
		}
	}
	if downs != 2 || h.g.reg.size() != 1 || h.fleet.Size() != 1 {
		t.Fatalf("downs=%d size=%d/%d, want 2 scale-downs to Min=1", downs, h.g.reg.size(), h.fleet.Size())
	}
	// Min floor: cold forever, fleet never empties.
	for i := 0; i < 10; i++ {
		if d := h.tick(t); d.Action != "" {
			t.Fatalf("tick below Min acted: %+v", d)
		}
	}
	// Every session survived both decommissions with full state.
	for _, s := range sessions {
		info, err := gc.Info(s)
		if err != nil {
			t.Fatalf("session %q lost in scale-down: %v", s, err)
		}
		if info.Observed != len(vectors) {
			t.Fatalf("session %q observed %d, want %d", s, info.Observed, len(vectors))
		}
	}
	text := gatewayMetrics(t, h.g)
	for _, want := range []string{
		`hom_gate_autoscale_total{direction="up"} 2`,
		`hom_gate_autoscale_total{direction="down"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestAutoscalerShedAndLatencyTriggers: the shed-rate and p99 signals
// scale up even with an empty queue.
func TestAutoscalerShedAndLatencyTriggers(t *testing.T) {
	cfg := scaleCfg
	cfg.HighP99 = 100 * time.Millisecond
	h := newScaleHarness(t, cfg)

	// Shed counter climbing by >= HighShedPerTick per tick.
	h.shed = 0
	h.tick(t) // baseline sample
	h.shed = 10
	h.tick(t)
	h.shed = 20
	if d := h.tick(t); d.Action != "up" {
		t.Fatalf("shed-rate trigger missed: %+v", d)
	}

	// Drain cooldown, then p99 breach.
	h.shed = 20 // flat: delta 0
	for i := 0; i < int(cfg.Cooldown)+1; i++ {
		h.tick(t)
	}
	h.p99 = 0.5
	h.tick(t)
	if d := h.tick(t); d.Action != "up" {
		t.Fatalf("p99 trigger missed: %+v", d)
	}
}

func TestParseBounds(t *testing.T) {
	cases := []struct {
		in       string
		min, max int
		ok       bool
	}{
		{"1:2", 1, 2, true},
		{"3:3", 3, 3, true},
		{"1:10", 1, 10, true},
		{"0:2", 0, 0, false},
		{"-1:2", 0, 0, false},
		{"3:2", 0, 0, false},
		{"2", 0, 0, false},
		{"", 0, 0, false},
		{"a:2", 0, 0, false},
		{"1:b", 0, 0, false},
		{"1:2:3", 0, 0, false},
		{" 1:2", 0, 0, false},
	}
	for _, tc := range cases {
		minR, maxR, err := ParseBounds(tc.in)
		if (err == nil) != tc.ok || minR != tc.min || maxR != tc.max {
			t.Errorf("ParseBounds(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, minR, maxR, err, tc.min, tc.max, tc.ok)
		}
	}
}
