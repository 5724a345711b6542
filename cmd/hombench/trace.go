package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"highorder/internal/clock"
)

// tracer keeps the traced run's spans in memory: per span name it sums the
// count, the total and the self time (duration minus the part covered by
// child spans) and the records the span processed, and it retains the first
// maxEvents spans for a Chrome trace-event file. A nil *tracer records
// nothing and costs one pointer check per call, which is what untraced runs
// use.
type tracer struct {
	clk  clock.Clock
	base time.Time

	mu      sync.Mutex
	nextID  uint64
	agg     map[string]*spanAgg
	events  []traceEvent
	dropped int
}

// maxEvents bounds the retained spans so a long run's trace file stays
// loadable; aggregates cover every span.
const maxEvents = 200_000

type spanAgg struct {
	Count   int64         `json:"count"`
	Total   time.Duration `json:"total_ns"`
	Self    time.Duration `json:"self_ns"`
	Records int64         `json:"records"`
}

type traceEvent struct {
	name              string
	start, dur        time.Duration
	id, parent, trace uint64
	tid               int
}

// span is one timed call. Spans of one logical operation share a trace id
// (the root span's id).
type span struct {
	t                 *tracer
	name              string
	id, parent, trace uint64
	tid               int
	start             time.Time
	children          time.Duration
	records           int64
	up                *span
}

func newTracer(clk clock.Clock) *tracer {
	return &tracer{clk: clk, base: clk(), agg: make(map[string]*spanAgg)}
}

// start opens a span under parent (nil for a root) on thread tid.
func (t *tracer) start(parent *span, name string, tid int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &span{t: t, name: name, id: id, trace: id, tid: tid, up: parent}
	if parent != nil {
		s.parent, s.trace, s.tid = parent.id, parent.trace, parent.tid
	}
	s.start = t.clk()
	return s
}

// child opens a span under s on s's thread.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.start(s, name, s.tid)
}

// setRecords attributes n records to the span, for per-record costs.
func (s *span) setRecords(n int) {
	if s != nil {
		s.records = int64(n)
	}
}

func (s *span) end() {
	if s == nil {
		return
	}
	d := s.t.clk().Sub(s.start)
	if s.up != nil {
		s.up.children += d
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	a := s.t.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		s.t.agg[s.name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - s.children
	a.Records += s.records
	if len(s.t.events) < maxEvents {
		s.t.events = append(s.t.events, traceEvent{
			name: s.name, start: s.start.Sub(s.t.base), dur: d,
			id: s.id, parent: s.parent, trace: s.trace, tid: s.tid,
		})
	} else {
		s.t.dropped++
	}
}

// add folds n calls of name, d in total, into the aggregates as children of
// s without retaining an event per call — for calls too cheap or too many
// to wrap one by one.
func (s *span) add(name string, n int64, d time.Duration, records int64) {
	if s == nil {
		return
	}
	s.children += d
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	a := s.t.agg[name]
	if a == nil {
		a = &spanAgg{}
		s.t.agg[name] = a
	}
	a.Count += n
	a.Total += d
	a.Self += d
	a.Records += records
}

// get returns a copy of name's aggregate (zero when it never ran).
func (t *tracer) get(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// writeChrome writes the retained spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() //homlint:allow errdrop -- safety net; the success path checks Close below
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	for i, e := range t.events {
		b, err := json.Marshal(event{
			Name: e.name, Cat: "hombench", Ph: "X",
			TS: float64(e.start.Nanoseconds()) / 1e3, Dur: float64(e.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: e.tid,
			Args: map[string]any{"span": e.id, "parent": e.parent, "trace": e.trace},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, `],"otherData":{"dropped_spans":%d}}`, t.dropped)
	return err
}

// writeTable prints the per-span-name table: count, total and self time,
// and self time per record where the span processed records.
func (t *tracer) writeTable(w io.Writer, workload string) {
	t.mu.Lock()
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	t.mu.Unlock()
	sort.Strings(names)
	fmt.Fprintf(w, "# %s spans: name count total_ms self_ms self_ns_per_record\n", workload)
	for _, n := range names {
		a := t.get(n)
		perRec := "-"
		if a.Records > 0 {
			perRec = fmt.Sprintf("%.1f", float64(a.Self.Nanoseconds())/float64(a.Records))
		}
		fmt.Fprintf(w, "# %s %s %d %.3f %.3f %s\n", workload, n, a.Count,
			float64(a.Total.Nanoseconds())/1e6, float64(a.Self.Nanoseconds())/1e6, perRec)
	}
}
