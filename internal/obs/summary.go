package obs

import (
	"fmt"
	"sort"
	"time"
)

// PhaseSummary aggregates the spans of one path: span count, total wall
// time, and summed args.
type PhaseSummary struct {
	// Phase is the slash-joined span path, e.g. "build/chunk_merge".
	Phase string `json:"phase"`
	// Spans is the number of spans recorded on the path.
	Spans int `json:"spans"`
	// WallSeconds is the summed duration of those spans.
	WallSeconds float64 `json:"wall_seconds"`
	// Arg sums the spans' args (omitted when zero).
	Arg int64 `json:"arg,omitempty"`
}

// Summarize folds a dump into per-path aggregates, sorted by path, for
// bench artifacts like BENCH_pipeline.json. A span's path is its name
// under its ancestors' names, following parent links within the dump; a
// parent the dump does not hold (another process's span) ends the path.
//
// It refuses a dump whose ring lapped, since the lost spans would make
// every total an under-count, and one whose parent links form a cycle.
func Summarize(d FlightDump) ([]PhaseSummary, error) {
	if d.Overwritten > 0 {
		return nil, fmt.Errorf("obs: dump %q lost %d spans to ring overwrite", d.Proc, d.Overwritten)
	}
	byID := make(map[string]int, len(d.Spans))
	for i, s := range d.Spans {
		byID[s.Span] = i
	}
	type phase struct {
		PhaseSummary
		ns int64
	}
	agg := map[string]*phase{}
	for _, s := range d.Spans {
		path := s.Name
		for p, hops := s.Parent, 0; p != ""; hops++ {
			i, ok := byID[p]
			if !ok {
				break
			}
			if hops == len(d.Spans) {
				return nil, fmt.Errorf("obs: dump %q: span %s has a parent cycle", d.Proc, s.Span)
			}
			path = d.Spans[i].Name + "/" + path
			p = d.Spans[i].Parent
		}
		ps := agg[path]
		if ps == nil {
			ps = &phase{PhaseSummary: PhaseSummary{Phase: path}}
			agg[path] = ps
		}
		ps.Spans++
		ps.ns += s.DurNS
		ps.Arg += s.Arg
	}
	out := make([]PhaseSummary, 0, len(agg))
	for _, ps := range agg {
		ps.WallSeconds = time.Duration(ps.ns).Seconds()
		out = append(out, ps.PhaseSummary)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out, nil
}
