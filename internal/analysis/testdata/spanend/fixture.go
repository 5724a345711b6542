// Package obs is a miniature of highorder/internal/obs — the flight
// recorder's span API and nothing else — so the fixture type-checks on its
// own: spanend keys on the FlightSpan type of a package named obs. The
// functions below seed span-lifecycle violations for the spanend analyzer
// tests, next to the ownership patterns it must accept.
package obs

import "errors"

type TraceContext struct{ TraceID, SpanID uint64 }

type NameID uint32

type Recorder struct{}

type FlightSpan struct{ rec *Recorder }

func (r *Recorder) Start(tc TraceContext, name NameID) FlightSpan { return FlightSpan{rec: r} }

func (s FlightSpan) Child(name NameID) FlightSpan { return s.rec.Start(s.Context(), name) }

func (s FlightSpan) Context() TraceContext { return TraceContext{} }

func (s *FlightSpan) SetArg(v int64) {}

func (s *FlightSpan) End() { s.rec = nil }

const name NameID = 1

func deferEndOK(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name)
	defer sp.End()
	work()
}

func plainEndOK(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name)
	work()
	sp.End()
}

func childSpansOK(rec *Recorder, tc TraceContext) {
	parent := rec.Start(tc, name)
	defer parent.End()
	child := parent.Child(name)
	child.SetArg(1)
	child.End()
}

func discarded(rec *Recorder, tc TraceContext) {
	rec.Start(tc, name) // want spanend "started and discarded"
}

func blankBound(rec *Recorder, tc TraceContext) {
	_ = rec.Start(tc, name) // want spanend "assigned to _"
}

func neverEnded(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name) // want spanend "never ended"
	sp.SetArg(2)
}

func childNeverEnded(rec *Recorder, tc TraceContext) {
	parent := rec.Start(tc, name)
	defer parent.End()
	child := parent.Child(name) // want spanend "never ended"
	child.SetArg(3)
}

func leakOnEarlyReturn(rec *Recorder, tc TraceContext, fail bool) error {
	sp := rec.Start(tc, name) // want spanend "leak past a return"
	if fail {
		return errors.New("bail")
	}
	sp.End()
	return nil
}

func endBeforeReturnOK(rec *Recorder, tc TraceContext, fail bool) error {
	sp := rec.Start(tc, name)
	work()
	sp.End()
	if fail {
		return errors.New("bail")
	}
	return nil
}

func returnedDirectlyOK(rec *Recorder, tc TraceContext) FlightSpan {
	return rec.Start(tc, name)
}

func returnedVarOK(rec *Recorder, tc TraceContext) FlightSpan {
	sp := rec.Start(tc, name)
	sp.SetArg(4)
	return sp
}

func chainWithoutEnd(rec *Recorder, tc TraceContext) {
	_ = rec.Start(tc, name).Context() // want spanend "without being bound"
}

func deferClosureEndOK(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name)
	defer func() { sp.End() }()
	work()
}

func passedToHelperOK(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name)
	finish(sp)
}

func addressHandedOffOK(rec *Recorder, tc TraceContext) {
	sp := rec.Start(tc, name)
	finishAt(&sp)
}

func finish(sp FlightSpan) { sp.End() }

func finishAt(sp *FlightSpan) { sp.End() }

func work() {}
