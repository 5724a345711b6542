package main

import (
	"highorder/internal/core"
	"highorder/internal/data"
)

// twins are the offline reference of a serving run: one interpreted
// core.Predictor per session, fed exactly the labels the servers
// acknowledged, in the same order.
type twins struct {
	bySession map[int]*core.Predictor
	errors    int // twin predictions that missed the label
	predicted int
}

func (t *twins) errorRate() float64 { return float64(t.errors) / float64(t.predicted) }

// checkServed regenerates every worker's executed ops, replays them through
// the twins after the window (so the twins' CPU stays out of the timings),
// and reports each served prediction that differs from its twin's.
func checkServed(rc *runCtx, model *core.Model, logs []*opLog, res *result) *twins {
	sp := rc.tr.start(nil, "verify.twins", 0)
	defer sp.end()
	tw := &twins{bySession: make(map[int]*core.Predictor)}
	for w, lg := range logs {
		if lg.failed > 0 {
			res.problem("worker %d: verification skipped after a failed op", w)
			continue
		}
		g := newOpGen(rc.workload, rc.seed, w, rc.sz)
		for k, warm := range g.warm {
			p := model.NewPredictor()
			twinObserve(rc, sp, p, warm)
			tw.bySession[g.global(k)] = p
		}
		pos, mismatches := 0, 0
		for i := 0; i < lg.ops; i++ {
			o := g.next()
			p := tw.bySession[o.session]
			switch o.kind {
			case opCreate:
				if p != nil {
					res.problem("session %d created twice", o.session)
				}
				p = model.NewPredictor()
				tw.bySession[o.session] = p
			case opRound:
				if p == nil {
					p = model.NewPredictor() // stream-json opens its sessions before the window
					tw.bySession[o.session] = p
				}
				preds := twinClassify(rc, sp, p, o.recs)
				for j, want := range preds {
					if lg.preds[pos] != byte(want) {
						mismatches++
					}
					pos++
					tw.count(want, o.recs[j])
				}
			case opClassify:
				continue // checked once per batch below
			}
			twinObserve(rc, sp, p, o.recs)
		}
		for key, served := range lg.first {
			k := (key[0] - w) / rc.sz.Workers
			recs := g.pool[k][key[1]]
			preds := twinClassify(rc, sp, tw.bySession[key[0]], recs)
			for j, want := range preds {
				if served[j] != want {
					mismatches++
				}
				tw.count(want, recs[j])
			}
		}
		if mismatches > 0 {
			res.problem("worker %d: %d served predictions differ from the offline twin", w, mismatches)
		}
	}
	return tw
}

func (t *twins) count(pred int, r data.Record) {
	t.predicted++
	if pred != r.Class {
		t.errors++
	}
}

// twinClassify predicts recs on the twin, timing the interpreted kernel
// for the traced run's core.* metrics.
func twinClassify(rc *runCtx, sp *span, p *core.Predictor, recs []data.Record) []int {
	out := make([]int, len(recs))
	t0 := rc.clk()
	for i, r := range recs {
		out[i] = p.Predict(data.Record{Values: r.Values})
	}
	sp.add("core.Predictor.Predict", int64(len(recs)), rc.clk().Sub(t0), int64(len(recs)))
	return out
}

func twinObserve(rc *runCtx, sp *span, p *core.Predictor, recs []data.Record) {
	t0 := rc.clk()
	for _, r := range recs {
		p.Observe(r)
	}
	sp.add("core.Predictor.Observe", int64(len(recs)), rc.clk().Sub(t0), int64(len(recs)))
}
