package main

import (
	"fmt"
	"path/filepath"
	"time"

	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
)

// runTrain is the offline workload: set-up reads the seeded histories back
// from CSV, the window builds them round-robin with core.Build, and after
// the window every built model runs test-then-train over its history's
// continuation.
func runTrain(rc *runCtx) (*result, error) {
	res := newResult(rc)
	sz := rc.sz
	inputs := trainInputs(rc.seed, sz)
	schema := newStream(0).Schema()
	paths := make([]string, len(inputs))
	for k, in := range inputs {
		paths[k] = filepath.Join(rc.dir, fmt.Sprintf("history%d.csv", k))
		if err := writeCSV(paths[k], &data.Dataset{Schema: schema, Records: in.hist}); err != nil {
			return nil, err
		}
	}

	var setups []float64
	hists := make([]*data.Dataset, len(inputs))
	for i := 0; i < sz.SetupRepeats; i++ {
		t0 := rc.clk()
		for k, p := range paths {
			d, err := readCSV(p, schema)
			if err != nil {
				return nil, err
			}
			hists[k] = d
		}
		setups = append(setups, rc.clk().Sub(t0).Seconds())
	}

	// The window: whole builds, round-robin over the histories, until the
	// window has passed.
	type built struct {
		model *core.Model
		cost  buildCost
	}
	builds := make([][]built, len(hists))
	var slices []slice
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	if err := cal.measure(rc.clk, sz.Calibration); err != nil {
		return nil, err
	}
	var elapsed, cpu time.Duration
	for i := 0; elapsed < rc.window; i++ {
		k := i % len(hists)
		self0 := selfCPU()
		sp := rc.tr.start(nil, "core.Build", 0)
		sp.setRecords(hists[k].Len())
		m, cost, err := timedBuild(rc, hists[k])
		sp.end()
		s := slice{dur: time.Duration(cost.seconds * float64(time.Second)), cpu: selfCPU() - self0}
		elapsed += s.dur
		cpu += s.cpu
		if err := cal.measure(rc.clk, sz.CalibrationSlice); err != nil {
			return nil, err
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("build of history %d: %v", k, err)
			break
		}
		builds[k] = append(builds[k], built{m, cost})
		s.records, s.lat = hists[k].Len(), []float64{cost.seconds}
		slices = append(slices, s)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	// Correctness: a build is a pure function of its history, so repeated
	// builds must agree on concepts and clustering work; and the compiled
	// twin must predict exactly as the interpreted predictor.
	sp := rc.tr.start(nil, "verify.twins", 0)
	errs, predicted := 0, 0
	for k, bs := range builds {
		for _, b := range bs[1:] {
			if b.model.NumConcepts() != bs[0].model.NumConcepts() || b.model.Stats.Clustering != bs[0].model.Stats.Clustering {
				res.problem("history %d: builds disagree: %d concepts %+v vs %d concepts %+v", k,
					bs[0].model.NumConcepts(), bs[0].model.Stats.Clustering, b.model.NumConcepts(), b.model.Stats.Clustering)
			}
		}
		if len(bs) == 0 {
			continue
		}
		e, n, err := prequential(rc, sp, bs[0].model, inputs[k].cont)
		if err != nil {
			res.problem("history %d: %v", k, err)
		}
		errs += e
		predicted += n
	}
	sp.end()

	e2e := endToEndMetrics(slices, cal, true, setups, rss, res.Extras)
	errorRate := float64(errs) / float64(max(predicted, 1))
	res.Extras["ops"] = float64(len(slices))
	res.Extras["error_rate"] = errorRate
	if !rc.traced || len(builds[0]) == 0 {
		res.Metrics = e2e
		return res, nil
	}

	model := builds[0][0].model
	modelPath := filepath.Join(rc.dir, "model.gob")
	if err := dataio.SaveModel(modelPath, model); err != nil {
		return nil, err
	}
	var costs []float64
	alloc := 0.0
	for _, b := range builds[0] {
		costs = append(costs, b.cost.seconds)
		alloc += b.cost.allocMB
	}
	lm, err := replayLayers(rc, layerInput{
		model: model, hist: hists[0], modelPath: modelPath,
		ops:   [][]op{trainOps(inputs[0].cont, sz.TrainBatch)},
		build: buildCost{seconds: median(costs), allocMB: alloc / float64(len(builds[0]))},
	})
	if err != nil {
		return nil, err
	}
	// No server runs: the shares and counts read off servers are 0.
	for _, name := range []string{"serve.server_share", "serve.unattributed_share", "serve.queue_depth_max",
		"store.spills", "store.hydrates", "store.wal_replayed_records", "gate.route_share",
		"obs.scrape_bytes", "client.retried"} {
		lm[name] = 0
	}
	lm["client.cpu_share"] = cpu.Seconds() / elapsed.Seconds()
	lm["quality.error_rate"] = errorRate
	lm["trace.records_per_s"] = e2e["records_per_s"]
	res.Metrics = lm
	return res, nil
}

// trainOps cuts a continuation into the test-then-train rounds of one
// session, for the in-process layer replay.
func trainOps(cont []data.Record, batch int) []op {
	var ops []op
	for i := 0; i < len(cont); i += batch {
		ops = append(ops, op{kind: opRound, recs: cont[i:min(i+batch, len(cont))]})
	}
	return ops
}

// prequential runs test-then-train over cont on the interpreted predictor
// and its compiled twin and returns the interpreted predictor's errors.
func prequential(rc *runCtx, sp *span, m *core.Model, cont []data.Record) (errs, n int, err error) {
	cm, err := compiled.Compile(m)
	if err != nil {
		return 0, 0, fmt.Errorf("compile: %w", err)
	}
	p := m.NewPredictor()
	cp := cm.NewPredictor(core.PredictorOptions{})
	cpreds := make([]int, rc.sz.TrainBatch)
	diff := 0
	for _, o := range trainOps(cont, rc.sz.TrainBatch) {
		preds := twinClassify(rc, sp, p, o.recs)
		cp.ClassifyBatch(o.recs, cpreds)
		for j, want := range preds {
			if cpreds[j] != want {
				diff++
			}
			if want != o.recs[j].Class {
				errs++
			}
			n++
		}
		twinObserve(rc, sp, p, o.recs)
		for _, r := range o.recs {
			cp.Observe(r)
		}
	}
	if diff > 0 {
		return errs, n, fmt.Errorf("%d compiled predictions differ from the interpreted predictor", diff)
	}
	return errs, n, nil
}
