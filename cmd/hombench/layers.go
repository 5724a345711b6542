package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"highorder/internal/cluster"
	"highorder/internal/compiled"
	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
	"highorder/internal/gate"
	"highorder/internal/serve"
	"highorder/internal/store"
)

// layerInput is what the traced run replays in process after the window:
// the workload's model and history, and the ops its workers executed.
type layerInput struct {
	model     *core.Model
	hist      *data.Dataset
	modelPath string
	ops       [][]op                // per worker, the executed ops (capped at sizes.ReplayOps)
	warm      map[int][]data.Record // labels a session observed before its first op
	build     buildCost             // the workload's measured (train) or preparatory (serving) build
	crashCopy string                // fleet-tiered: r0's spill directory as the SIGKILL left it
}

// buildCost is the cost of one core.Build.
type buildCost struct {
	seconds float64
	allocMB float64
}

// timedBuild runs core.Build and measures its wall time and allocation.
func timedBuild(rc *runCtx, hist *data.Dataset) (*core.Model, buildCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := rc.clk()
	m, err := core.Build(hist, core.DefaultOptions())
	d := rc.clk().Sub(t0)
	runtime.ReadMemStats(&after)
	return m, buildCost{seconds: d.Seconds(), allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)}, err
}

// replayOps regenerates the ops each worker executed, capped per worker,
// and the labels sessions observed before their first op.
func replayOps(rc *runCtx, logs []*opLog) ([][]op, map[int][]data.Record) {
	ops := make([][]op, len(logs))
	warm := make(map[int][]data.Record)
	for w, lg := range logs {
		g := newOpGen(rc.workload, rc.seed, w, rc.sz)
		for k, recs := range g.warm {
			warm[g.global(k)] = recs
		}
		for i := 0; i < min(lg.ops, rc.sz.ReplayOps); i++ {
			ops[w] = append(ops[w], g.next())
		}
	}
	return ops, warm
}

// replayLayers calls each layer's public functions on the workload's own
// data, each call timed, and returns the per-layer metrics they yield.
func replayLayers(rc *runCtx, in layerInput) (map[string]float64, error) {
	root := rc.tr.start(nil, "replay", 0)
	defer root.end()
	m := make(map[string]float64)

	csvPath := filepath.Join(rc.dir, "history.csv")
	if err := writeCSV(csvPath, in.hist); err != nil {
		return nil, err
	}
	sp := root.child("dataio.ReadCSV")
	if _, err := readCSV(csvPath, in.hist.Schema); err != nil {
		return nil, err
	}
	sp.end()
	m["dataio.read_csv_s"] = rc.tr.get("dataio.ReadCSV").Total.Seconds()

	sp = root.child("dataio.LoadModel")
	if _, err := dataio.LoadModel(in.modelPath); err != nil {
		return nil, err
	}
	sp.end()
	m["dataio.load_model_ms"] = rc.tr.get("dataio.LoadModel").Total.Seconds() * 1e3

	sp = root.child("compiled.Compile")
	cm, err := compiled.Compile(in.model)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	m["compiled.compile_ms"] = rc.tr.get("compiled.Compile").Total.Seconds() * 1e3

	if err := replayCompiled(rc, root, cm, in); err != nil {
		return nil, err
	}
	m["compiled.classify_ns_per_record"] = perRecordNS(rc.tr.get("compiled.Predictor.ClassifyBatch"))
	m["compiled.observe_ns_per_record"] = perRecordNS(rc.tr.get("compiled.Predictor.Observe"))
	m["compiled.snapshot_us"] = perCallNS(rc.tr.get("compiled.Predictor.Snapshot")) / 1e3
	m["compiled.restore_us"] = perCallNS(rc.tr.get("compiled.Predictor.Restore")) / 1e3
	m["core.classify_ns_per_record"] = perRecordNS(rc.tr.get("core.Predictor.Predict"))
	m["core.observe_ns_per_record"] = perRecordNS(rc.tr.get("core.Predictor.Observe"))

	if err := replayCodecs(root, in); err != nil {
		return nil, err
	}
	m["serve.json_decode_ns_per_record"] = perRecordNS(rc.tr.get("json.Decoder.Decode"))
	m["serve.json_encode_ns_per_record"] = perRecordNS(rc.tr.get("json.Encoder.Encode"))
	m["serve.binary_decode_ns_per_record"] = perRecordNS(rc.tr.get("serve.DecodeBinary"))
	m["serve.binary_encode_ns_per_record"] = perRecordNS(rc.tr.get("serve.EncodeBinary"))

	if err := replayStore(rc, root, cm, in); err != nil {
		return nil, err
	}
	gets, hydrates := rc.tr.get("store.Store.Get"), rc.tr.get("store.Store.Get(hydrate)")
	m["store.put_us"] = perCallNS(rc.tr.get("store.Store.Put")) / 1e3
	m["store.log_observe_us"] = perCallNS(rc.tr.get("store.Store.LogObserve")) / 1e3
	m["store.spill_us"] = perCallNS(rc.tr.get("store.Store.Spill")) / 1e3
	m["store.hydrate_us"] = perCallNS(hydrates) / 1e3
	m["store.open_s"] = rc.tr.get("store.Open").Total.Seconds()
	m["store.hot_hit_ratio"] = ratio(float64(gets.Count), float64(gets.Count+hydrates.Count))

	replayRing(rc, root, in)
	m["gate.ring_owner_ns"] = perCallNS(rc.tr.get("gate.Ring.Owner"))

	if err := replayCluster(rc, root, in.hist); err != nil {
		return nil, err
	}
	m["cluster.cluster_s"] = rc.tr.get("cluster.ClusterConcepts").Total.Seconds()
	m["tree.train_ms"] = perCallNS(rc.tr.get("tree.Learner.Train")) / 1e6
	st := in.model.Stats.Clustering
	m["cluster.concepts"] = float64(in.model.NumConcepts())
	m["cluster.edges_evaluated"] = float64(st.EdgesEvaluated)
	m["cluster.models_trained"] = float64(st.ModelsTrained)
	m["cluster.models_reused"] = float64(st.ModelsReused)
	m["cluster.records_copied"] = float64(st.RecordsCopied)
	m["cluster.reuse_ratio"] = ratio(float64(st.ModelsReused), float64(st.Mergers))
	m["core.build_s"] = in.build.seconds
	m["core.alloc_mb_per_build"] = in.build.allocMB
	return m, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 { //homlint:allow floatcmp -- an exact zero count, not a computed tolerance
		return 0
	}
	return a / b
}

func perRecordNS(a spanAgg) float64 {
	if a.Records == 0 {
		return 0
	}
	return float64(a.Self.Nanoseconds()) / float64(a.Records)
}

func perCallNS(a spanAgg) float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total.Nanoseconds()) / float64(a.Count)
}

func writeCSV(path string, d *data.Dataset) error {
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, d); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readCSV(path string, schema *data.Schema) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //homlint:allow errdrop -- read-only file
	return dataio.ReadCSV(f, schema)
}

// replayCompiled runs the executed ops through compiled predictors, one per
// session, the way homserve's workers do, then snapshots and restores
// every session.
func replayCompiled(rc *runCtx, root *span, cm *compiled.Model, in layerInput) error {
	sp := root.child("replay.compiled")
	defer sp.end()
	sessions := make(map[int]*compiled.Predictor)
	session := func(i int) *compiled.Predictor {
		p := sessions[i]
		if p == nil {
			p = cm.NewPredictor(core.PredictorOptions{})
			sessions[i] = p
			if warm := in.warm[i]; warm != nil {
				observeCompiled(rc, sp, p, warm)
			}
		}
		return p
	}
	var order []int
	preds := make([]int, 0, 4096)
	for _, ops := range in.ops {
		for _, o := range ops {
			if _, seen := sessions[o.session]; !seen {
				order = append(order, o.session)
			}
			p := session(o.session)
			if o.kind == opCreate {
				observeCompiled(rc, sp, p, o.recs)
				continue
			}
			preds = preds[:len(o.recs)]
			t0 := rc.clk()
			p.ClassifyBatch(o.recs, preds)
			sp.add("compiled.Predictor.ClassifyBatch", 1, rc.clk().Sub(t0), int64(len(o.recs)))
			if o.kind == opRound {
				observeCompiled(rc, sp, p, o.recs)
			}
		}
	}
	for _, i := range order {
		t0 := rc.clk()
		st := sessions[i].Snapshot()
		sp.add("compiled.Predictor.Snapshot", 1, rc.clk().Sub(t0), 0)
		fresh := cm.NewPredictor(core.PredictorOptions{})
		t0 = rc.clk()
		err := fresh.Restore(st)
		sp.add("compiled.Predictor.Restore", 1, rc.clk().Sub(t0), 0)
		if err != nil {
			return fmt.Errorf("restore session %d: %w", i, err)
		}
	}
	return nil
}

func observeCompiled(rc *runCtx, sp *span, p *compiled.Predictor, recs []data.Record) {
	t0 := rc.clk()
	for _, r := range recs {
		p.Observe(r)
	}
	sp.add("compiled.Predictor.Observe", int64(len(recs)), rc.clk().Sub(t0), int64(len(recs)))
}

// replayCodecs performs the server's share of the wire work for every
// executed request in both codecs: decode the request body, encode the
// response.
func replayCodecs(root *span, in layerInput) error {
	sp := root.child("replay.codecs")
	defer sp.end()
	clk := root.t.clk
	timeIt := func(name string, records int, f func() error) error {
		t0 := clk()
		err := f()
		sp.add(name, 1, clk().Sub(t0), int64(records))
		return err
	}
	var out bytes.Buffer
	for _, ops := range in.ops {
		for _, o := range ops {
			n := len(o.recs)
			vecs := vectors(o.recs)
			if o.kind != opCreate {
				req := serve.ClassifyRequest{Records: vecs}
				resp := serve.ClassifyResponse{Predictions: make([]int, n)}
				jbody, err := json.Marshal(req)
				if err != nil {
					return err
				}
				frame, err := serve.EncodeBinaryClassifyRequest(req)
				if err != nil {
					return err
				}
				var got serve.ClassifyRequest
				if err := timeIt("json.Decoder.Decode", n, func() error { return strictDecode(jbody, &got) }); err != nil {
					return err
				}
				if err := timeIt("serve.DecodeBinary", n, func() error { _, err := serve.DecodeBinaryClassifyRequest(frame); return err }); err != nil {
					return err
				}
				out.Reset()
				if err := timeIt("json.Encoder.Encode", n, func() error { return json.NewEncoder(&out).Encode(resp) }); err != nil {
					return err
				}
				if err := timeIt("serve.EncodeBinary", n, func() error { _, err := serve.EncodeBinaryClassifyResponse(resp); return err }); err != nil {
					return err
				}
			}
			if o.kind == opClassify {
				continue
			}
			classes := make([]int, n)
			for i, r := range o.recs {
				classes[i] = r.Class
			}
			req := serve.ObserveRequest{Records: vecs, Classes: classes}
			resp := serve.ObserveResponse{Observed: n, Applied: n}
			jbody, err := json.Marshal(req)
			if err != nil {
				return err
			}
			frame, err := serve.EncodeBinaryObserveRequest(req)
			if err != nil {
				return err
			}
			var got serve.ObserveRequest
			if err := timeIt("json.Decoder.Decode", n, func() error { return strictDecode(jbody, &got) }); err != nil {
				return err
			}
			if err := timeIt("serve.DecodeBinary", n, func() error { _, err := serve.DecodeBinaryObserveRequest(frame); return err }); err != nil {
				return err
			}
			out.Reset()
			if err := timeIt("json.Encoder.Encode", n, func() error { return json.NewEncoder(&out).Encode(resp) }); err != nil {
				return err
			}
			_ = timeIt("serve.EncodeBinary", n, func() error { serve.EncodeBinaryObserveResponse(resp); return nil })
		}
	}
	return nil
}

// strictDecode decodes a request body the way homserve does.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// benchSession is the value of the benchmark's own tiered store.
type benchSession struct{ p *compiled.Predictor }

// storeCallbacks write exactly the bytes homserve writes: a JSON
// serve.SessionSnapshot per spill, JSON serve.SessionOptions per create,
// and a JSON []data.Record per logged observe batch.
func storeCallbacks(cm *compiled.Model) store.Callbacks[*benchSession] {
	fresh := func() *benchSession { return &benchSession{p: cm.NewPredictor(core.PredictorOptions{})} }
	return store.Callbacks[*benchSession]{
		Snapshot: func(id string, s *benchSession) ([]byte, uint64, error) {
			st := s.p.Snapshot()
			b, err := json.Marshal(serve.SessionSnapshot{ID: id, State: st})
			return b, uint64(st.Observed), err
		},
		Hydrate: func(id string, b []byte) (*benchSession, error) {
			var snap serve.SessionSnapshot
			if err := json.Unmarshal(b, &snap); err != nil {
				return nil, err
			}
			s := fresh()
			return s, s.p.Restore(snap.State)
		},
		Create: func(id string, b []byte) (*benchSession, error) { return fresh(), nil },
		Replay: func(id string, s *benchSession, b []byte) (int, error) {
			var recs []data.Record
			if err := json.Unmarshal(b, &recs); err != nil {
				return 0, err
			}
			for _, r := range recs {
				s.p.Observe(r)
			}
			return len(recs), nil
		},
	}
}

// spillProbe is how many sessions the store replay explicitly spills and
// hydrates, so every workload yields spill and hydrate samples.
const spillProbe = 64

// replayStore drives a store of the benchmark's own, in a scratch directory
// on the same filesystem, with the executed ops: Put per new session, Get
// per op, LogObserve per observed batch; then explicit spills and
// hydrations, and store.Open of a crash image.
func replayStore(rc *runCtx, root *span, cm *compiled.Model, in layerInput) error {
	sp := root.child("replay.store")
	defer sp.end()
	dir := filepath.Join(rc.dir, "bench-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cfg := store.Config{Dir: dir, HotLimit: rc.sz.FleetHot, WAL: true}
	st, err := store.Open(cfg, storeCallbacks(cm))
	if err != nil {
		return err
	}
	defer st.Close() //homlint:allow errdrop -- scratch store; the replay's numbers are already taken
	createBlob, err := json.Marshal(serve.SessionOptions{})
	if err != nil {
		return err
	}
	timeIt := func(name string, f func() error) error {
		t0 := rc.clk()
		err := f()
		sp.add(name, 1, rc.clk().Sub(t0), 0)
		return err
	}
	logObserve := func(id string, s *benchSession, recs []data.Record) error {
		base := uint64(s.p.Observed())
		for _, r := range recs {
			s.p.Observe(r)
		}
		blob, err := json.Marshal(recs)
		if err != nil {
			return err
		}
		return timeIt("store.Store.LogObserve", func() error { return st.LogObserve(id, base, blob) })
	}
	get := func(i int) (*benchSession, error) {
		id := sessionID(i)
		t0 := rc.clk()
		s, ok, hydrated, err := st.Get(id)
		name := "store.Store.Get"
		switch {
		case hydrated:
			name = "store.Store.Get(hydrate)"
		case !ok:
			name = "store.Store.Get(miss)"
		}
		sp.add(name, 1, rc.clk().Sub(t0), 0)
		if err != nil || ok {
			return s, err
		}
		s = &benchSession{p: cm.NewPredictor(core.PredictorOptions{})}
		if err := timeIt("store.Store.Put", func() error { return st.Put(id, createBlob, s) }); err != nil {
			return nil, err
		}
		if warm := in.warm[i]; warm != nil {
			return s, logObserve(id, s, warm)
		}
		return s, nil
	}
	for _, ops := range in.ops {
		for _, o := range ops {
			s, err := get(o.session)
			if err != nil {
				return err
			}
			if o.kind != opClassify {
				if err := logObserve(sessionID(o.session), s, o.recs); err != nil {
					return err
				}
			}
		}
	}
	// Spill some hot sessions explicitly, then hydrate them back. The ids
	// are collected first: EachHot's callback must not call into the store.
	var probe []string
	st.EachHot(func(id string, _ *benchSession) bool {
		probe = append(probe, id)
		return len(probe) < spillProbe
	})
	sort.Strings(probe)
	for _, id := range probe {
		if err := timeIt("store.Store.Spill", func() error { return st.Spill(id) }); err != nil {
			return err
		}
	}
	for _, id := range probe {
		i, _ := sessionIndex(id)
		if _, err := get(i); err != nil {
			return err
		}
	}

	image := in.crashCopy
	if image == "" {
		image = dir + "-crash-copy"
		if err := os.RemoveAll(image); err != nil {
			return err
		}
		if err := copyDir(dir, image); err != nil {
			return err
		}
	}
	cfg.Dir = image
	osp := sp.child("store.Open")
	reopened, err := store.Open(cfg, storeCallbacks(cm))
	osp.end()
	if err != nil {
		return fmt.Errorf("reopen crash image: %w", err)
	}
	return reopened.Close()
}

// replayRing resolves every executed op's session on a two-replica ring,
// as homgate does per request.
func replayRing(rc *runCtx, root *span, in layerInput) {
	sp := root.child("replay.ring")
	defer sp.end()
	ring := gate.NewRing(gate.DefaultVnodes)
	ring.Add("r0")
	ring.Add("r1")
	var ids []string
	for _, ops := range in.ops {
		for _, o := range ops {
			ids = append(ids, sessionID(o.session))
		}
	}
	t0 := rc.clk()
	for _, id := range ids {
		ring.Owner(id)
	}
	sp.add("gate.Ring.Owner", int64(len(ids)), rc.clk().Sub(t0), 0)
}

// replayCluster reruns the build's clustering on the workload's history
// with the options core.Build passes, then trains one classifier per
// discovered concept on all its records, as Build's retraining does.
func replayCluster(rc *runCtx, root *span, hist *data.Dataset) error {
	sp := root.child("replay.cluster")
	defer sp.end()
	o := core.DefaultOptions()
	csp := sp.child("cluster.ClusterConcepts")
	cl, err := cluster.ClusterConcepts(hist, cluster.Options{
		Learner:          o.Learner,
		BlockSize:        o.BlockSize,
		Seed:             o.Seed,
		EarlyStopMinSize: o.EarlyStopMinSize,
		EarlyStopFactor:  o.EarlyStopFactor,
		ReuseRatio:       o.ReuseRatio,
		Workers:          o.Workers,
		CutSlack:         o.CutSlack,
	})
	csp.end()
	if err != nil {
		return err
	}
	for _, c := range cl.Concepts {
		var recs []data.Record
		for _, oi := range c.Occurrences {
			occ := cl.Occurrences[oi]
			recs = append(recs, hist.Records[occ.Start:occ.End]...)
		}
		tsp := sp.child("tree.Learner.Train")
		tsp.setRecords(len(recs))
		_, err := o.Learner.Train(&data.Dataset{Schema: hist.Schema, Records: recs})
		tsp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayedServerWork estimates, from the replayed per-record and per-call
// costs, the seconds of codec, kernel and store work the servers did for
// the window's requests; the rest of their request time is unattributed.
func replayedServerWork(workload string, lm map[string]float64, classified, observed, observes int, hydrates float64) float64 {
	dec, enc := lm["serve.binary_decode_ns_per_record"], lm["serve.binary_encode_ns_per_record"]
	if workload == wStreamJSON {
		dec, enc = lm["serve.json_decode_ns_per_record"], lm["serve.json_encode_ns_per_record"]
	}
	ns := float64(classified+observed)*(dec+enc) +
		float64(classified)*lm["compiled.classify_ns_per_record"] +
		float64(observed)*lm["compiled.observe_ns_per_record"]
	if workload == wFleetTiered {
		ns += float64(observes)*lm["store.log_observe_us"]*1e3 + hydrates*lm["store.hydrate_us"]*1e3
	}
	return ns / 1e9
}
