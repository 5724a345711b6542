package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/dataio"
)

// system is the set of server processes one serving run drives.
type system struct {
	procs    []*proc // every server process, in start order
	replicas []*proc // the homserve processes
	entry    string  // base URL the workers send to
}

// stop drains every process, the entry point first.
func (s *system) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop(10 * time.Second)
	}
}

// boot starts the workload's servers and returns once every /healthz
// answers 200. Tiered replicas start on empty spill directories.
func boot(rc *runCtx, modelPath string, attempt int) (*system, error) {
	sys := &system{}
	fail := func(err error) (*system, error) {
		sys.stop()
		return nil, err
	}
	fleet := rc.workload == wFleetTiered
	replicas := 1
	if fleet {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		args := []string{"-model", modelPath, "-addr", addr}
		if fleet {
			spill := filepath.Join(rc.dir, fmt.Sprintf("spill-r%d", i))
			if err := os.RemoveAll(spill); err != nil {
				return fail(err)
			}
			args = append(args, "-spill-dir", spill, "-wal",
				"-hot-sessions", strconv.Itoa(rc.sz.FleetHot),
				"-max-sessions", strconv.Itoa(rc.sz.FleetSessions))
		}
		name := fmt.Sprintf("r%d", i)
		p, err := startProc(name, filepath.Join(rc.bin, "homserve"), args,
			filepath.Join(rc.dir, fmt.Sprintf("%s-boot%d.log", name, attempt)), "http://"+addr)
		if err != nil {
			return fail(err)
		}
		sys.procs = append(sys.procs, p)
		sys.replicas = append(sys.replicas, p)
	}
	for _, p := range sys.replicas {
		if err := waitHealthy(p, time.Minute); err != nil {
			return fail(err)
		}
	}
	if fleet {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		args := []string{"-listen", addr}
		for _, r := range sys.replicas {
			args = append(args, "-replica", r.name+"="+r.url)
		}
		g, err := startProc("gate", filepath.Join(rc.bin, "homgate"), args,
			filepath.Join(rc.dir, fmt.Sprintf("gate-boot%d.log", attempt)), "http://"+addr)
		if err != nil {
			return fail(err)
		}
		sys.procs = append(sys.procs, g)
		if err := waitHealthy(g, time.Minute); err != nil {
			return fail(err)
		}
	}
	sys.entry = sys.procs[len(sys.procs)-1].url
	return sys, nil
}

// opLog is one worker's record of its measured window.
type opLog struct {
	ops, failed int
	err         error
	lat         []float64 // seconds per op; a failed op is +Inf
	preds       []byte    // served predictions of opRound ops, in op order
	classified  int
	observed    int
	observes    int
	// first holds the first answer per (session, batch) of a classify-only
	// workload; a later answer that differs counts in changed.
	first   map[[2]int][]int
	changed int
}

// runOp performs one op and logs what the servers answered.
func runOp(c *client, sp *span, base string, o op, binary bool, lg *opLog) error {
	id := sessionID(o.session)
	switch o.kind {
	case opRound:
		preds, err := c.classify(sp, base, id, o.recs, binary)
		if err != nil {
			return err
		}
		for _, p := range preds {
			lg.preds = append(lg.preds, byte(p))
		}
		lg.classified += len(preds)
	case opCreate:
		if err := c.create(sp, base, id); err != nil {
			return err
		}
	case opClassify:
		preds, err := c.classify(sp, base, id, o.recs, binary)
		if err != nil {
			return err
		}
		key := [2]int{o.session, o.batch}
		if first, ok := lg.first[key]; !ok {
			lg.first[key] = preds
		} else if !slices.Equal(first, preds) {
			lg.changed++
		}
		lg.classified += len(preds)
		return nil
	}
	if err := c.observe(sp, base, id, o.recs, binary); err != nil {
		return err
	}
	lg.observed += len(o.recs)
	lg.observes++
	return nil
}

// drive runs one worker's closed loop until deadline: the next op starts
// only when the previous one has been answered.
func drive(rc *runCtx, c *client, base string, g *opGen, deadline time.Time, lg *opLog, tid int) {
	binary := rc.workload != wStreamJSON
	for c.clk().Before(deadline) {
		o := g.next()
		sp := rc.tr.start(nil, "client.op", tid)
		sp.setRecords(len(o.recs))
		t0 := c.clk()
		err := runOp(c, sp, base, o, binary, lg)
		d := c.clk().Sub(t0)
		sp.end()
		if err != nil {
			lg.failed++
			lg.err = err
			lg.lat = append(lg.lat, math.Inf(1))
			return
		}
		lg.ops++
		lg.lat = append(lg.lat, d.Seconds())
	}
}

// warmUp opens the sessions a workload expects to exist before its window
// and feeds the warm-up labels of bulk-binary.
func warmUp(rc *runCtx, c *client, base string, g *opGen) error {
	switch rc.workload {
	case wStreamJSON:
		for k := 0; k < g.local; k++ {
			if err := c.create(nil, base, sessionID(g.global(k))); err != nil {
				return err
			}
		}
	case wBulkBinary:
		for k := 0; k < g.local; k++ {
			id := sessionID(g.global(k))
			if err := c.create(nil, base, id); err != nil {
				return err
			}
			if err := c.observe(nil, base, id, g.warm[k], true); err != nil {
				return err
			}
		}
	}
	return nil
}

// scrapes records the wall time and size of every /metrics GET.
type scrapes struct {
	mu      sync.Mutex
	ms      []float64
	bytes   []float64
	tried   int
	failed  int
	lastErr error
}

func (s *scrapes) scrape(c *client, url string) {
	t0 := c.clk()
	b, err := c.get(url)
	d := c.clk().Sub(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tried++
	if err != nil {
		s.failed++
		s.lastErr = err
		return
	}
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.bytes = append(s.bytes, float64(len(b)))
}

// servedModel builds the served model from the fixed model history and
// saves it where the servers load it from.
func servedModel(rc *runCtx) (*core.Model, *data.Dataset, string, buildCost, error) {
	hist := &data.Dataset{Schema: newStream(0).Schema(), Records: modelHistory(rc.sz)}
	m, cost, err := timedBuild(rc, hist)
	if err != nil {
		return nil, nil, "", cost, fmt.Errorf("build served model: %w", err)
	}
	path := filepath.Join(rc.dir, "model.gob")
	return m, hist, path, cost, dataio.SaveModel(path, m)
}

func runServing(rc *runCtx) (*result, error) {
	res := newResult(rc)
	sz := rc.sz

	// Preparation, untimed: the model, then set-up repeated.
	model, hist, modelPath, build, err := servedModel(rc)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var sys *system
	for i := 0; i < sz.SetupRepeats; i++ {
		if sys != nil {
			sys.stop()
		}
		t0 := rc.clk()
		if sys, err = boot(rc, modelPath, i); err != nil {
			return nil, err
		}
		setups = append(setups, rc.clk().Sub(t0).Seconds())
	}
	defer sys.stop()

	c := newClient(rc.inflight)
	defer c.close()
	gens := make([]*opGen, sz.Workers)
	logs := make([]*opLog, sz.Workers)
	var wg sync.WaitGroup
	warmErrs := make([]error, sz.Workers)
	for w := range gens {
		gens[w] = newOpGen(rc.workload, rc.seed, w, sz)
		logs[w] = &opLog{first: make(map[[2]int][]int)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			warmErrs[w] = warmUp(rc, c, sys.entry, gens[w])
		}(w)
	}
	wg.Wait()
	for _, err := range warmErrs {
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// The window runs in slices. Each slice starts with one scrape of every
	// server; after it, with the servers idle, a calibration burst measures
	// the host's speed (see calibrate.go).
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	if err := cal.measure(rc.clk, sz.Calibration); err != nil {
		return nil, err
	}
	var sc scrapes
	var slices []slice
	var elapsed, clientCPU time.Duration
	seen := make([]int, len(logs)) // ops of each worker already in a slice
	classified := 0
	for elapsed < rc.window {
		cpu0, err := sys.cpu()
		if err != nil {
			return nil, err
		}
		self0 := selfCPU()
		start := rc.clk()
		deadline := start.Add(min(sz.Slice, rc.window-elapsed))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range sys.procs {
				sc.scrape(c, p.url+"/metrics")
			}
		}()
		for w := range gens {
			if logs[w].failed > 0 {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				drive(rc, c, sys.entry, gens[w], deadline, logs[w], w+1)
			}(w)
		}
		wg.Wait()
		s := slice{dur: rc.clk().Sub(start)}
		elapsed += s.dur
		cpu1, err := sys.cpu()
		if err != nil {
			return nil, err
		}
		s.cpu = cpu1 - cpu0
		clientCPU += selfCPU() - self0
		for w, lg := range logs {
			s.lat = append(s.lat, lg.lat[seen[w]:]...)
			seen[w] = len(lg.lat)
			s.records += lg.classified
		}
		s.records -= classified
		classified += s.records
		slices = append(slices, s)
		if err := cal.measure(rc.clk, sz.CalibrationSlice); err != nil {
			return nil, err
		}
	}

	// The servers' own view, after the window.
	expo := make(map[string]string)
	for _, p := range sys.procs {
		b, err := c.get(p.url + "/metrics")
		if err != nil {
			return nil, err
		}
		expo[p.name] = string(b)
	}
	rss := 0.0
	for _, p := range sys.procs {
		v, err := peakRSSMB(p.pid())
		if err != nil {
			return nil, err
		}
		rss += v
	}

	// Accounting.
	ops, observed, observes := 0, 0, 0
	for _, lg := range logs {
		res.Attempted += int64(lg.ops + lg.failed)
		res.Failed += int64(lg.failed)
		if lg.err != nil {
			res.problem("op failed: %v", lg.err)
		}
		ops += lg.ops
		observed += lg.observed
		observes += lg.observes
		if lg.changed > 0 {
			res.problem("%d classify answers differed from an earlier answer to the same batch", lg.changed)
		}
	}
	res.Attempted += int64(sc.tried)
	res.Failed += int64(sc.failed)
	if sc.lastErr != nil {
		res.problem("scrape failed: %v", sc.lastErr)
	}
	res.Retried = c.retried.Load()

	var rec *recovery
	if rc.workload == wFleetTiered && res.Failed == 0 {
		if rec, err = crashRestart(rc, c, sys); err != nil {
			return nil, err
		}
	}

	// Correctness, after the servers stopped taking load.
	tw := checkServed(rc, model, logs, res)
	if rec != nil {
		rec.check(c, tw, res)
	}
	sys.stop()

	e2e := endToEndMetrics(slices, cal, false, setups, rss, res.Extras)
	res.Extras["ops"] = float64(ops)
	res.Extras["scrape_ms"] = median(sc.ms)
	res.Extras["error_rate"] = tw.errorRate()
	if rec != nil {
		res.Extras["recover_s"] = rec.took.Seconds()
		res.Extras["r0_sessions_checked"] = float64(rec.checked)
	}
	if !rc.traced {
		res.Metrics = e2e
		return res, nil
	}

	// Traced run: the per-layer split.
	sv := serverView(expo)
	replay, warm := replayOps(rc, logs)
	lin := layerInput{model: model, hist: hist, modelPath: modelPath, ops: replay, warm: warm, build: build}
	if rec != nil {
		lin.crashCopy = rec.copyDir
	}
	lm, err := replayLayers(rc, lin)
	if err != nil {
		return nil, err
	}
	wire := time.Duration(c.wire.Load()).Seconds()
	lm["serve.server_share"] = ratio(sv.serverSeconds, wire)
	lm["gate.route_share"] = ratio(sv.routeSeconds, wire)
	work := replayedServerWork(rc.workload, lm, classified, observed, observes, sv.hydrates)
	lm["serve.unattributed_share"] = 1 - ratio(work, sv.serverSeconds)
	lm["serve.queue_depth_max"] = sv.queueMax
	lm["store.spills"] = sv.spills
	lm["store.hydrates"] = sv.hydrates
	lm["store.wal_replayed_records"] = 0
	if rec != nil {
		lm["store.wal_replayed_records"] = rec.walReplayed
	}
	lm["obs.scrape_bytes"] = median(sc.bytes)
	lm["client.cpu_share"] = clientCPU.Seconds() / elapsed.Seconds()
	lm["client.retried"] = float64(res.Retried)
	lm["quality.error_rate"] = tw.errorRate()
	lm["trace.records_per_s"] = e2e["records_per_s"]
	res.Metrics = lm
	return res, nil
}

// cpu returns the summed CPU time of every server process.
func (s *system) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range s.procs {
		d, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// serverSide is what the servers' expositions say about the window.
type serverSide struct {
	serverSeconds float64 // classify+observe request time inside homserve
	routeSeconds  float64 // request time inside homgate
	queueMax      float64
	spills        float64
	hydrates      float64
}

func serverView(expo map[string]string) serverSide {
	var sv serverSide
	for name, text := range expo {
		if name == "gate" {
			sv.routeSeconds += sumSeries(text, "hom_gate_route_seconds_sum", "")
			continue
		}
		sv.serverSeconds += sumSeries(text, "homserve_request_seconds_sum", `endpoint="classify"`)
		sv.serverSeconds += sumSeries(text, "homserve_request_seconds_sum", `endpoint="observe"`)
		sv.queueMax = math.Max(sv.queueMax, sumSeries(text, "homserve_queue_depth_max", ""))
		sv.spills += sumSeries(text, "hom_spill_total", "")
		sv.hydrates += sumSeries(text, "hom_hydrate_total", "")
	}
	return sv
}

// sumSeries adds the values of every sample of name whose label set
// contains label ("" matches any).
func sumSeries(text, name, label string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// recovery is fleet-tiered's crash of replica r0 after the window.
type recovery struct {
	r0          *proc
	sessions    []string // session ids homed on r0 when it was killed
	took        time.Duration
	walReplayed float64
	copyDir     string // traced runs: r0's spill directory as the crash left it
	checked     int
}

// crashRestart SIGKILLs r0, restarts it on the same address and spill
// directory, and times the restart until /healthz answers — the WAL replay
// included.
func crashRestart(rc *runCtx, c *client, sys *system) (*recovery, error) {
	r0 := sys.replicas[0]
	b, err := c.get(sys.entry + "/v1/sessions")
	if err != nil {
		return nil, err
	}
	var routes struct {
		Sessions []struct {
			ID      string `json:"id"`
			Replica string `json:"replica"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(b, &routes); err != nil {
		return nil, fmt.Errorf("gate session list: %w", err)
	}
	rec := &recovery{r0: r0}
	for _, s := range routes.Sessions {
		if s.Replica == r0.name {
			rec.sessions = append(rec.sessions, s.ID)
		}
	}
	r0.kill()
	if rc.traced {
		rec.copyDir = filepath.Join(rc.dir, "r0-crash-copy")
		if err := copyDir(filepath.Join(rc.dir, "spill-r0"), rec.copyDir); err != nil {
			return nil, err
		}
	}
	t0 := rc.clk()
	if err := r0.start(); err != nil {
		return nil, err
	}
	if err := waitHealthy(r0, time.Minute); err != nil {
		return nil, err
	}
	rec.took = rc.clk().Sub(t0)
	text, err := c.get(r0.url + "/metrics")
	if err != nil {
		return nil, err
	}
	rec.walReplayed = sumSeries(string(text), "hom_wal_replayed_records_total", "")
	return rec, nil
}

// check compares every session r0 held against its offline twin, bit for
// bit: the recovered state must hold every acknowledged label.
func (rec *recovery) check(c *client, tw *twins, res *result) {
	for _, id := range rec.sessions {
		b, err := c.get(rec.r0.url + "/v1/sessions/" + id)
		if err != nil {
			res.problem("r0 after restart: %v", err)
			continue
		}
		var info struct {
			Observed int       `json:"observed"`
			Active   []float64 `json:"active"`
		}
		if err := json.Unmarshal(b, &info); err != nil {
			res.problem("r0 session %s: %v", id, err)
			continue
		}
		i, ok := sessionIndex(id)
		twin := tw.bySession[i]
		if !ok || twin == nil {
			res.problem("r0 lists session %s the benchmark never created", id)
			continue
		}
		st := twin.Snapshot()
		if info.Observed != st.Observed || !bitsEqual(info.Active, st.Active) {
			res.problem("r0 session %s after restart: observed %d, twin %d, active probabilities differ: %v",
				id, info.Observed, st.Observed, !bitsEqual(info.Active, st.Active))
			continue
		}
		rec.checked++
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
