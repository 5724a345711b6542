package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"syscall"
	"time"

	"highorder/internal/clock"
)

// The host this benchmark runs on is shared, and its neighbours slow it by
// varying amounts: on one 2-core VM, raw throughputs of one workload drifted
// by up to 40% across ten consecutive runs, and the server CPU time per
// record moved with them, so the host ran the same instructions slower.
// Every run therefore measures the host's current speed with three
// reference units, in a burst before its window and after each slice of it
// while the system under test is idle, and reports its end-to-end timings
// scaled to a reference host. The units use only the standard library, so
// no change to this repository can change their cost. Neighbours slow
// different kinds of work by different amounts, so each unit times one kind
// the workloads do:
//
//   - cpu: hashing, small-map updates, JSON round trips and sorting;
//   - http: one JSON exchange with a net/http server over loopback;
//   - mem: dependent loads scattered over 16 MB, past the core's own caches.
//
// A burst's slowdown is the geometric mean of the three units' slowdowns.
// In three exploratory sets of four to eight runs per workload, the largest
// quartile spread of a rate, latency or CPU metric was 30%, 28% and 18%
// raw, 14%, 11% and 8% scaled by the cpu unit alone, and 9%, 6.5% and 8%
// scaled by the three.

// refUnit is one reference unit and its median time on the reference host
// (the 2-core Xeon VM the benchmark was defined on, quiet).
type refUnit struct {
	name  string
	ref   time.Duration
	run   func() error
	close func() // releases what the unit holds; nil when it holds nothing
}

// calibration is one run's record of host speed: per burst, each unit's
// median time as a multiple of its reference time.
type calibration struct {
	units     []refUnit
	slowdowns [][]float64
}

func newCalibration() (*calibration, error) {
	c := &calibration{units: []refUnit{newCPUUnit()}}
	for _, newUnit := range []func() (refUnit, error){newHTTPUnit, newMemUnit} {
		u, err := newUnit()
		if err != nil {
			c.close()
			return nil, err
		}
		c.units = append(c.units, u)
	}
	return c, nil
}

// close releases the units: it stops the http unit's server, waiting for
// it to exit, and unmaps the mem unit's table.
func (c *calibration) close() {
	for _, u := range c.units {
		if u.close != nil {
			u.close()
		}
	}
}

// measure runs one burst of about d, shared evenly among the units.
func (c *calibration) measure(clk clock.Clock, d time.Duration) error {
	per := d / time.Duration(len(c.units))
	row := make([]float64, len(c.units))
	for i, u := range c.units {
		t, err := medianRunTime(clk, u, per)
		if err != nil {
			return fmt.Errorf("calibration unit %s: %w", u.name, err)
		}
		row[i] = float64(t) / float64(u.ref)
	}
	c.slowdowns = append(c.slowdowns, row)
	return nil
}

// medianRunTime runs u for about d, at least 5 times, and returns the
// median time of one run.
func medianRunTime(clk clock.Clock, u refUnit, d time.Duration) (time.Duration, error) {
	var times []time.Duration
	end := clk().Add(d)
	for len(times) < 5 || clk().Before(end) {
		t0 := clk()
		if err := u.run(); err != nil {
			return 0, err
		}
		times = append(times, clk().Sub(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// burst is how much slower than the reference host the host ran in burst b.
func (c *calibration) burst(b int) float64 {
	logSum := 0.0
	for _, s := range c.slowdowns[b] {
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(c.slowdowns[b])))
}

// factor is how much slower than the reference host the host ran around
// slice i, the mean of the bursts on either side: a raw time divided by
// it, or a raw rate multiplied by it, reads as on the reference host.
func (c *calibration) factor(i int) float64 {
	return (c.burst(i) + c.burst(i+1)) / 2
}

// slice is one slice of a measured window: a second of closed-loop load,
// or one build for train.
type slice struct {
	dur     time.Duration
	records int
	cpu     time.Duration // CPU time of the system under test
	lat     []float64     // op latencies in seconds; a failed op is +Inf
}

// windowMetrics reduces a window's slices to the rate, latency and CPU
// metrics. Each slice's values are scaled by the host-speed factor measured
// around it (1 for the raw values), and each metric is the median over
// slices, so a slice in which the host stalled does not move it. With pool
// (train, whose slices hold one build each) latencies are pooled over the
// window instead.
func windowMetrics(slices []slice, factor func(i int) float64, pool bool) map[string]float64 {
	var rate, cpu, p50, p90, all []float64
	for i, s := range slices {
		if s.records == 0 {
			continue
		}
		f := factor(i)
		rate = append(rate, float64(s.records)/s.dur.Seconds()*f)
		cpu = append(cpu, s.cpu.Seconds()/float64(s.records)*1e6/f)
		lat := make([]float64, len(s.lat))
		for j, v := range s.lat {
			lat[j] = v / f * 1e3
		}
		sort.Float64s(lat)
		all = append(all, lat...)
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
	}
	if pool {
		sort.Float64s(all)
		p50, p90 = []float64{quantile(all, 0.50)}, []float64{quantile(all, 0.90)}
	}
	return map[string]float64{
		"records_per_s":  median(rate),
		"cpu_s_per_mrec": median(cpu),
		"op_p50_ms":      median(p50),
		"op_p90_ms":      median(p90),
	}
}

// endToEndMetrics assembles a run's end-to-end metrics, scaled to the
// reference host, and keeps among the extras the raw values, the median
// factor, and each unit's median slowdown.
func endToEndMetrics(slices []slice, cal *calibration, pool bool, setups []float64, rssMB float64, extras map[string]float64) map[string]float64 {
	one := func(int) float64 { return 1 }
	raw := windowMetrics(slices, one, pool)
	out := windowMetrics(slices, cal.factor, pool)
	// Set-up ran before the window, next to the first burst.
	raw["setup_s"], out["setup_s"] = median(setups), median(setups)/cal.burst(0)
	raw["peak_rss_mb"], out["peak_rss_mb"] = rssMB, rssMB
	for name, v := range raw {
		extras[name+"_raw"] = v
	}
	var fs []float64
	for i := range slices {
		fs = append(fs, cal.factor(i))
	}
	extras["calibration_factor"] = median(fs)
	for u, unit := range cal.units {
		var s []float64
		for _, row := range cal.slowdowns {
			s = append(s, row[u])
		}
		extras["calibration_"+unit.name] = median(s)
	}
	return out
}

// newCPUUnit is a fixed mix of the work the benchmark's processes do:
// hashing, scattered updates of a small map, JSON round trips of float
// vectors, and sorting.
func newCPUUnit() refUnit {
	buf := make([]byte, 32<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	m := make(map[int]int, 1<<14)
	var vecs [][]float64
	for i := 0; i < 64; i++ {
		vecs = append(vecs, []float64{float64(i) / 7, float64(i*i) / 13, float64(i) * 0.37})
	}
	var seed []float64
	for i := 0; i < 4096; i++ {
		seed = append(seed, float64((i*2654435761)%1000003))
	}
	sorted := make([]float64, len(seed))
	return refUnit{name: "cpu", ref: 950 * time.Microsecond, run: func() error {
		for i := 0; i < 4; i++ {
			sum := sha256.Sum256(buf)
			buf[i] ^= sum[0]
		}
		for i := 0; i < 20_000; i++ {
			m[(i*7919)&(1<<14-1)] += i
		}
		for i := 0; i < 4; i++ {
			b, err := json.Marshal(vecs)
			if err != nil {
				return err
			}
			var out [][]float64
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
		}
		copy(sorted, seed)
		sort.Float64s(sorted)
		return nil
	}}
}

// newHTTPUnit starts a net/http server on loopback that answers a JSON
// batch of 16 records with 16 labels; one run is one exchange with it over
// a kept-alive connection. The unit runs only between slices, when no
// request of the load is in flight.
func newHTTPUnit() (refUnit, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return refUnit{}, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct{ Records [][]float64 }
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := struct{ Labels []int }{make([]int, len(in.Records))}
		for i, v := range in.Records {
			if len(v) > 1 && v[0]+v[1] > 8 {
				out.Labels[i] = 1
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out) // a failed write shows as the client's error
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // always http.ErrServerClosed, from Close below
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	recs := make([][]float64, 16)
	for i := range recs {
		recs[i] = []float64{float64(i) * 0.613, float64(i*i) * 0.0377, 3.25 + float64(i)}
	}
	body, err := json.Marshal(struct{ Records [][]float64 }{recs})
	if err != nil {
		return refUnit{}, errors.Join(err, srv.Close())
	}
	url := "http://" + l.Addr().String() + "/"
	run := func() error {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body)) //homlint:allow tracectx -- a stdlib reference server, not a fleet peer
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close() //homlint:allow errdrop -- response body close errors are unactionable
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		var out struct{ Labels []int }
		if err := json.Unmarshal(b, &out); err != nil {
			return err
		}
		if len(out.Labels) != len(recs) {
			return fmt.Errorf("%d labels for %d records", len(out.Labels), len(recs))
		}
		return nil
	}
	stop := func() {
		_ = srv.Close() // the listener's close error is unactionable at the end of a run
		<-served
		tr.CloseIdleConnections()
	}
	return refUnit{name: "http", ref: 47 * time.Microsecond, run: run, close: stop}, nil
}

// newMemUnit follows a single cycle through a 16 MB table: slot i holds
// (a·i + c) mod n, a full-period generator for a ≡ 1 (mod 4) and odd c, so
// every load depends on the previous one and lands far from it. One run is
// 20,000 loads. The table is mapped outside the Go heap, so it does not
// change how the garbage collector paces the in-process train workload.
func newMemUnit() (refUnit, error) {
	const n = 4 << 20
	table, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return refUnit{}, fmt.Errorf("map the mem unit's table: %w", err)
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(table[4*i:], uint32((uint64(i)*(4*2654435761+1)+12345)%n))
	}
	var p uint32
	return refUnit{
		name: "mem", ref: 2500 * time.Microsecond,
		run: func() error {
			for i := 0; i < 20_000; i++ {
				p = binary.LittleEndian.Uint32(table[4*p:])
			}
			return nil
		},
		close: func() { _ = syscall.Munmap(table) }, // the mapping is private to this process; failure leaks it until exit
	}, nil
}
