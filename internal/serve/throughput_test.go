//go:build !race

// The end-to-end records/s floor of the compiled classify path. The race
// detector's instrumentation would make the floor vacuous, so this file
// is excluded from the -race run; verify.sh runs it in a separate
// non-race pass.

package serve

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"highorder/internal/synth"
)

// TestBinaryClassifyThroughput is the live-HTTP twin of the compiled
// kernel's records/s floor (internal/compiled TestClassifyBatchThroughput):
// classify-only traffic over the binary codec, through a loopback HTTP
// server, the bounded queue, the session table and the compiled kernel,
// must sustain at least 1M records/s. The session is warmed with labeled
// records first, so its prior is concentrated — the steady state the hot
// path is built for.
func TestBinaryClassifyThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput floor skipped in -short mode")
	}
	const (
		floor   = 1e6
		records = 200000
		batch   = 2048
	)
	m := buildStaggerModel(t)
	// The floor is per core, with client and server sharing it: pin the
	// server's workers and the measurement to one P, whatever GOMAXPROCS
	// the test binary runs under.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(m, Options{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := NewClient(ts.URL, nil).WithCodec(CodecBinary)
	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	g := synth.NewStagger(synth.StaggerConfig{Seed: 42, Lambda: 0.02})
	warm := synth.TakeDataset(g, 128).Records
	vectors, classes := toWire(warm)
	if _, err := c.Observe(created.ID, vectors, classes); err != nil {
		t.Fatal(err)
	}
	vectors, _ = toWire(synth.TakeDataset(g, batch).Records)

	start := time.Now() //homlint:allow determinism -- wall-clock throughput measurement is the point of this gate
	for done := 0; done < records; {
		n := min(batch, records-done)
		if _, err := c.Classify(created.ID, vectors[:n], false); err != nil {
			t.Fatal(err)
		}
		done += n
	}
	rps := records / time.Since(start).Seconds() //homlint:allow determinism -- see above
	t.Logf("binary classify over HTTP: %.0f records/s (floor %.0f)", rps, floor)
	if rps < floor {
		t.Fatalf("binary classify over HTTP sustained %.0f records/s, floor is %.0f", rps, floor)
	}
}
