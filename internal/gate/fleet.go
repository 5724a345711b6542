package gate

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"highorder/internal/core"
	"highorder/internal/serve"
)

// Fleet runs homserve replicas in-process on loopback listeners. It is
// the Scaler behind the homload fleet mode and the chaos suite: replicas
// can be provisioned, gracefully retired, or killed abruptly (listener
// closed, state discarded) to model a crash. Fleet.mu is a leaf lock
// (see doc.go).
type Fleet struct {
	model *core.Model
	opts  serve.Options

	// ReplicaOptions, when non-nil, customizes each new replica's options
	// from the shared template — e.g. giving every replica a flight
	// recorder named after its id. Called once per ScaleUp, before the
	// replica's Server is built. Set before the first ScaleUp.
	ReplicaOptions func(id string, opts serve.Options) serve.Options

	mu      sync.Mutex
	next    int
	members map[string]*fleetMember
}

// fleetMember is one live replica: its serve.Server plus the HTTP server
// and listener exposing it.
type fleetMember struct {
	id   string
	url  string
	srv  *serve.Server
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
}

// NewFleet returns an empty fleet whose replicas all serve model with
// opts (each replica gets its own Server — its own execution slots and
// metrics registry).
func NewFleet(model *core.Model, opts serve.Options) *Fleet {
	return &Fleet{model: model, opts: opts, members: make(map[string]*fleetMember)}
}

// ScaleUp starts replica "r<N>" on 127.0.0.1:0 and returns its id and
// base URL. Implements Scaler.
func (f *Fleet) ScaleUp() (string, string, error) {
	f.mu.Lock()
	f.next++
	id := "r" + strconv.Itoa(f.next)
	f.mu.Unlock()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	opts := f.opts
	if f.ReplicaOptions != nil {
		opts = f.ReplicaOptions(id, opts)
	}
	srv, err := serve.NewTiered(f.model, opts)
	if err != nil {
		// A replica that cannot open its spill directory must not join the
		// ring half-alive.
		_ = ln.Close()
		return "", "", fmt.Errorf("gate: start replica %s: %w", id, err)
	}
	srv.Start()
	m := &fleetMember{
		id:   id,
		url:  "http://" + ln.Addr().String(),
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		// Serve returns once the listener closes (retire or kill).
		_ = m.hs.Serve(ln)
		close(m.done)
	}()

	f.mu.Lock()
	f.members[id] = m
	f.mu.Unlock()
	return id, m.url, nil
}

// ScaleDown gracefully retires a replica: the listener stops accepting,
// then the serve.Server finishes its admitted requests and checkpoints.
// Implements Scaler.
func (f *Fleet) ScaleDown(id string) error {
	m, err := f.take(id)
	if err != nil {
		return err
	}
	_ = m.hs.Close()
	<-m.done
	m.srv.Close()
	return nil
}

// Kill hard-stops a replica with no drain: connections reset, waiting
// work and session state are gone — the crash the health checker and the
// migrator's recovery path exist for.
func (f *Fleet) Kill(id string) error {
	m, err := f.take(id)
	if err != nil {
		return err
	}
	_ = m.ln.Close()
	_ = m.hs.Close()
	<-m.done
	m.srv.Close()
	return nil
}

// take claims a member for teardown.
func (f *Fleet) take(id string) (*fleetMember, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.members[id]
	if !ok {
		return nil, fmt.Errorf("gate: fleet has no replica %q", id)
	}
	delete(f.members, id)
	return m, nil
}

// URL returns a live replica's base URL.
func (f *Fleet) URL(id string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.members[id]
	if !ok {
		return "", false
	}
	return m.url, true
}

// IDs lists live replica ids in sorted order.
func (f *Fleet) IDs() []string {
	f.mu.Lock()
	ids := make([]string, 0, len(f.members))
	for id := range f.members {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Size returns the live replica count.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Close tears the whole fleet down gracefully.
func (f *Fleet) Close() {
	for _, id := range f.IDs() {
		_ = f.ScaleDown(id)
	}
}
