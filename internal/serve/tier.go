package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"highorder/internal/core"
	"highorder/internal/data"
	"highorder/internal/store"
)

// TierOptions configure the tiered session store: a bounded in-memory hot
// set over an on-disk snapshot tier plus a write-ahead log of acknowledged
// observe batches (internal/store). With tiering enabled the session
// population is bounded by disk, not memory: sessions evicted from the hot
// set — by clock pressure or TTL idleness — spill to compact snapshot
// files and rehydrate transparently on their next request, and every
// acknowledged label survives a crash via WAL replay.
type TierOptions struct {
	// SpillDir is the directory holding the per-shard segment/WAL files.
	// Empty disables tiering entirely: sessions live in a memory-only
	// store bounded by Options.MaxSessions and die with the process, and
	// NewTiered refuses the other tier settings.
	SpillDir string
	// HotSessions bounds the in-memory hot set; <= 0 selects 1024.
	HotSessions int
	// WAL enables the write-ahead label log: each acknowledged observe
	// batch is fsync'd before the response is released and replayed on
	// restart, so an acked label survives kill -9.
	WAL bool
	// Shards is the number of segment/WAL file pairs; <= 0 selects the
	// store's default (8).
	Shards int
}

func (t TierOptions) enabled() bool { return t.SpillDir != "" }

// check refuses tier settings that need a spill directory when none is
// set: a memory-only store has no log to write, no hot set to bound and
// no files to shard, so they would be silently ignored.
func (t TierOptions) check() error {
	if t.enabled() {
		return nil
	}
	var set []string
	if t.WAL {
		set = append(set, "WAL")
	}
	if t.HotSessions > 0 {
		set = append(set, "HotSessions")
	}
	if t.Shards > 0 {
		set = append(set, "Shards")
	}
	if len(set) > 0 {
		return fmt.Errorf("serve: tier settings %s need a SpillDir", strings.Join(set, ", "))
	}
	return nil
}

// withDefaults fills in the hot-set bound when tiering is enabled.
func (t TierOptions) withDefaults() TierOptions {
	if t.enabled() && t.HotSessions <= 0 {
		t.HotSessions = 1024
	}
	return t
}

// encodeSessionSnapshot renders a session's spill blob: the same
// SessionSnapshot wire type the migration path uses, whose JSON float64
// round trip is bit-exact. The snapshot's sequence is the predictor's
// observation count, which is what WAL observe records base against.
func encodeSessionSnapshot(sess *Session) ([]byte, uint64, error) {
	st := sess.State()
	opts := sess.Options()
	blob, err := json.Marshal(SessionSnapshot{
		ID:      sess.ID(),
		Options: SessionOptions{MAPOnly: opts.MAPOnly, DisablePruning: opts.DisablePruning},
		State:   st,
	})
	return blob, uint64(st.Observed), err
}

// tierCallbacks bridges the byte-oriented store to *Session values. All
// callbacks may run with store locks held and must not call back into the
// store (see store.Callbacks).
func (s *Server) tierCallbacks() store.Callbacks[*Session] {
	return store.Callbacks[*Session]{
		Snapshot: func(id string, sess *Session) ([]byte, uint64, error) {
			return encodeSessionSnapshot(sess)
		},
		Hydrate: func(id string, blob []byte) (*Session, error) {
			var snap SessionSnapshot
			if err := json.Unmarshal(blob, &snap); err != nil {
				return nil, fmt.Errorf("serve: hydrate %q: %w", id, err)
			}
			opts := core.PredictorOptions{MAPOnly: snap.Options.MAPOnly, DisablePruning: snap.Options.DisablePruning}
			sess := s.table.newSession(id, opts)
			if err := sess.p.Restore(snap.State); err != nil {
				return nil, fmt.Errorf("serve: hydrate %q: %w", id, err)
			}
			return sess, nil
		},
		Create: func(id string, blob []byte) (*Session, error) {
			var o SessionOptions
			if len(blob) > 0 {
				if err := json.Unmarshal(blob, &o); err != nil {
					return nil, fmt.Errorf("serve: recreate %q: %w", id, err)
				}
			}
			return s.table.newSession(id, core.PredictorOptions{MAPOnly: o.MAPOnly, DisablePruning: o.DisablePruning}), nil
		},
		Replay: func(id string, sess *Session, blob []byte) (int, error) {
			var recs []data.Record
			if err := json.Unmarshal(blob, &recs); err != nil {
				return 0, fmt.Errorf("serve: replay %q: %w", id, err)
			}
			sess.mu.Lock()
			for _, r := range recs {
				sess.p.Observe(r)
			}
			sess.mu.Unlock()
			return len(recs), nil
		},
		Seal: func(id string, sess *Session) {
			// Runs before the spill snapshot is taken: an observe batch
			// racing the spill either completes first (and the snapshot
			// captures it) or sees the mark and re-resolves through the
			// table (Server.runTask). Marking after the snapshot instead
			// would let an acknowledged batch land in the stale value and
			// vanish on the next hydration.
			sess.markSpilled()
		},
		Unseal: func(id string, sess *Session) { sess.clearSpilled() },
		OnSpill: func(id string, sess *Session) {
			// The value has left the hot tier. Per-session metric series
			// die with the hot residency and are recreated at zero on
			// rehydration.
			s.metrics.sessionClosed(id)
		},
	}
}

// openStore opens the session store and wires it into the session table:
// lookups hydrate through it, TTL eviction spills to it, and freshly
// hydrated sessions get their introspection sink reattached. Without a
// spill directory the store is memory-only, and its hot set is the whole
// session population, bounded by MaxSessions.
func (s *Server) openStore() error {
	tier, hot := s.opts.Tier, s.opts.MaxSessions
	if tier.enabled() {
		hot = tier.HotSessions
	}
	st, err := store.Open(store.Config{
		Dir:            tier.SpillDir,
		HotLimit:       hot,
		Shards:         tier.Shards,
		WAL:            tier.WAL,
		Clock:          s.opts.Clock,
		Fault:          s.opts.Fault,
		HydrateObserve: s.metrics.hydrateObserved,
	}, s.tierCallbacks())
	if err != nil {
		return fmt.Errorf("serve: open session store: %w", err)
	}
	s.store = st
	s.table.str = st
	s.table.onHydrate = func(sess *Session) { sess.setSink(s.sessionSink(sess)) }
	return nil
}

// appliedRecords filters an observe batch down to the records the
// predictor actually absorbed (fault-injected label loss reports drops by
// index). The WAL must log exactly this subset: recovery replays the log
// verbatim, and a dropped record never touched the posterior.
func appliedRecords(recs []data.Record, dropped []int) []data.Record {
	if len(dropped) == 0 {
		return recs
	}
	out := make([]data.Record, 0, len(recs)-len(dropped))
	di := 0
	for i, r := range recs {
		if di < len(dropped) && dropped[di] == i {
			di++
			continue
		}
		out = append(out, r)
	}
	return out
}

// logObserve appends the applied half of an observe batch to the
// write-ahead label log and fsyncs it — called before the response is
// released, which is what makes an acknowledged label durable. baseSeq is
// the predictor's observation count before this batch, so recovery can
// detect and refuse gapped replay.
func (s *Server) logObserve(sess *Session, recs []data.Record, resp *ObserveResponse) error {
	applied := appliedRecords(recs, resp.Dropped)
	blob, err := json.Marshal(applied)
	if err != nil {
		return fmt.Errorf("encode observe log: %w", err)
	}
	base := uint64(resp.Observed - resp.Applied)
	if err := s.store.LogObserve(sess.id, base, blob); err != nil {
		return fmt.Errorf("observe applied but not durably logged: %w", err)
	}
	return nil
}
