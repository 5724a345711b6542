package store

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// Open recovers a tiered store from dir (creating it if needed) and
// returns it ready to serve. Recovery is the replay ladder in the
// package comment: per shard, every readable frame from the segment and
// WAL files is merged into one per-id event stream ordered by LSN, each
// surviving id is materialized (newest valid snapshot, else the WAL
// create, plus any newer logged observes), and the result is
// checkpointed — a fresh compacted segment replaces the old one and the
// WAL is truncated. Every recovered id starts cold; the hot tier fills
// as requests arrive. An empty cfg.Dir opens a memory-only store, which
// has nothing to recover.
func Open[V any](cfg Config, cb Callbacks[V]) (*Store[V], error) {
	if cfg.HotLimit < 1 {
		return nil, fmt.Errorf("store: Config.HotLimit must be >= 1 (got %d)", cfg.HotLimit)
	}
	if cfg.Dir == "" && cfg.WAL {
		return nil, fmt.Errorf("store: Config.WAL needs a Config.Dir")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	s := &Store[V]{
		cfg:  cfg,
		cb:   cb,
		clk:  cfg.Clock.OrWall(),
		hot:  make(map[string]*hotEntry[V]),
		cold: make(map[string]coldRef),
	}
	if s.memoryOnly() {
		return s, nil
	}
	if cb.Snapshot == nil || cb.Hydrate == nil || cb.Create == nil || cb.Replay == nil {
		return nil, fmt.Errorf("store: Snapshot, Hydrate, Create, and Replay callbacks are required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := s.recoverShard(i)
		if err != nil {
			for _, prev := range s.shards {
				prev.close()
			}
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// event is one frame's decoded record tagged with its LSN.
type event struct {
	lsn uint64
	rec record
}

// idState folds one id's event stream in LSN order.
type idState struct {
	exists     bool
	hasCreate  bool
	createData []byte
	snaps      []snapEv
	observes   []obsEv
}

type snapEv struct {
	seq  uint64
	data []byte
}

type obsEv struct {
	seq  uint64
	data []byte
}

// loadEvents reads both tier-file images for shard i and returns every
// readable frame's record, sorted by LSN, along with the highest LSN
// seen. Damaged frames (torn tails, flipped bits) are skipped per
// scanFrames' salvage rules.
func loadEvents(dir string, i int) (events []event, maxLSN uint64, err error) {
	collect := func(path string, kind byte) error {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				return nil
			}
			return rerr
		}
		_, serr := scanFrames(path, data, kind, func(off int64, lsn uint64, payload []byte) {
			rec, derr := decodeRecord(payload)
			if derr != nil {
				return // frame intact but payload gibberish: skip it
			}
			events = append(events, event{lsn: lsn, rec: rec})
			if lsn > maxLSN {
				maxLSN = lsn
			}
		})
		return serr
	}
	if err := collect(segPath(dir, i), segmentKind); err != nil {
		return nil, 0, err
	}
	if err := collect(walPath(dir, i), walKind); err != nil {
		return nil, 0, err
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].lsn < events[b].lsn })
	return events, maxLSN, nil
}

// foldEvents runs the per-id state machine over an LSN-ordered event
// stream. A remove (or tombstone) resets the id; a later create
// resurrects it. ids preserves first-seen order so recovery output is
// deterministic.
func foldEvents(events []event) (states map[string]*idState, ids []string) {
	states = make(map[string]*idState)
	get := func(id string) *idState {
		st, ok := states[id]
		if !ok {
			st = &idState{}
			states[id] = st
			ids = append(ids, id)
		}
		return st
	}
	for _, ev := range events {
		st := get(ev.rec.id)
		switch ev.rec.kind {
		case recCreate:
			*st = idState{exists: true, hasCreate: true, createData: ev.rec.data}
		case recSnapshot:
			st.exists = true
			st.snaps = append(st.snaps, snapEv{seq: ev.rec.seq, data: ev.rec.data})
		case recObserve:
			st.observes = append(st.observes, obsEv{seq: ev.rec.seq, data: ev.rec.data})
		case recTombstone, recRemove:
			*st = idState{}
		}
	}
	return states, ids
}

// materialize rebuilds one id's value from its folded state: the newest
// snapshot that hydrates cleanly is the base (older ones are the
// fallback when a spill was silently corrupted), a surviving WAL create
// is the base of last resort, and observes logged at or beyond the
// base's sequence are replayed on top in log order. Returns ok=false
// when nothing usable survived.
func (s *Store[V]) materialize(id string, st *idState) (v V, ok bool) {
	var zero V
	if !st.exists {
		return zero, false
	}
	baseSeq := uint64(0)
	haveBase := false
	for i := len(st.snaps) - 1; i >= 0; i-- {
		hv, err := s.cb.Hydrate(id, st.snaps[i].data)
		if err != nil {
			continue
		}
		v, baseSeq, haveBase = hv, st.snaps[i].seq, true
		break
	}
	if !haveBase {
		if !st.hasCreate {
			return zero, false
		}
		cv, err := s.cb.Create(id, st.createData)
		if err != nil {
			return zero, false
		}
		v, haveBase = cv, true
	}
	cur := baseSeq
	for _, ob := range st.observes {
		if ob.seq < cur {
			continue // already folded into the snapshot
		}
		if ob.seq > cur {
			break // a gap: an observe frame was lost; keep the provable prefix
		}
		n, err := s.cb.Replay(id, v, ob.data)
		if err != nil {
			break // prefix-consistent: keep what replayed cleanly
		}
		cur += uint64(n)
		s.walReplayed.Add(int64(n))
	}
	return v, true
}

// recoverShard runs the full ladder for shard i and checkpoints the
// result: survivors are written to a fresh segment (fsync'd, renamed
// over the old file), the WAL is truncated, and the returned shard's LSN
// counter resumes past everything it absorbed.
func (s *Store[V]) recoverShard(i int) (*shard, error) {
	events, maxLSN, err := loadEvents(s.cfg.Dir, i)
	if err != nil {
		return nil, err
	}
	states, ids := foldEvents(events)

	// Write the compacted segment to a temp file, then rename into place —
	// a crash mid-checkpoint leaves the old segment and WAL untouched.
	tmpPath := segPath(s.cfg.Dir, i) + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return nil, err
	}
	buf := fileHeader(segmentKind)
	lsn := maxLSN
	type placed struct {
		id   string
		off  int64
		flen int
		seq  uint64
	}
	var placedIDs []placed
	for _, id := range ids {
		v, ok := s.materialize(id, states[id])
		if !ok {
			continue
		}
		data, seq, err := s.cb.Snapshot(id, v)
		if err != nil {
			continue
		}
		lsn++
		off := int64(len(buf))
		buf = appendFrame(buf, lsn, encodeRecord(nil, record{kind: recSnapshot, id: id, seq: seq, data: data}))
		placedIDs = append(placedIDs, placed{id: id, off: off, flen: int(int64(len(buf)) - off), seq: seq})
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return nil, err
	}
	if err := os.Rename(tmpPath, segPath(s.cfg.Dir, i)); err != nil {
		os.Remove(tmpPath)
		return nil, err
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return nil, err
	}

	seg, err := openTierFile(segPath(s.cfg.Dir, i), segmentKind)
	if err != nil {
		return nil, err
	}
	sh := &shard{seg: seg, lsn: lsn}
	if s.cfg.WAL {
		wal, err := openTierFile(walPath(s.cfg.Dir, i), walKind)
		if err != nil {
			seg.f.Close()
			return nil, err
		}
		if err := truncateWAL(wal); err != nil {
			wal.f.Close()
			seg.f.Close()
			return nil, err
		}
		sh.wal = wal
	} else if _, err := os.Stat(walPath(s.cfg.Dir, i)); err == nil {
		// The WAL was just absorbed into the checkpoint; a store reopened
		// without one must not replay it again later.
		if err := os.Remove(walPath(s.cfg.Dir, i)); err != nil {
			seg.f.Close()
			return nil, err
		}
	}
	for _, p := range placedIDs {
		s.cold[p.id] = coldRef{shard: i, off: p.off, flen: p.flen, seq: p.seq}
	}
	return sh, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// recoverID is the runtime replay ladder: when a hydrate hits a
// corrupted snapshot frame, the shard's files are re-scanned and the id
// rebuilt exactly as Open would — older snapshot, create entry, logged
// observes. Callers hold the store write lock.
func (s *Store[V]) recoverID(id string, shi int) (V, error) {
	var zero V
	sh := s.shards[shi]
	sh.mu.Lock()
	segSize, walSize := sh.seg.size, int64(0)
	if sh.wal != nil {
		walSize = sh.wal.size
	}
	sh.mu.Unlock()

	var events []event
	collect := func(tf *tierFile, size int64, kind byte) error {
		if tf == nil {
			return nil
		}
		data := make([]byte, size)
		if n, err := tf.f.ReadAt(data, 0); err != nil && !(err == io.EOF && n == len(data)) {
			return err
		}
		_, serr := scanFrames(tf.path, data, kind, func(off int64, lsn uint64, payload []byte) {
			rec, derr := decodeRecord(payload)
			if derr != nil || rec.id != id {
				return
			}
			events = append(events, event{lsn: lsn, rec: rec})
		})
		return serr
	}
	if err := collect(sh.seg, segSize, segmentKind); err != nil {
		return zero, err
	}
	if err := collect(sh.wal, walSize, walKind); err != nil {
		return zero, err
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].lsn < events[b].lsn })
	states, _ := foldEvents(events)
	st, ok := states[id]
	if !ok {
		return zero, fmt.Errorf("store: hydrate %q: no recoverable state", id)
	}
	v, ok := s.materialize(id, st)
	if !ok {
		return zero, fmt.Errorf("store: hydrate %q: no recoverable state", id)
	}
	return v, nil
}
