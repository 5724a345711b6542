package serve

import (
	"errors"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"highorder/internal/clock"
	"highorder/internal/core"
	"highorder/internal/data"
)

// tierWire builds n deterministic labeled records in the HTTP wire form
// (attribute value indexes over the testModel schema, alternating class).
func tierWire(n int) (records [][]float64, classes []int) {
	for i := 0; i < n; i++ {
		records = append(records, []float64{float64(i % 3), float64((i + 1) % 3), float64((i + 2) % 3)})
		classes = append(classes, i%2)
	}
	return records, classes
}

// twinState replays the same wire records into a fresh predictor and
// returns its state — the uninterrupted twin a tiered session must match
// bit for bit after any number of spill/hydrate/recovery crossings.
func twinState(t *testing.T, m *core.Model, records [][]float64, classes []int) core.PredictorState {
	t.Helper()
	recs, err := decodeRecords(m.Schema, records, classes)
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	for _, r := range recs {
		p.Observe(r)
	}
	return p.Snapshot()
}

func requireBitIdentical(t *testing.T, got, want core.PredictorState) {
	t.Helper()
	if got.Observed != want.Observed {
		t.Fatalf("Observed = %d, want %d", got.Observed, want.Observed)
	}
	if len(got.Active) != len(want.Active) {
		t.Fatalf("len(Active) = %d, want %d", len(got.Active), len(want.Active))
	}
	for i := range got.Active {
		if math.Float64bits(got.Active[i]) != math.Float64bits(want.Active[i]) {
			t.Fatalf("Active[%d] = %x, want %x (not bit-identical)",
				i, math.Float64bits(got.Active[i]), math.Float64bits(want.Active[i]))
		}
	}
}

// TestEvictedSessionRehydrates is the TTL regression: a session observed,
// demoted by the idle sweep, and then revisited must classify from
// exactly the state it had — bit-identical to a twin that was never
// evicted. Before tiering, TTL eviction destroyed the predictor and a
// revisit got a 404.
func TestEvictedSessionRehydrates(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	s, err := NewTiered(testModel(), Options{
		Tier:       TierOptions{SpillDir: t.TempDir(), HotSessions: 4, WAL: true},
		SessionTTL: time.Minute,
		Clock:      fake.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	records, classes := tierWire(12)
	if _, err := c.Observe(created.ID, records, classes); err != nil {
		t.Fatal(err)
	}

	// Idle past the TTL; the sweep demotes to disk instead of destroying.
	fake.Advance(2 * time.Minute)
	if n := s.table.sweep(); n != 1 {
		t.Fatalf("sweep demoted %d sessions, want 1", n)
	}
	st := s.store.Stats()
	if st.Hot != 0 || st.Cold != 1 || st.Spills < 1 {
		t.Fatalf("after sweep: stats = %+v, want the session cold", st)
	}

	// Revisit: the session must answer, from bit-identical state.
	if _, err := c.Classify(created.ID, records[:1], false); err != nil {
		t.Fatalf("classify after TTL demotion: %v", err)
	}
	sess, ok := s.table.get(created.ID)
	if !ok {
		t.Fatal("session lost after demotion")
	}
	requireBitIdentical(t, sess.State(), twinState(t, s.model, records, classes))
	if s.store.Stats().Hydrates < 1 {
		t.Fatal("revisit did not count a hydration")
	}

	// The whole cycle is visible on /metrics, including hydrate latency.
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hom_sessions_hot 1", "hom_sessions_cold 0",
		"hom_spill_total 1", "hom_hydrate_total 1",
		"hom_session_hydrate_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}

	// Idle past the TTL again and classify before any sweep: the lookup
	// finds the session expired, spills it, and rehydrates it, so the
	// answer still comes from the state the twin holds.
	fake.Advance(2 * time.Minute)
	before := s.store.Stats()
	got, err := c.Classify(created.ID, records[:4], false)
	if err != nil {
		t.Fatalf("classify of an expired, unswept session: %v", err)
	}
	if st := s.store.Stats(); st.Spills != before.Spills+1 || st.Hydrates != before.Hydrates+1 {
		t.Fatalf("stats %+v after %+v: want one more spill and one more hydration", st, before)
	}
	recs, err := decodeRecords(s.model.Schema, records[:4], nil)
	if err != nil {
		t.Fatal(err)
	}
	twin := s.model.NewPredictor()
	if err := twin.Restore(twinState(t, s.model, records, classes)); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if want := twin.Predict(r); got.Predictions[i] != want {
			t.Fatalf("prediction %d = %d, twin predicts %d", i, got.Predictions[i], want)
		}
	}
	if concept, _ := twin.CurrentConcept(); got.MAPConcept != concept {
		t.Fatalf("MAP concept = %d, twin's is %d", got.MAPConcept, concept)
	}
	sess, ok = s.table.get(created.ID)
	if !ok {
		t.Fatal("session lost after the lookup-time spill")
	}
	requireBitIdentical(t, sess.State(), twinState(t, s.model, records, classes))
}

// TestServeCrashRecoveryWAL crashes a serving process (simulated kill -9
// preserving only fsync'd bytes) after several acknowledged observe
// batches, restarts over the same spill directory, and requires every
// acknowledged label back — bit-identical to the uninterrupted twin, with
// the replay visible in hom_wal_replayed_records_total.
func TestServeCrashRecoveryWAL(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Tier: TierOptions{SpillDir: dir, HotSessions: 4, WAL: true, Shards: 2}}
	s, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	records, classes := tierWire(15)
	for i := 0; i < len(records); i += 5 {
		if _, err := c.Observe(created.ID, records[i:i+5], classes[i:i+5]); err != nil {
			t.Fatal(err)
		}
	}
	// Kill: only fsync'd bytes survive. The session never spilled, so the
	// WAL (create + three acked batches) is all the disk knows.
	if err := s.store.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	s2, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	s2.Start()
	defer s2.Close()
	sess, ok := s2.table.get(created.ID)
	if !ok {
		t.Fatal("acknowledged session lost across the crash")
	}
	requireBitIdentical(t, sess.State(), twinState(t, s2.model, records, classes))
	if got := s2.store.Stats().WALReplayed; got != int64(len(records)) {
		t.Fatalf("WALReplayed = %d, want %d", got, len(records))
	}

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	text, err := NewClient(ts2.URL, nil).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "hom_wal_replayed_records_total 15") {
		t.Fatal("metrics exposition missing the WAL replay count")
	}
}

// TestAdminSnapshotConsultsColdTier spills a session out of the hot set,
// then migrates it away via snapshot?remove=true: the snapshot must carry
// the cold session's full state, and the removal must reach the cold tier
// durably — after a crash the migrated-away id must not resurrect.
func TestAdminSnapshotConsultsColdTier(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Tier: TierOptions{SpillDir: dir, HotSessions: 1, WAL: true}}
	s, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	records, classes := tierWire(9)
	if _, err := c.Observe(created.ID, records, classes); err != nil {
		t.Fatal(err)
	}
	// A second session evicts the first from the single hot slot.
	if _, err := c.CreateSession(CreateSessionRequest{}); err != nil {
		t.Fatal(err)
	}
	if st := s.store.Stats(); st.Spills < 1 {
		t.Fatalf("stats = %+v, want the first session spilled", st)
	}

	snap, err := c.Snapshot(created.ID, true)
	if err != nil {
		t.Fatalf("snapshot of a cold session: %v", err)
	}
	requireBitIdentical(t, snap.State, twinState(t, s.model, records, classes))

	// The removal must be crash-durable: restart and make sure the
	// migrated-away session stays gone.
	if err := s.store.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()
	s2, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.table.get(created.ID); ok {
		t.Fatal("migrated-away session resurrected after crash")
	}
}

// TestAdminRestorePersists restores a migration snapshot and then
// crashes: the restored state was persisted before the 200, so the
// session must survive with its full state even though it never saw an
// observe on the receiving replica.
func TestAdminRestorePersists(t *testing.T) {
	m := testModel()
	records, classes := tierWire(10)
	recs, err := decodeRecords(m.Schema, records, classes)
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	for _, r := range recs {
		p.Observe(r)
	}
	snap := SessionSnapshot{ID: "mig-1", State: p.Snapshot()}

	dir := t.TempDir()
	opts := Options{Tier: TierOptions{SpillDir: dir, HotSessions: 4, WAL: true}}
	s, err := NewTiered(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	if err := NewClient(ts.URL, nil).RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.store.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	s2, err := NewTiered(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sess, ok := s2.table.get("mig-1")
	if !ok {
		t.Fatal("restored session lost across the crash")
	}
	requireBitIdentical(t, sess.State(), snap.State)
}

// TestTieredSequentialIDsSkipRecovered restarts over a populated spill
// directory and checks fresh sequential ids do not collide with recovered
// ones.
func TestTieredSequentialIDsSkipRecovered(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Tier: TierOptions{SpillDir: dir, HotSessions: 4, WAL: true}}
	s, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.table.create(core.PredictorOptions{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := NewTiered(testModel(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sess, err := s2.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() != "s4" {
		t.Fatalf("fresh id = %q, want s4 (s1..s3 recovered from disk)", sess.ID())
	}
	if s2.table.live() != 4 {
		t.Fatalf("live = %d, want 4", s2.table.live())
	}
}

// TestWALFailureQuarantinesSession pins the non-crash WAL failure
// contract: when an applied observe batch cannot be durably logged
// because the WAL itself fails (full disk — not an injected crash that
// poisons the store), the refusal must NOT invite a retry, because the
// batch is already live in the predictor and a retry would double-apply
// it. The session is quarantined: answered 500 without Retry-After,
// removed from both tiers, and counted in hom_session_quarantined_total.
func TestWALFailureQuarantinesSession(t *testing.T) {
	s, err := NewTiered(testModel(), Options{
		Tier: TierOptions{SpillDir: t.TempDir(), HotSessions: 4, WAL: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	created, err := c.CreateSession(CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	records, classes := tierWire(6)
	if _, err := c.Observe(created.ID, records[:3], classes[:3]); err != nil {
		t.Fatal(err)
	}

	s.store.FailWALForTest(errors.New("write wal-00.hom: no space left on device"))
	_, err = c.Observe(created.ID, records[3:], classes[3:])
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("observe with a failing WAL: err = %v, want *HTTPError", err)
	}
	if he.Status != http.StatusInternalServerError {
		t.Fatalf("observe with a failing WAL: status %d, want 500 (non-retryable)", he.Status)
	}
	if he.Retryable() {
		t.Fatal("WAL-failure refusal reported retryable; a retry would double-apply the batch")
	}

	// The diverged session is gone — from memory and, durably, from disk —
	// so the client recreates rather than retrying into divergence.
	_, err = c.Classify(created.ID, records[:1], false)
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("classify after quarantine: err = %v, want 404", err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "hom_session_quarantined_total 1") {
		t.Fatalf("metrics exposition missing the quarantine count:\n%s", text)
	}

	// The WAL recovering (or the disk being replaced) must not resurrect
	// the diverged state: a fresh session under the same id starts clean.
	s.store.FailWALForTest(nil)
	if _, err := c.CreateSession(CreateSessionRequest{ID: created.ID}); err != nil {
		t.Fatalf("recreate after quarantine: %v", err)
	}
	info, err := c.Info(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Observed != 0 {
		t.Fatalf("recreated session carries %d observed records, want 0", info.Observed)
	}
}

func TestAppliedRecords(t *testing.T) {
	recs := []data.Record{{Class: 0}, {Class: 1}, {Class: 2}, {Class: 3}}
	got := appliedRecords(recs, []int{1, 3})
	want := []data.Record{{Class: 0}, {Class: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appliedRecords = %v, want %v", got, want)
	}
	if &appliedRecords(recs, nil)[0] != &recs[0] {
		t.Fatal("no-drop case should return the input slice unchanged")
	}
}

// TestSpilledWhileWaitingRehydrates: a session spilled while its observe
// waits for a slot must not absorb the batch in the stale value. The task
// re-resolves it through the table, so the batch lands in the rehydrated
// copy and the served state stays bit-identical to the twin.
func TestSpilledWhileWaitingRehydrates(t *testing.T) {
	s, err := NewTiered(testModel(), Options{
		Workers: 1,
		Tier:    TierOptions{SpillDir: t.TempDir(), HotSessions: 4, WAL: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	records, classes := tierWire(6)
	recs, err := decodeRecords(s.model.Schema, records, classes)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.table.create(core.PredictorOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.submit(&task{kind: taskObserve, sess: sess, recs: recs[:3]}); err != nil {
		t.Fatal(err)
	}

	release := holdSlots(s)
	type outcome struct {
		res  taskResult
		code int
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		res, code, err := s.submit(&task{kind: taskObserve, sess: sess, recs: recs[3:]})
		done <- outcome{res, code, err}
	}()
	awaitWaiting(t, s, 1)
	if !s.table.spill(sess.ID()) {
		t.Fatal("spill of the waiting task's session refused")
	}
	if st := s.store.Stats(); st.Hot != 0 || st.Cold != 1 {
		t.Fatalf("after spill: stats = %+v, want the session cold", st)
	}
	release()

	out := <-done
	if out.err != nil || out.code != http.StatusOK {
		t.Fatalf("observe after spill: code=%d err=%v, want 200", out.code, out.err)
	}
	if out.res.observe.Observed != len(recs) {
		t.Fatalf("observed = %d, want %d", out.res.observe.Observed, len(recs))
	}
	fresh, ok := s.table.get(sess.ID())
	if !ok {
		t.Fatal("session lost after the spill")
	}
	if fresh == sess {
		t.Fatal("the spilled value is still the live session")
	}
	requireBitIdentical(t, fresh.State(), twinState(t, s.model, records, classes))
	if s.store.Stats().Hydrates < 1 {
		t.Fatal("the task did not rehydrate its session")
	}
}

// TestTierSettingsNeedSpillDir: a WAL, hot-set bound or shard count
// without a spill directory is refused at boot instead of silently
// serving from a memory-only store.
func TestTierSettingsNeedSpillDir(t *testing.T) {
	cases := []struct {
		name string
		tier TierOptions
		ok   bool
	}{
		{"wal", TierOptions{WAL: true}, false},
		{"hot sessions", TierOptions{HotSessions: 8}, false},
		{"shards", TierOptions{Shards: 2}, false},
		{"memory-only", TierOptions{}, true},
		{"spill dir and wal", TierOptions{SpillDir: t.TempDir(), WAL: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewTiered(testModel(), Options{Tier: tc.tier})
			if !tc.ok {
				if err == nil {
					s.Close()
					t.Fatalf("NewTiered(%+v) opened, want a refusal", tc.tier)
				}
				if !strings.Contains(err.Error(), "SpillDir") {
					t.Fatalf("refusal %q does not name SpillDir", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewTiered(%+v): %v", tc.tier, err)
			}
			s.Close()
		})
	}
}

// TestColdSessionDiskBound pins the bytes a checkpointed store keeps per
// session: 5,000 sessions of three labelled records each, through a hot
// set of 16 with the WAL on, take at most 256 B per session on disk once
// Close has compacted the segments and truncated the WAL.
func TestColdSessionDiskBound(t *testing.T) {
	const sessions, perSessionBytes = 5000, 256
	dir := t.TempDir()
	s, err := NewTiered(testModel(), Options{
		MaxSessions: sessions,
		Tier:        TierOptions{SpillDir: dir, HotSessions: 16, WAL: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	records, classes := tierWire(3)
	recs, err := decodeRecords(s.model.Schema, records, classes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		sess, err := s.table.create(core.PredictorOptions{}, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.submit(&task{kind: taskObserve, sess: sess, recs: recs}); err != nil {
			t.Fatal(err)
		}
	}
	if live := s.table.live(); live != sessions {
		t.Fatalf("live = %d, want %d", live, sessions)
	}
	s.Close()

	var total int64
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := total / sessions; per > perSessionBytes {
		t.Fatalf("spill directory holds %d B for %d sessions: %d B per session, bound %d", total, sessions, per, perSessionBytes)
	}
	t.Logf("%d B on disk for %d sessions (%d B per session)", total, sessions, total/sessions)
}
