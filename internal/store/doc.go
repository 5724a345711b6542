// Package store is the session store behind internal/serve's session
// table: a bounded in-memory hot set over an on-disk cold tier, built so
// one box can hold millions of predictor sessions while only the working
// set pays for RAM. Without a directory it is the hot set alone (see
// Memory-only mode).
//
// # Tiers
//
// The hot tier is a map plus a clock ring. Every resident session owns one
// ring slot with a reference bit; Get sets the bit. Slots emptied by
// Remove, Spill, or a failed Put go on a free list that placement drains
// first, so a hot set below its bound never evicts. When Put finds the
// tier full the clock hand sweeps the ring giving each referenced entry a
// second chance (clearing its bit) until it finds an unreferenced victim,
// which is spilled: the value is sealed through the caller's Seal
// callback (so a mutation racing the eviction either completes before
// the snapshot and lands inside it, or sees the seal and re-resolves
// through Get), its snapshot is appended to the segment tier, and the
// in-memory value released. The next Get for a spilled id rehydrates it
// transparently from disk (latency lands in the hydrate histogram the
// caller provides).
//
// The cold tier is one append-only segment file per shard (ids are
// fnv32a-sharded). Each spill appends a full snapshot frame; a Remove
// appends a tombstone. Later frames supersede earlier ones for the same
// id, so the file needs no in-place mutation; Open compacts it.
//
// The write-ahead log is one append-only file per shard holding the
// store's durability root: session-create entries and every acknowledged
// observe batch. LogObserve appends and fsyncs before the caller
// acknowledges the batch, so an acked label is on disk even if nothing
// else is.
//
// # On-disk format
//
// Both files share one frame layout behind an 8-byte header:
//
//	"homgob" | kind byte ('S' segment, 'W' wal) | version byte (1)
//	frame := len uint32 LE | lsn uint64 LE | crc uint32 LE | payload
//
// crc is CRC-32C (Castagnoli) over the len, lsn, and payload bytes, so a
// torn or bit-flipped frame — and everything after it, since frame
// boundaries are lost — is rejected rather than misread. Payloads are
// hand-rolled (encoding.go): a kind byte (snapshot, tombstone, create,
// observe, remove) followed by uvarint-framed fields; float64s travel as
// their IEEE-754 bits, which is what makes recovery bit-identical.
//
// Segment and WAL appends for one shard share one monotonically
// increasing LSN counter, giving recovery a total order per shard without
// cross-file coordination.
//
// # Durability contract and the replay ladder
//
// Only LogObserve and Persist fsync on the hot path; spills do not (the
// WAL can rebuild anything the segment tier loses). Open replays both
// files per shard, merging events per id by LSN:
//
//  1. a remove/tombstone entry with the highest LSN wins: the id is gone;
//  2. otherwise the newest CRC-valid snapshot frame is the base (a corrupt
//     snapshot falls back to the next older one);
//  3. with no usable snapshot, the WAL create entry rebuilds a fresh value;
//  4. WAL observe entries with sequence beyond the base are replayed onto
//     it in order.
//
// After recovery Open checkpoints: every recovered id is written to a
// fresh compacted segment, the result fsynced and renamed over the old
// file, and the WAL truncated. Close does the same for hot residents, so
// a clean shutdown restarts with an empty WAL.
//
// # Concurrency
//
// Store.mu guards the hot map and clock ring; each shard has its own
// file mutex. Lock order is store.mu -> (caller's session lock) ->
// shard.mu: LogObserve takes only shard.mu, so serve can call it while
// holding its per-session lock without ordering violations.
//
// Spill follows seal-before-snapshot: Seal must take the value's own
// lock and mark it stale before Snapshot runs, so no mutation can land
// between the snapshot being captured and the cold index pointing at it.
// Put places the entry in the hot tier before logging the WAL create and
// rolls the placement back if the append fails, so no failure path
// leaves a durable create for an id that was never stored. After a
// simulated crash poisons the store, every append path re-checks the
// poison flag under shard.mu before writing, so a writer that was
// already blocked on the file lock cannot fsync frames past the crash
// point.
//
// # Memory-only mode
//
// Open with an empty Config.Dir returns a memory-only store: the hot tier
// alone, with no files, no recovery, and no cold tier. Put, Remove,
// Persist, LogObserve, and Close do no I/O, and a WAL cannot be enabled.
// A spill — TTL-idle or clock-hand — seals the value, drops it, and calls
// OnSpill; a later Get of the id finds nothing. The ring grows by append
// rather than being sized to HotLimit up front, so a caller can bound the
// whole population with a large HotLimit (internal/serve passes
// MaxSessions) and pay only for the sessions it holds. Below that bound,
// the free list guarantees no live value is ever dropped to make room.
//
// # Crash simulation
//
// The injector points fault.WALTear, fault.SpillCorrupt, and
// fault.CrashBeforeFsync drive the chaos suite. Each shard file tracks
// crashLen — the bytes that would survive a kill at this instant: Sync
// advances it to the full length, a torn append advances it over the torn
// prefix, and an append after CrashBeforeFsync fires leaves it behind the
// tail. CrashForTest truncates every file to its crashLen and poisons the
// store with ErrInjectedCrash, after which a fresh Open must recover.
package store
