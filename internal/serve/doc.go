// Package serve turns a trained high-order model into a concurrent online
// prediction service. The paper's split — expensive offline mining, cheap
// online probability-weighted lookups (§III) — is exactly the shape of a
// model server: one immutable core.Model shared read-only by every client,
// and one small piece of mutable per-client state (the active-probability
// vector) held in a session.
//
// Architecture:
//
//   - Each client stream owns a Session wrapping one predictor compiled
//     from the model (internal/compiled); a per-session mutex serializes
//     predictor access (the predictor is single-goroutine by contract).
//     A model the compiler rejects is refused at boot.
//   - Sessions live in a store.Store: memory-only and bounded by
//     MaxSessions by default, or tiered to disk with a spill directory.
//     One TTL rule, driven by the injectable clock, spills idle sessions;
//     the store decides whether a spill demotes or discards.
//   - A fresh hot session holds at most 1 KiB of heap on a two-concept
//     model, in a memory-only or a tiered store (TestHotSessionHeapBound
//     enforces it). Only a create the limit would refuse sweeps for
//     expired sessions; below the limit the janitor owns expiry, so a
//     create does not walk the hot set.
//   - A cold session costs at most 256 bytes on disk once the store is
//     checkpointed: Close compacts the segments and truncates the WAL
//     (TestColdSessionDiskBound, 5,000 sessions through a hot set of 16
//     with the WAL on).
//   - Each classify and observe runs on its own HTTP handler goroutine, as
//     the paper's test-then-train stream never has two requests of one
//     session in flight. Workers execution slots bound how many run at
//     once; at most QueueDepth more wait for a slot, and one more answers
//     429 with Retry-After — explicit backpressure instead of unbounded
//     goroutine pileup. A request's whole life (slot wait, session lock,
//     kernel, WAL append) is one function, runTask.
//   - Shutdown is graceful: the listener stops accepting, Close answers
//     new work 503 and waits for every admitted request, then the store
//     checkpoints.
//   - GET /metrics exposes Prometheus-format counters, latency histograms,
//     the number of requests waiting for a slot, live sessions, and
//     per-concept prediction counts.
//
// # Lock order
//
// The serving stack holds three locks of its own — Server.qmu (the
// admission guard Close takes to refuse new work), sessionTable.mu
// (create serialization), and Session.mu (predictor serialization) — and
// reaches two of internal/store's: store.mu (the session store's
// read-write lock) and shard.mu (tier-file appends). Below them sit the
// locks inside internal/obs (Registry.mu, per-family series locks,
// Histogram.mu). The derived acquisition order,
// verified by homlint's lockorder analyzer over the whole-module call
// graph, is:
//
//	sessionTable.mu → store.mu → Session.mu → shard.mu  →  obs locks
//
// Server.qmu is a leaf: a request holds its read side only to check the
// guard and join the in-flight group, and acquires nothing under it.
//
// Concretely:
//
//   - sessionTable.mu only serializes creates: the limit check, the TTL
//     sweep a create at the limit runs, and the store Put run under it,
//     in that order.
//   - Lookups and listings take store.mu — the read side for a hot hit —
//     and release it before touching any Session.mu. A spill holds the
//     write side and calls Seal under it, which takes Session.mu to mark
//     the session stale; a tiered store then appends the snapshot under
//     shard.mu. A handler resolves a session and releases store.mu,
//     takes an execution slot, then takes Session.mu and appends to the
//     WAL (shard.mu) while holding it. TTL accounting (lastUsed) is
//     atomic, so finding expired sessions never needs a session's lock.
//   - obs locks are acquired after serve and store locks, never before:
//     OnSpill and onRemove drop per-session metric series (family lock),
//     and handlers record counters and histograms while holding
//     Session.mu.
//   - obs never calls back into serve while holding one of its own locks:
//     Registry.WriteText snapshots the family list under Registry.mu and
//     releases it before rendering, so func-backed gauges (waiting
//     requests, live sessions, per-session active probabilities) may
//     take store.mu and Session.mu without inverting the order.
//
// Any new code must follow the same direction: nothing may acquire a
// serve or store lock while holding an obs lock, and nothing may acquire
// a lock while holding one that comes later in the order above. CI
// enforces this — a conflicting-order path is a lockorder finding.
package serve
