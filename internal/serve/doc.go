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
//   - Classify and observe work flows through one bounded queue drained by
//     a worker pool. A full queue answers 429 with Retry-After — explicit
//     backpressure instead of unbounded goroutine pileup.
//   - Workers micro-batch: each wakeup drains up to MicroBatch queued
//     tasks and runs same-session tasks under a single lock acquisition.
//   - Shutdown is graceful: the listener stops accepting, in-flight
//     handlers drain through the queue, then workers exit.
//   - GET /metrics exposes Prometheus-format counters, latency histograms,
//     queue depth, live sessions, and per-concept prediction counts.
//
// # Lock order
//
// The serving stack holds three locks of its own — Server.qmu (queue
// close guard), sessionTable.mu (create serialization), and Session.mu
// (predictor serialization) — and reaches two of internal/store's:
// store.mu (the session store's read-write lock) and shard.mu (tier-file
// appends). Below them sit the locks inside internal/obs (Registry.mu,
// per-family series locks, Histogram.mu). The derived acquisition order,
// verified by homlint's lockorder analyzer over the whole-module call
// graph, is:
//
//	sessionTable.mu → store.mu → Session.mu → shard.mu  →  obs locks
//	Server.qmu  →  obs locks
//
// Concretely:
//
//   - sessionTable.mu only serializes creates: the TTL sweep, the limit
//     check, and the store Put run under it, in that order.
//   - Lookups and listings take store.mu — the read side for a hot hit —
//     and release it before touching any Session.mu. A spill holds the
//     write side and calls Seal under it, which takes Session.mu to mark
//     the session stale; a tiered store then appends the snapshot under
//     shard.mu. Handlers resolve a session, release, then enqueue;
//     workers take Session.mu only after the dequeue and append to the
//     WAL (shard.mu) while holding it. TTL accounting (lastUsed) is
//     atomic, so finding expired sessions never needs a session's lock.
//   - obs locks are acquired after serve and store locks, never before:
//     OnSpill and onRemove drop per-session metric series (family lock),
//     and workers record counters and histograms while holding
//     Session.mu.
//   - obs never calls back into serve while holding one of its own locks:
//     Registry.WriteText snapshots the family list under Registry.mu and
//     releases it before rendering, so func-backed gauges (queue depth,
//     live sessions, per-session active probabilities) may take store.mu
//     and Session.mu without inverting the order.
//
// Any new code must follow the same direction: nothing may acquire a
// serve or store lock while holding an obs lock, and nothing may acquire
// a lock while holding one that comes later in the order above. CI
// enforces this — a conflicting-order path is a lockorder finding.
package serve
