// Thread-local snapshot lease cache: the epoch-pinned reader fast path.
//
// The engine publishes snapshots by swapping an atomic<shared_ptr>. A
// reader that acquires that shared_ptr on every query pays two refcount
// RMWs on a cache line shared by every other reader of the key (plus, on
// libstdc++, the atomic<shared_ptr> lock-pool spinlock) — which is why
// the PR 7 engine front door served ~14M queries/s against the arena's
// ~67M/s. The lease cache moves that cost off the per-query path: each
// thread keeps a small slot array mapping KeyState* -> {epoch,
// shared_ptr<const VersionedModel>}; a query revalidates its slot with
// ONE RELAXED LOAD of the key's epoch and reuses the cached pointer on a
// hit, re-acquiring the shared_ptr only when the epoch moved. The
// refcount is touched once per publication per reader thread instead of
// once per query.
//
// Memory-ordering contract (publisher side in histogram_engine.cc; the
// key's publications serialize on publish_mu, so the publisher is the
// epoch's only writer):
//
//   publisher:  published.store(snapshot of epoch e, release);
//               epoch.store(e, release);              // AFTER the swap
//   reader hit: epoch.load(relaxed) == cached         // reuse cached ptr
//   reader miss: e = epoch.load(acquire);             // pairs with store
//                ptr = published.load(acquire);       // epoch >= e
//
// Because the epoch store follows the pointer swap, an acquire load that
// observes epoch e synchronizes-with the store and therefore sees (at
// least) epoch e's pointer in `published` — a lease can be at most one
// revalidation behind the newest publish (the swap may have landed while
// the epoch hasn't), and never ahead. Nor is it ever behind an epoch the
// same thread read earlier (KeyHandle::epoch() included): loads of one
// atomic never go back, so the next revalidation sees that epoch or a
// newer one. Per thread, leased snapshots are epoch-monotone: a hit
// reuses the pointer unchanged, and a miss re-acquires a pointer at
// least as new as the one it replaces. The relaxed hit-path load is
// sound because the cached pointer was fully acquired when the slot last
// missed; the load only decides whether that already-synchronized value
// is still current.
//
// Capacity: kLeaseSlots slots per thread, evicted LRU by a thread-local
// use tick, so a many-key workload cannot grow a thread's cache without
// bound — the 17th hot key simply evicts the coldest slot (costing that
// key one re-acquire on its next query). Slots hold shared_ptrs: a
// thread's cached epochs stay alive until evicted, replaced, or the
// thread exits, which bounds retained memory at kLeaseSlots snapshots
// per thread.
//
// Everything here is thread-local except the two atomics it reads from
// KeyState, so the cache itself needs no synchronization and is
// ThreadSanitizer-clean by construction.

#ifndef DYNHIST_ENGINE_SNAPSHOT_LEASE_H_
#define DYNHIST_ENGINE_SNAPSHOT_LEASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/engine/key_state.h"

namespace dynhist::engine::internal {

/// Slots per thread in the lease cache. 16 covers the hot key set of a
/// reader thread (an optimizer session touches a handful of attributes);
/// beyond it the LRU eviction turns the surplus keys' queries into
/// re-acquires, never into unbounded growth.
inline constexpr std::size_t kLeaseSlots = 16;

/// The result of one lease revalidation. `snapshot` points INTO the
/// calling thread's cache slot: it is stable only until that thread's
/// next AcquireLease (which may evict or refresh the slot), so use it
/// immediately or copy the shared_ptr out (the copy is the once-per-
/// handoff refcount op the steady state avoids).
struct LeaseView {
  const std::shared_ptr<const VersionedModel>* snapshot = nullptr;
  bool hit = false;  ///< true: cached pointer reused, no refcount op

  /// The leased model, or nullptr when the key has never published.
  const VersionedModel* model() const { return snapshot->get(); }
};

/// Revalidates (or populates) the calling thread's lease on `state` and
/// returns the leased snapshot. `engine_id` disambiguates KeyState
/// addresses across engine instances: a slot only matches when both the
/// state pointer and the owning engine's id agree, so a KeyState address
/// reused by a later engine can never resurrect a stale lease.
LeaseView AcquireLease(KeyState& state, std::uint64_t engine_id);

/// Drops every lease the calling thread holds (all engines). Test
/// seam — deterministic eviction tests reset between scenarios — and an
/// explicit release valve for readers that want to return their pinned
/// epochs before going idle.
void ReleaseThreadLeases();

/// Slots the calling thread has evicted so far (LRU replacements, not
/// epoch refreshes). Diagnostic, for the eviction tests.
std::uint64_t ThreadLeaseEvictions();

}  // namespace dynhist::engine::internal

#endif  // DYNHIST_ENGINE_SNAPSHOT_LEASE_H_
