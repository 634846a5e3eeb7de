// KeyHandle: a resolved, registry-lookup-free name for one engine key.
//
// HistogramEngine::Resolve(key) performs the shared-mutex registry find
// exactly once and hands back a KeyHandle — a stable pointer to the key's
// internal state (KeyStates live behind unique_ptrs in a registry that
// never erases, so the pointer is valid for the engine's lifetime). Every
// query entry point has a handle overload; a steady-state read through a
// handle costs one relaxed epoch load plus the arena lookup — no
// registry lock, no shared_ptr refcount traffic (see snapshot_lease.h).
//
// This is the object a long-lived reader holds: an optimizer session, a
// bench reader loop, or — in the distributed tier — a socket server's
// per-connection state. Transient callers can keep using the string-keyed
// API, which performs the find per call and deliberately does NOT touch
// the thread-local lease cache (ephemeral lookups must not evict the
// slots that long-lived handle readers depend on).
//
// A KeyHandle is engine-bound: using a handle after its engine is
// destroyed, or against a different engine, is undefined (debug-checked
// where cheap). Handles are freely copyable and shareable across threads
// — the per-thread lease state lives in thread-local storage, not in the
// handle.

#ifndef DYNHIST_ENGINE_KEY_HANDLE_H_
#define DYNHIST_ENGINE_KEY_HANDLE_H_

#include <cstdint>

#include "src/engine/key_state.h"

namespace dynhist::engine {

class HistogramEngine;

/// One range-estimate request; EstimateRangeBatch amortizes lease
/// revalidation and counter traffic across a span of these.
struct RangeQuery {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

class KeyHandle {
 public:
  /// An empty handle; valid() is false and queries through it are
  /// programming errors (DH_CHECKed on the engine side).
  KeyHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// The key's published snapshot epoch right now (0 = never published;
  /// relaxed). The epoch is stored only after its snapshot is swapped
  /// in, so a LeasedSnapshot taken after this call on the same thread
  /// has at least this epoch.
  std::uint64_t epoch() const {
    return state_ == nullptr
               ? 0
               : state_->epoch.load(std::memory_order_relaxed);
  }

  friend bool operator==(const KeyHandle& a, const KeyHandle& b) {
    return a.state_ == b.state_;
  }

 private:
  friend class HistogramEngine;
  explicit KeyHandle(internal::KeyState* state) : state_(state) {}

  internal::KeyState* state_ = nullptr;
};

}  // namespace dynhist::engine

#endif  // DYNHIST_ENGINE_KEY_HANDLE_H_
