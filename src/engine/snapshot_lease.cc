#include "src/engine/snapshot_lease.h"

#include <array>

namespace dynhist::engine::internal {
namespace {

struct Slot {
  KeyState* state = nullptr;     // identity: state pointer + engine id
  std::uint64_t engine_id = 0;
  std::uint64_t epoch = 0;       // key epoch the slot was filled at
  std::uint64_t last_used = 0;   // LRU tick
  std::shared_ptr<const VersionedModel> snapshot;
};

struct LeaseCache {
  std::array<Slot, kLeaseSlots> slots;
  std::uint64_t tick = 0;
  std::uint64_t evictions = 0;
};

LeaseCache& Cache() {
  thread_local LeaseCache cache;
  return cache;
}

// Relaxed running max: records the newest epoch any reader leased,
// which drives the per-key lease-staleness gauge. Diagnostic — losing a
// race only under-reports the max by one revalidation.
void NoteLeasedEpoch(KeyState& state, std::uint64_t epoch) {
  std::uint64_t prev = state.last_leased_epoch.load(std::memory_order_relaxed);
  while (prev < epoch &&
         !state.last_leased_epoch.compare_exchange_weak(
             prev, epoch, std::memory_order_relaxed,
             std::memory_order_relaxed)) {
  }
}

// (Re)fills `slot` from the key's published pointer. The epoch is loaded
// with acquire BEFORE the pointer: the publisher swaps the pointer and
// then stores the epoch, so the pointer load returns a snapshot at least
// as new as the observed epoch (possibly newer, in which case the next
// revalidation misses once more and catches the slot up — correctness
// is unaffected, the lease is never ahead of `published`).
LeaseView FillSlot(Slot& slot, KeyState& state, std::uint64_t engine_id,
                   std::uint64_t tick) {
  const std::uint64_t epoch = state.epoch.load(std::memory_order_acquire);
  slot.snapshot = state.published.load(std::memory_order_acquire);
  slot.state = &state;
  slot.engine_id = engine_id;
  slot.epoch = epoch;
  slot.last_used = tick;
  NoteLeasedEpoch(state, epoch);
  return LeaseView{&slot.snapshot, /*hit=*/false};
}

}  // namespace

LeaseView AcquireLease(KeyState& state, std::uint64_t engine_id) {
  LeaseCache& cache = Cache();
  const std::uint64_t tick = ++cache.tick;
  Slot* free_slot = nullptr;
  Slot* lru = nullptr;
  for (Slot& slot : cache.slots) {
    if (slot.state == &state && slot.engine_id == engine_id) {
      // Steady state: one relaxed load decides whether the cached (and
      // previously acquire-synchronized) pointer is still current.
      if (state.epoch.load(std::memory_order_relaxed) == slot.epoch) {
        slot.last_used = tick;
        return LeaseView{&slot.snapshot, /*hit=*/true};
      }
      return FillSlot(slot, state, engine_id, tick);  // epoch moved
    }
    if (slot.state == nullptr) {
      if (free_slot == nullptr) free_slot = &slot;
    } else if (lru == nullptr || slot.last_used < lru->last_used) {
      lru = &slot;
    }
  }
  Slot* slot = free_slot;
  if (slot == nullptr) {
    slot = lru;
    ++cache.evictions;
  }
  return FillSlot(*slot, state, engine_id, tick);
}

void ReleaseThreadLeases() {
  LeaseCache& cache = Cache();
  for (Slot& slot : cache.slots) slot = Slot{};
}

std::uint64_t ThreadLeaseEvictions() { return Cache().evictions; }

}  // namespace dynhist::engine::internal
