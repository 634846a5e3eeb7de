// Tests for the epoch-pinned reader fast path: KeyHandle resolution, the
// thread-local snapshot lease cache (hit/miss accounting, revalidation on
// publish, LRU eviction), the batch query API, and the unified
// unknown/no-snapshot fallback.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/histogram_engine.h"
#include "src/engine/snapshot_lease.h"

namespace dynhist::engine {
namespace {

constexpr std::int64_t kDomain = 1'001;
constexpr char kKey[] = "t.a";

EngineOptions TestOptions() {
  EngineOptions options;
  options.shards = 4;
  options.batch_size = 16;
  options.snapshot_every = 0;  // publish manually for determinism
  return options;
}

TEST(EngineHandleTest, ResolveReturnsStableValidHandle) {
  HistogramEngine engine(TestOptions());
  const KeyHandle none;
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(none.key(), "");

  const KeyHandle h = engine.Resolve(kKey);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.key(), kKey);
  EXPECT_EQ(h.epoch(), 0u);
  // Resolving the same key again yields the same underlying state.
  EXPECT_EQ(engine.Resolve(kKey), h);
  // Resolve creates: the key now exists with zero traffic.
  EXPECT_EQ(engine.Stats(kKey).keys, 1u);
}

// The acceptance probe for "zero shared_ptr ops in steady state": lease
// misses track publications observed, not queries. Single-threaded, so
// the counts are exact.
TEST(EngineHandleTest, LeaseMissesCountPublishesObservedNotQueries) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  for (int i = 0; i < 1'000; ++i) engine.Insert(kKey, i % kDomain);
  engine.RefreshSnapshot(kKey);  // publish #1
  const KeyHandle h = engine.Resolve(kKey);

  for (int q = 0; q < 100; ++q) engine.EstimateRange(h, 0, kDomain);
  engine.RefreshSnapshot(kKey);  // publish #2
  for (int q = 0; q < 100; ++q) engine.EstimateEquals(h, 7);

  const EngineStats st = engine.Stats(h);
  EXPECT_EQ(st.publishes, 2u);
  EXPECT_EQ(st.queries, 200u);
  // One miss per publication observed (the first, against the cold slot,
  // observed publish #1; the 101st observed publish #2) — every other
  // revalidation is a hit on the cached pointer.
  EXPECT_EQ(st.lease_misses, st.publishes);
  EXPECT_EQ(st.lease_hits, st.queries - st.lease_misses);
}

// A post-publish read on the publishing thread can never be served a
// pre-publish snapshot: the version stamp is bumped after the pointer
// swap, so the very next revalidation re-acquires.
TEST(EngineHandleTest, LeaseRevalidatesImmediatelyOnPublish) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  const KeyHandle h = engine.Resolve(kKey);

  for (int i = 0; i < 100; ++i) engine.Insert(kKey, 5);
  engine.RefreshSnapshot(kKey);
  EXPECT_EQ(engine.EstimateRange(h, 0, kDomain), 100.0);
  EXPECT_EQ(engine.LeasedSnapshot(h).epoch(), 1u);

  for (int i = 0; i < 50; ++i) engine.Insert(kKey, 9);
  engine.RefreshSnapshot(kKey);
  // No interleaving reader warmed the lease; the first post-publish read
  // must already reflect the new epoch's mass.
  EXPECT_EQ(engine.EstimateRange(h, 0, kDomain), 150.0);
  EXPECT_EQ(engine.LeasedSnapshot(h).epoch(), 2u);
}

// Handles stay valid across publishes, RefreshAll, and option flips, and
// answer bit-identically to the string-keyed path at every epoch.
TEST(EngineHandleTest, HandleSurvivesPublishesAndRefreshAll) {
  HistogramEngine engine(TestOptions());
  const KeyHandle h = engine.Resolve(kKey);
  engine.SetKeyOptions(h, {.merged_buckets = 32});
  EXPECT_EQ(engine.EffectiveOptions(h).merged_buckets, 32);

  Rng rng(7);
  for (int epoch = 1; epoch <= 10; ++epoch) {
    for (int i = 0; i < 2'000; ++i) {
      engine.Insert(kKey, static_cast<std::int64_t>(
                              rng.UniformInt(0, kDomain - 1)));
    }
    if (epoch % 2 == 0) {
      engine.RefreshAll();
    } else {
      engine.RefreshSnapshot(kKey);
    }
    for (int q = 0; q < 32; ++q) {
      const auto lo =
          static_cast<std::int64_t>(rng.UniformInt(0, kDomain - 1));
      const auto hi = std::min<std::int64_t>(kDomain - 1, lo + 100);
      EXPECT_EQ(engine.EstimateRange(h, lo, hi),
                engine.EstimateRange(kKey, lo, hi));
    }
  }
  EXPECT_EQ(h.epoch(), 10u);
}

// Round-robin over more keys than the per-thread cache has slots: every
// access evicts the LRU slot (the classic thrash pattern), so hits stay
// at zero and every answer is still correct — eviction costs a
// re-acquire, never correctness, and the cache never grows past its
// bound.
TEST(EngineHandleTest, EvictionUnderManyKeysStaysCorrectAndBounded) {
  internal::ReleaseThreadLeases();
  const std::uint64_t evictions_before = internal::ThreadLeaseEvictions();
  HistogramEngine engine(TestOptions());
  const std::size_t keys = internal::kLeaseSlots + 4;
  std::vector<KeyHandle> handles;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::string name = "key." + std::to_string(k);
    // Distinct mass per key so a wrong lease would be detected.
    for (std::size_t i = 0; i <= k; ++i) {
      engine.Insert(name, static_cast<std::int64_t>(i));
    }
    engine.RefreshSnapshot(name);
    handles.push_back(engine.Resolve(name));
  }

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < keys; ++k) {
      EXPECT_EQ(engine.EstimateRange(handles[k], 0, kDomain),
                static_cast<double>(k + 1))
          << "key " << k << " round " << round;
    }
  }

  EngineStats total;
  for (const KeyHandle& h : handles) {
    const EngineStats st = engine.Stats(h);
    total.lease_hits += st.lease_hits;
    total.lease_misses += st.lease_misses;
  }
  EXPECT_EQ(total.lease_hits, 0u);
  EXPECT_EQ(total.lease_misses,
            static_cast<std::uint64_t>(keys) * kRounds);
  // Cold fills of the first kLeaseSlots slots are not evictions; every
  // access after the slots filled replaced an LRU victim.
  EXPECT_EQ(internal::ThreadLeaseEvictions() - evictions_before,
            static_cast<std::uint64_t>(keys) * kRounds -
                internal::kLeaseSlots);
}

// Batch answers are exactly what the scalar calls return — same lease,
// same expressions — and the arena's answers equal the published model's
// piece walk; batch counter settling is per span, not per query.
TEST(EngineHandleTest, BatchParityWithScalarQueries) {
  HistogramEngine engine(TestOptions());
  Rng rng(21);
  for (int i = 0; i < 20'000; ++i) {
    engine.Insert(kKey, static_cast<std::int64_t>(
                            rng.UniformInt(0, kDomain - 1)));
  }
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  const KeyHandle h = engine.Resolve(kKey);

  std::vector<RangeQuery> queries;
  for (int q = 0; q < 256; ++q) {
    const auto lo =
        static_cast<std::int64_t>(rng.UniformInt(0, kDomain - 1));
    queries.push_back({lo, std::min<std::int64_t>(kDomain - 1, lo + 200)});
  }
  const std::vector<double> batch = engine.EstimateRangeBatch(h, queries);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(engine.Stats(h).queries, 256u);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[q],
              engine.EstimateRange(h, queries[q].lo, queries[q].hi))
        << "query " << q;
    EXPECT_EQ(batch[q],
              snapshot.model().EstimateRange(queries[q].lo, queries[q].hi))
        << "query " << q;
  }
  // Empty span: no lease touch, no counters.
  engine.EstimateRangeBatch(h, nullptr, 0, nullptr);
  EXPECT_EQ(engine.Stats(h).queries, 512u);
}

// The regression pinned by the satellite fix: an unknown key and a known
// key with no published snapshot used to take different fallback paths;
// both now answer 0.0 and count in unknown_queries, and nothing is
// charged to the key until a snapshot actually serves.
TEST(EngineHandleTest, UnknownAndUnpublishedFallbacksUnified) {
  HistogramEngine engine(TestOptions());
  EXPECT_EQ(engine.EstimateRange("ghost", 0, 10), 0.0);  // unknown key
  engine.Insert("real", 5);                  // known key, never published
  EXPECT_EQ(engine.EstimateRange("real", 0, 10), 0.0);
  const KeyHandle h = engine.Resolve("real");
  EXPECT_EQ(engine.EstimateRange(h, 0, 10), 0.0);
  std::vector<RangeQuery> span(3, RangeQuery{0, 10});
  for (const double r : engine.EstimateRangeBatch(h, span)) {
    EXPECT_EQ(r, 0.0);
  }

  EngineStats st = engine.Stats();
  EXPECT_EQ(st.unknown_queries, 6u);  // 1 ghost + 2 scalar + 3 batch
  EXPECT_EQ(st.queries, 6u);          // global count includes them...
  EXPECT_EQ(engine.Stats("real").queries, 0u);  // ...the key's does not

  engine.RefreshSnapshot("real");
  EXPECT_EQ(engine.EstimateRange(h, 0, 10), 1.0);
  EXPECT_EQ(engine.Stats("real").queries, 1u);
  EXPECT_EQ(engine.Stats().unknown_queries, 6u);  // frozen once served
}

// N readers through cached handles against a publishing writer: each
// reader's observed epoch sequence is monotone (the lease is never ahead
// of, and never regresses behind, what the thread already saw), while
// estimates keep serving lock-free.
TEST(EngineHandleTest, ConcurrentReadersObserveMonotoneEpochs) {
  EngineOptions options = TestOptions();
  HistogramEngine engine(options);
  const KeyHandle h = engine.Resolve(kKey);
  constexpr int kReaders = 3;
  constexpr int kEpochs = 40;

  std::atomic<bool> stop{false};
  std::atomic<bool> regressed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      double sink = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t epoch = engine.LeasedSnapshot(h).epoch();
        if (epoch < last) regressed.store(true);
        last = epoch;
        sink += engine.EstimateRange(h, 0, kDomain);
      }
      if (sink < 0.0) std::abort();  // keep the reads observable
    });
  }

  Rng rng(3);
  for (int e = 0; e < kEpochs; ++e) {
    for (int i = 0; i < 500; ++i) {
      engine.Insert(kKey, static_cast<std::int64_t>(
                              rng.UniformInt(0, kDomain - 1)));
    }
    engine.RefreshSnapshot(kKey);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(regressed.load());
  EXPECT_EQ(engine.Snapshot(kKey).epoch(),
            static_cast<std::uint64_t>(kEpochs));
  // The writer thread's own lease observed every publish it performed
  // between queries; across all threads, misses can never exceed the
  // revalidations that had a new version to observe.
  const EngineStats st = engine.Stats(h);
  EXPECT_GT(st.lease_hits, 0u);
  EXPECT_LE(st.lease_misses,
            static_cast<std::uint64_t>(kEpochs) * (kReaders + 1) +
                kReaders + 1);
}

// The lease metrics ride the standard exposition: per-key hit/miss
// counters and the lease-staleness gauge (publications no reader lease
// has observed yet).
TEST(EngineHandleTest, LeaseMetricsExposed) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());
  for (int i = 0; i < 64; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");
  const KeyHandle h = engine.Resolve("k");
  for (int q = 0; q < 10; ++q) engine.EstimateRange(h, 0, kDomain);

  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(text.find("dynhist_key_snapshot_lease_hits_total{key=\"k\"} 9"),
            std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_lease_misses_total{key=\"k\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("dynhist_snapshot_lease_hits_total 9"),
            std::string::npos);
  EXPECT_NE(text.find("dynhist_snapshot_lease_misses_total 1"),
            std::string::npos);
  // Reader is current: staleness 0. A publish nobody has read: 1.
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 0"),
      std::string::npos);
  engine.RefreshSnapshot("k");
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 1"),
      std::string::npos);
  engine.EstimateRange(h, 0, 1);  // revalidates; fleet is current again
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"k\"} 0"),
      std::string::npos);
}

// PublishExternal enters the same publish tail as shard-path refreshes,
// so the whole KeyHandle/lease lifecycle must be indistinguishable: a
// handle resolved before the key ever had a snapshot observes each
// external version, each publication bumps the version exactly once
// (staleness 0 -> 1 -> 0 around an unread publish), and the
// revalidation shows up as one lease miss followed by pure hits.
TEST(EngineHandleTest, ExternalPublicationsDriveLeaseLifecycle) {
  internal::ReleaseThreadLeases();
  HistogramEngine engine(TestOptions());

  // Pre-resolved handle on a key with no snapshot yet: empty fallback.
  const KeyHandle h = engine.Resolve("ext");
  EXPECT_EQ(h.epoch(), 0u);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 0.0);

  const EngineSnapshot first = engine.PublishExternal(
      "ext", HistogramModel::FromSimpleBuckets({{0.0, 50.0, 500.0}}),
      /*watermark=*/7);
  EXPECT_EQ(first.epoch(), 1u);

  // Unread publication: the staleness gauge reports one version the
  // reader fleet has not observed.
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 1"),
      std::string::npos);

  // The stale pre-resolved handle revalidates (one miss) and serves the
  // external model; repeated reads are lease hits, staleness drops to 0.
  const EngineStats before = engine.Stats(h);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 500.0);
  for (int q = 0; q < 5; ++q) engine.EstimateRange(h, 0, 100);
  const EngineStats after = engine.Stats(h);
  EXPECT_EQ(after.lease_misses - before.lease_misses, 1u);
  EXPECT_EQ(after.lease_hits - before.lease_hits, 5u);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 0"),
      std::string::npos);

  // Next external version: epoch and watermark advance, the same handle
  // flips to the new model on its next read, and the gauge round-trips
  // 0 -> 1 -> 0 again.
  const EngineSnapshot second = engine.PublishExternal(
      "ext", HistogramModel::FromSimpleBuckets({{0.0, 25.0, 40.0}}),
      /*watermark=*/9);
  EXPECT_EQ(second.epoch(), 2u);
  EXPECT_EQ(engine.Snapshot("ext").watermark(), 9u);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 1"),
      std::string::npos);
  EXPECT_EQ(engine.EstimateRange(h, 0, 100), 40.0);
  text.clear();
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(
      text.find("dynhist_key_lease_staleness_versions{key=\"ext\"} 0"),
      std::string::npos);
}

}  // namespace
}  // namespace dynhist::engine
