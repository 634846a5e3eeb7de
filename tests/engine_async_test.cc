// Deterministic tests of the engine's async publish pipeline.
//
// Everything here steps the merge queue explicitly — manual-pump mode
// (merge_workers = 0) plus PumpPublishes()/DrainPublishes() — or
// synchronizes through joins and condition-variable waits. No test uses
// sleep-based synchronization, so the suite is deterministic run to run:
// request coalescing, no-lost-epoch drain semantics, stop-while-queued
// behavior, and the EngineStats contract are all pinned exactly, not
// probabilistically.

#include "src/engine/histogram_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/data/update_stream.h"
#include "src/engine/engine_options.h"
#include "src/engine/snapshot.h"
#include "tests/test_util.h"

namespace dynhist::engine {
namespace {

constexpr std::int64_t kDomain = 1'001;
constexpr char kKey[] = "t.a";

std::vector<std::int64_t> ZipfValues(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  return values;
}

// Manual-pump async engine: cadence trips enqueue, nothing merges until
// the test pumps. batch_size 1 keeps shard trajectories independent of
// flush timing, which is what makes bit-identical oracle comparisons
// possible (a publish flushes shard buffers, so with batching the flush
// points would perturb the coalescing boundaries).
EngineOptions ManualAsyncOptions() {
  EngineOptions options;
  options.shards = 4;
  options.batch_size = 1;
  options.snapshot_every = 100;
  options.async_publish = true;
  options.merge_workers = 0;
  return options;
}

TEST(EngineAsyncTest, ManualPumpCoalescesCadenceTripsIntoOneMerge) {
  HistogramEngine engine(ManualAsyncOptions());
  const auto values = ZipfValues(500, /*seed=*/21);
  for (const std::int64_t v : values) engine.Insert(kKey, v);

  // 5 cadence trips happened (at 100, 200, ..., 500); only the first
  // enqueued, the rest coalesced into it. Nothing merged yet.
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.publish_queued, 1u);
  EXPECT_EQ(stats.publish_coalesced, 4u);
  EXPECT_EQ(stats.publishes, 0u);
  EXPECT_EQ(stats.async_publishes, 0u);
  EXPECT_EQ(engine.PublishQueueDepth(), 1u);
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 0u);

  // One pump runs the one coalesced request — at the newest state: the
  // publication's watermark covers all 500 updates, not just the first
  // trip's 100.
  EXPECT_EQ(engine.PumpPublishes(), 1u);
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_EQ(snapshot.epoch(), 1u);
  EXPECT_EQ(snapshot.watermark(), 500u);
  EXPECT_DOUBLE_EQ(snapshot.TotalCount(), 500.0);

  stats = engine.Stats();
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.async_publishes, 1u);
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);

  // New updates past the pending watermark re-trip and re-enqueue.
  for (const std::int64_t v : ZipfValues(100, /*seed=*/22)) {
    engine.Insert(kKey, v);
  }
  stats = engine.Stats();
  EXPECT_EQ(stats.publish_queued, 2u);
  EXPECT_EQ(engine.PumpPublishes(), 1u);
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 2u);
  EXPECT_EQ(engine.Snapshot(kKey).watermark(), 600u);
}

TEST(EngineAsyncTest, QueueHoldsOneRequestPerKey) {
  // The bound on the publish queue: however often its keys trip the
  // cadence, the queue holds at most one request per key, and nothing is
  // refused while the engine runs.
  HistogramEngine engine(ManualAsyncOptions());
  constexpr int kKeys = 40;
  const auto values = ZipfValues(300, /*seed=*/61);
  for (int k = 0; k < kKeys; ++k) {
    // Three cadence trips per key: at 100, 200 and 300 updates.
    for (const std::int64_t v : values) {
      engine.Insert("key." + std::to_string(k), v);
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(engine.PublishQueueDepth(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.publish_queued, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.publish_coalesced, 2u * kKeys);
  EXPECT_EQ(stats.publish_rejected, 0u);
  EXPECT_EQ(stats.publishes, 0u);

  // One pump publishes each key once, at its newest state.
  EXPECT_EQ(engine.PumpPublishes(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    const EngineSnapshot snapshot =
        engine.Snapshot("key." + std::to_string(k));
    EXPECT_EQ(snapshot.epoch(), 1u) << "key." << k;
    EXPECT_EQ(snapshot.watermark(), 300u) << "key." << k;
  }
  stats = engine.Stats();
  EXPECT_EQ(stats.publishes, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.async_publishes, static_cast<std::uint64_t>(kKeys));
}

TEST(EngineAsyncTest, PumpedSnapshotMatchesSyncOracleBitForBit) {
  EngineOptions async_options = ManualAsyncOptions();
  EngineOptions sync_options = async_options;
  sync_options.async_publish = false;

  HistogramEngine async_engine(async_options);
  HistogramEngine sync_engine(sync_options);
  const auto values = ZipfValues(500, /*seed=*/23);
  for (const std::int64_t v : values) {
    async_engine.Insert(kKey, v);
    sync_engine.Insert(kKey, v);
  }
  // Sync published inline at every trip (5 epochs); async publishes once,
  // now. Both final publications merge identical shard states, so the
  // models must agree bit for bit.
  ASSERT_EQ(async_engine.PumpPublishes(), 1u);
  const EngineSnapshot a = async_engine.Snapshot(kKey);
  const EngineSnapshot s = sync_engine.Snapshot(kKey);
  EXPECT_EQ(s.epoch(), 5u);
  EXPECT_EQ(a.epoch(), 1u);
  EXPECT_EQ(a.watermark(), s.watermark());
  EXPECT_TRUE(testing::ModelsBitIdentical(a.model(), s.model()));
}

TEST(EngineAsyncTest, NoLostEpochDrainThenRefreshAllEqualsSerialOracle) {
  // Seeded mixed insert/delete workload, pumped at seeded irregular
  // points mid-stream. After the final drain + RefreshAll, the async
  // engine must land on exactly the serial (sync) engine's state: same
  // model bits, exact mass.
  EngineOptions async_options = ManualAsyncOptions();
  EngineOptions sync_options = async_options;
  sync_options.async_publish = false;

  HistogramEngine async_engine(async_options);
  HistogramEngine sync_engine(sync_options);

  Rng rng(/*seed=*/31);
  UpdateStream stream =
      MakeMixedStream(ZipfValues(4'000, /*seed=*/32), 0.3, rng);
  FrequencyVector truth(kDomain);
  std::size_t i = 0;
  for (const UpdateOp& op : stream) {
    testing::ApplyToEngine(async_engine, kKey, op);
    testing::ApplyToEngine(sync_engine, kKey, op);
    if (op.kind == UpdateOp::Kind::kInsert) {
      truth.Insert(op.value);
    } else {
      truth.Delete(op.value);
    }
    // Irregular deterministic pumping: drains whatever is queued at
    // arbitrary stream positions, including none.
    if (++i % 937 == 0) async_engine.PumpPublishes();
  }

  async_engine.DrainPublishes();
  async_engine.RefreshAll();
  sync_engine.RefreshAll();

  const EngineSnapshot a = async_engine.Snapshot(kKey);
  const EngineSnapshot s = sync_engine.Snapshot(kKey);
  EXPECT_EQ(a.watermark(), static_cast<std::uint64_t>(stream.size()));
  EXPECT_EQ(a.watermark(), s.watermark());
  EXPECT_TRUE(testing::ModelsBitIdentical(a.model(), s.model()));
  EXPECT_DOUBLE_EQ(async_engine.LiveTotalCount(kKey),
                   static_cast<double>(truth.TotalCount()));
  EXPECT_DOUBLE_EQ(sync_engine.LiveTotalCount(kKey),
                   static_cast<double>(truth.TotalCount()));
}

TEST(EngineAsyncTest, StopDrainsQueuedRequestsInManualMode) {
  HistogramEngine engine(ManualAsyncOptions());
  for (const std::int64_t v : ZipfValues(300, /*seed=*/41)) {
    engine.Insert(kKey, v);
  }
  ASSERT_EQ(engine.PublishQueueDepth(), 1u);

  // Stop with the request still queued: it must be published, not lost.
  engine.StopPublishWorkers();
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_EQ(snapshot.epoch(), 1u);
  EXPECT_EQ(snapshot.watermark(), 300u);
  EXPECT_DOUBLE_EQ(snapshot.TotalCount(), 300.0);

  // After the stop, a cadence trip is refused and counted. The refusal
  // clears the pending flag, so the next trip is refused and counted
  // again: the key is never wedged.
  for (const std::int64_t v : ZipfValues(100, /*seed=*/42)) {
    engine.Insert(kKey, v);
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.publish_rejected, 1u);
  EXPECT_EQ(stats.publish_queued, 1u);  // the request queued before the stop
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 1u);
  for (const std::int64_t v : ZipfValues(100, /*seed=*/72)) {
    engine.Insert(kKey, v);
  }
  stats = engine.Stats();
  EXPECT_EQ(stats.publish_rejected, 2u);
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);

  // An explicit refresh still publishes.
  const EngineSnapshot refreshed = engine.RefreshSnapshot(kKey);
  EXPECT_EQ(refreshed.epoch(), 2u);
  EXPECT_EQ(refreshed.watermark(), 500u);
  EXPECT_DOUBLE_EQ(refreshed.TotalCount(), 500.0);
}

TEST(EngineAsyncTest, StopDrainsQueueAcrossManyKeysWithWorkers) {
  // With a live worker the queue length at stop time is racy, but the
  // semantics are not: every request accepted before StopPublishWorkers
  // returns must have produced a publication, whether the worker or the
  // stop-drain ran it.
  EngineOptions options = ManualAsyncOptions();
  options.snapshot_every = 1;
  options.merge_workers = 1;
  HistogramEngine engine(options);
  constexpr int kKeys = 50;
  for (int k = 0; k < kKeys; ++k) {
    engine.Insert("key." + std::to_string(k), k);
  }
  engine.StopPublishWorkers();
  for (int k = 0; k < kKeys; ++k) {
    const EngineSnapshot snapshot =
        engine.Snapshot("key." + std::to_string(k));
    EXPECT_GE(snapshot.epoch(), 1u) << "key." << k;
    EXPECT_DOUBLE_EQ(snapshot.TotalCount(), 1.0) << "key." << k;
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.publish_queued, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.async_publishes, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.publish_rejected, 0u);
}

TEST(EngineAsyncTest, DrainPublishesWaitsForWorkerCompletion) {
  EngineOptions options = ManualAsyncOptions();
  options.merge_workers = 1;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(100, /*seed=*/51)) {
    engine.Insert(kKey, v);
  }
  // Condition-variable wait, not a sleep loop: on return the request the
  // 100th insert queued has been fully published.
  engine.DrainPublishes();
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_EQ(snapshot.epoch(), 1u);
  EXPECT_EQ(snapshot.watermark(), 100u);
  EXPECT_DOUBLE_EQ(snapshot.TotalCount(), 100.0);
}

TEST(EngineAsyncTest, StatsConsistentAfterConcurrentDrain) {
  // Two writers race two merge workers; after join + drain the counters
  // must be mutually consistent (the EngineStats contract at a
  // synchronization point), not merely monotone.
  EngineOptions options;
  options.shards = 4;
  options.batch_size = 16;
  options.snapshot_every = 500;
  options.async_publish = true;
  options.merge_workers = 2;
  HistogramEngine engine(options);

  constexpr int kWriters = 2;
  constexpr std::int64_t kPerWriter = 5'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const std::int64_t v :
           ZipfValues(kPerWriter, static_cast<std::uint64_t>(w) + 81)) {
        engine.Insert(kKey, v);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  engine.DrainPublishes();

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.inserts,
            static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(stats.deletes, 0u);
  // Every accepted request was drained: merged, or elided because a merge
  // racing the trip had already covered it; none refused, since the
  // workers never stopped.
  EXPECT_EQ(stats.publish_rejected, 0u);
  EXPECT_EQ(stats.async_publishes + stats.publish_skipped,
            stats.publish_queued);
  EXPECT_EQ(stats.publishes, stats.async_publishes);
  EXPECT_GE(stats.publishes, 1u);
  EXPECT_EQ(engine.PublishQueueDepth(), 0u);
  // Latency accounting: totals cover every publish; the max is one of
  // them.
  EXPECT_GT(stats.publish_nanos, 0u);
  EXPECT_GT(stats.max_publish_nanos, 0u);
  EXPECT_LE(stats.max_publish_nanos, stats.publish_nanos);
  // The drained snapshot reflects a consistent prefix; a final refresh
  // accounts for every update exactly.
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount(kKey),
                   static_cast<double>(kWriters * kPerWriter));
}

TEST(EngineAsyncTest, InlineRefreshElidesQueuedMerge) {
  // A queued request asks for "publish everything up to requested_at"; if
  // an inline refresh publishes past that first, draining the request
  // must not burn a merge republishing identical state.
  HistogramEngine engine(ManualAsyncOptions());
  for (const std::int64_t v : ZipfValues(150, /*seed=*/91)) {
    engine.Insert(kKey, v);
  }
  ASSERT_EQ(engine.PublishQueueDepth(), 1u);
  const EngineSnapshot refreshed = engine.RefreshSnapshot(kKey);
  EXPECT_EQ(refreshed.epoch(), 1u);
  EXPECT_EQ(refreshed.watermark(), 150u);

  // The pump still consumes the request, but elides the merge.
  EXPECT_EQ(engine.PumpPublishes(), 1u);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.publish_skipped, 1u);
  EXPECT_EQ(stats.async_publishes, 0u);
  EXPECT_EQ(stats.publishes, 1u);  // the refresh only
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 1u);

  // New updates past the refresh re-trip and merge normally.
  for (const std::int64_t v : ZipfValues(100, /*seed=*/92)) {
    engine.Insert(kKey, v);
  }
  EXPECT_EQ(engine.PumpPublishes(), 1u);
  EXPECT_EQ(engine.Snapshot(kKey).epoch(), 2u);
  EXPECT_EQ(engine.Snapshot(kKey).watermark(), 250u);
}

TEST(EngineAsyncTest, BufferedOpsReportsUnappliedUpdates) {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 64;
  options.snapshot_every = 0;
  HistogramEngine engine(options);
  // The key's dynhist_key_buffered_ops gauge in a scrape.
  const auto buffered_ops = [&engine] {
    std::string text;
    engine.WriteMetricsPrometheus(&text);
    const std::string series = "dynhist_key_buffered_ops{key=\"t.a\"} ";
    const std::size_t pos = text.find(series);
    return pos == std::string::npos
               ? -1.0
               : std::stod(text.substr(pos + series.size()));
  };
  for (std::int64_t i = 0; i < 10; ++i) engine.Insert(kKey, i);
  EXPECT_EQ(buffered_ops(), 10.0);
  engine.FlushAll();
  EXPECT_EQ(buffered_ops(), 0.0);
}

}  // namespace
}  // namespace dynhist::engine
