#include "src/engine/histogram_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/frequency_vector.h"
#include "src/engine/engine_options.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/merge.h"
#include "src/metrics/ks.h"
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

EngineOptions TestOptions() {
  EngineOptions options;
  options.shards = 8;
  options.batch_size = 16;
  options.snapshot_every = 0;  // publish manually unless a test opts in
  return options;
}

TEST(HistogramEngineTest, UnknownKeyYieldsEmptyEpochZeroSnapshot) {
  HistogramEngine engine(TestOptions());
  const EngineSnapshot snapshot = engine.Snapshot("nope");
  EXPECT_EQ(snapshot.epoch(), 0u);
  EXPECT_EQ(snapshot.TotalCount(), 0.0);
  EXPECT_EQ(engine.EstimateRange("nope", 0, kDomain), 0.0);
  EXPECT_EQ(engine.EstimateRange("nope", 5, 5), 0.0);
}

TEST(HistogramEngineTest, SingleThreadSnapshotKsCloseToDirectHistogram) {
  const auto values = ZipfValues(20'000, /*seed=*/11);

  HistogramEngine engine(TestOptions());
  FrequencyVector truth(kDomain);
  DynamicVOptHistogram direct(
      DynamicVOptConfig{.buckets = 64, .policy = DeviationPolicy::kAbsolute});
  for (const std::int64_t v : values) {
    engine.Insert(kKey, v);
    direct.Insert(v);
    truth.Insert(v);
  }

  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_TRUE(testing::ModelIsValid(snapshot.model()));
  EXPECT_NEAR(snapshot.TotalCount(), 20'000.0, 1.0);

  const double ks_direct = KsStatistic(truth, direct.Model());
  const double ks_engine = KsStatistic(truth, snapshot.model());
  // The merged snapshot must be in the same accuracy class as the
  // single histogram it replaces (the §8 merge is near-lossless).
  EXPECT_LE(ks_engine, ks_direct + 0.05);
  EXPECT_LT(ks_engine, 0.1);
}

TEST(HistogramEngineTest, EstimatesMatchSnapshotModel) {
  HistogramEngine engine(TestOptions());
  for (std::int64_t v = 0; v < 1'000; ++v) engine.Insert(kKey, v % 100);
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_DOUBLE_EQ(engine.EstimateRange(kKey, 0, 99),
                   snapshot.EstimateRange(0, 99));
  EXPECT_NEAR(engine.EstimateRange(kKey, 0, 99), 1'000.0, 1.0);
  EXPECT_DOUBLE_EQ(engine.EstimateRange(kKey, 5, 5),
                   snapshot.EstimateRange(5, 5));
}

TEST(HistogramEngineTest, HeldSnapshotIsImmutableUnderLaterUpdates) {
  HistogramEngine engine(TestOptions());
  for (const std::int64_t v : ZipfValues(5'000, 3)) engine.Insert(kKey, v);
  const EngineSnapshot held = engine.RefreshSnapshot(kKey);
  const double held_total = held.TotalCount();
  const double held_estimate = held.EstimateRange(0, kDomain - 1);
  const std::uint64_t held_epoch = held.epoch();
  ASSERT_EQ(held_epoch, 1u);

  for (const std::int64_t v : ZipfValues(5'000, 4)) engine.Insert(kKey, v);
  const EngineSnapshot fresh = engine.RefreshSnapshot(kKey);

  EXPECT_EQ(held.epoch(), held_epoch);
  EXPECT_DOUBLE_EQ(held.TotalCount(), held_total);
  EXPECT_DOUBLE_EQ(held.EstimateRange(0, kDomain - 1), held_estimate);
  EXPECT_EQ(fresh.epoch(), 2u);
  EXPECT_NEAR(fresh.TotalCount(), 2.0 * held_total, 1.0);
}

TEST(HistogramEngineTest, AutoPublishFollowsSnapshotCadence) {
  EngineOptions options = TestOptions();
  options.snapshot_every = 1'000;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(5'500, 5)) engine.Insert(kKey, v);
  const EngineSnapshot snapshot = engine.Snapshot(kKey);
  EXPECT_GE(snapshot.epoch(), 4u);  // ~5 cadence crossings
  EXPECT_GE(snapshot.TotalCount(), 4'000.0);
  EXPECT_GE(engine.Stats().publishes, 4u);
}

TEST(HistogramEngineTest, InsertBatchMatchesLoopInserts) {
  EngineOptions options = TestOptions();
  const auto values = ZipfValues(10'000, 6);
  HistogramEngine loop_engine(options);
  HistogramEngine batch_engine(options);
  for (const std::int64_t v : values) loop_engine.Insert(kKey, v);
  batch_engine.InsertBatch(kKey, values);
  EXPECT_DOUBLE_EQ(loop_engine.LiveTotalCount(kKey),
                   batch_engine.LiveTotalCount(kKey));
  // Each shard applies the same ops in the same batch_size chunks either
  // way, so the two publish the same model.
  EXPECT_TRUE(testing::ModelsBitIdentical(
      loop_engine.RefreshSnapshot(kKey).model(),
      batch_engine.RefreshSnapshot(kKey).model()));
}

// One shard at batch_size 1 publishes exactly what a lone shard histogram
// fed the same ops one by one would, merged the way the engine merges.
TEST(HistogramEngineTest, BatchSizeOneReplaysOpsAsPushed) {
  for (const ShardHistogramKind kind :
       {ShardHistogramKind::kDynamicCompressed,
        ShardHistogramKind::kDynamicVOpt, ShardHistogramKind::kDynamicAdo}) {
    EngineOptions options = TestOptions();
    options.kind = kind;
    options.shards = 1;
    options.batch_size = 1;
    HistogramEngine engine(options);
    const std::unique_ptr<Histogram> replica = MakeShardHistogram(options);

    Rng rng(29);
    const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
    std::vector<std::int64_t> live;
    for (int i = 0; i < 8'000; ++i) {
      if (!live.empty() && rng.Bernoulli(0.25)) {
        const std::size_t j = rng.UniformInt(live.size());
        const std::int64_t v = live[j];
        live[j] = live.back();
        live.pop_back();
        engine.Delete(kKey, v);
        replica->Delete(v, 1);
      } else {
        const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
        live.push_back(v);
        engine.Insert(kKey, v);
        replica->Insert(v);
      }
    }
    const HistogramModel expected = SnapshotMerger().MergeAndReduce(
        {replica->Model()}, options.merged_buckets);
    EXPECT_TRUE(testing::ModelsBitIdentical(
        engine.RefreshSnapshot(kKey).model(), expected))
        << static_cast<int>(kind);
  }
}

// The publish cadence counts accepted inserts, deletes and feedbacks
// alike, and nothing a caller had rejected.
TEST(HistogramEngineTest, CadenceCountsAcceptedInsertsDeletesAndFeedbacks) {
  EngineOptions options = TestOptions();
  options.snapshot_every = 12;
  HistogramEngine engine(options);
  engine.InsertBatch(kKey, {1, 2, kMaxValue + 1, 3, 4});  // 4 accepted
  engine.Insert(kKey, kMinValue - 1);
  engine.Insert(kKey, 5);                                 // 5
  for (std::int64_t v = 1; v <= 3; ++v) engine.Delete(kKey, v);  // 8
  engine.Delete(kKey, kMaxValue + 1);
  const KeyHandle key = engine.Resolve(kKey);
  engine.RecordFeedback(key, 10, 5, 1.0);  // lo > hi
  engine.RecordFeedback(key, 0, 9, 2.0);   // 9
  engine.RecordFeedback(key, 0, 9, std::numeric_limits<double>::quiet_NaN());
  engine.RecordFeedback(key, 0, 9, 2.0);   // 10
  engine.Insert(kKey, 6);                  // 11
  EXPECT_EQ(engine.Stats(kKey).publishes, 0u);

  engine.RecordFeedback(key, 0, 9, 2.0);   // 12: the cadence trips
  const EngineStats stats = engine.Stats(kKey);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.rejected_values, 3u);
  EXPECT_EQ(stats.rejected_feedbacks, 2u);
  EXPECT_EQ(engine.Snapshot(kKey).watermark(), 12u);
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(text.find("dynhist_key_staleness_updates{key=\"t.a\"} 0\n"),
            std::string::npos)
      << text;
}

TEST(HistogramEngineTest, CoalescedBatchesConserveMassAndQuality) {
  // Coalescing changes the maintenance trajectory but must conserve mass
  // exactly and stay in the same estimation-quality class as the
  // op-by-op replay of batch_size 1.
  const auto values = ZipfValues(20'000, 12);
  EngineOptions coalesced = TestOptions();
  coalesced.batch_size = 256;  // plenty of duplicates per batch at z=1
  EngineOptions faithful = coalesced;
  faithful.batch_size = 1;

  FrequencyVector truth(kDomain);
  for (const std::int64_t v : values) truth.Insert(v);

  HistogramEngine a(coalesced);
  HistogramEngine b(faithful);
  a.InsertBatch(kKey, values);
  b.InsertBatch(kKey, values);
  EXPECT_DOUBLE_EQ(a.LiveTotalCount(kKey), 20'000.0);
  EXPECT_DOUBLE_EQ(b.LiveTotalCount(kKey), 20'000.0);

  const double ks_a = KsStatistic(truth, a.RefreshSnapshot(kKey).model());
  const double ks_b = KsStatistic(truth, b.RefreshSnapshot(kKey).model());
  EXPECT_LT(ks_a, 0.1);
  EXPECT_LE(ks_a, ks_b + 0.05);
}

// One seeded stream through one coalescing shard, every ExportModel()
// folded into one digest. A round is one drain: `batch_size` Pushes onto
// an empty buffer, or every fifth round one PushMany of 2.5 batches (split
// into batch_size chunks). Inserts are Zipf-skewed, so values repeat
// within a batch; deletes take a value inserted earlier in the same round
// or a live value from an earlier round. With `feedback`, runs of query
// observations (repeats of one predicate, or distinct ones) interleave
// with the data ops. Every eighth round ends with a partial round that the
// export's flush drains.
std::uint64_t ReplayThroughShard(const EngineOptions& options,
                                 std::uint64_t seed, bool feedback) {
  EngineShard shard(options);
  Rng rng(seed);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  std::vector<std::int64_t> live;
  std::vector<std::int64_t> fresh;
  const auto next_ops = [&](std::size_t n) {
    std::vector<UpdateOp> ops;
    while (ops.size() < n) {
      const double u = rng.UniformDouble();
      if (feedback && u < 0.08) {
        const std::int64_t lo = rng.UniformInt(0, kDomain - 50);
        const std::int64_t hi = lo + rng.UniformInt(0, 49);
        const double actual = static_cast<double>(rng.UniformInt(0, 400));
        const bool repeat = rng.Bernoulli(0.5);
        for (auto r = static_cast<std::int64_t>(1 + rng.UniformInt(4));
             r > 0 && ops.size() < n; --r) {
          ops.push_back(repeat ? UpdateOp::Feedback(lo, hi, actual)
                               : UpdateOp::Feedback(lo + r, hi + r, actual));
        }
      } else if (u < 0.2 && !fresh.empty()) {
        const std::size_t j = rng.UniformInt(fresh.size());
        ops.push_back(UpdateOp::Delete(fresh[j]));
        fresh[j] = fresh.back();
        fresh.pop_back();
      } else if (u < 0.3 && !live.empty()) {
        const std::size_t j = rng.UniformInt(live.size());
        ops.push_back(UpdateOp::Delete(live[j]));
        live[j] = live.back();
        live.pop_back();
      } else {
        const auto rank = static_cast<std::int64_t>(zipf.Sample(rng));
        const std::int64_t v = (rank * 389) % kDomain;
        ops.push_back(UpdateOp::Insert(v));
        fresh.push_back(v);
      }
    }
    live.insert(live.end(), fresh.begin(), fresh.end());
    fresh.clear();
    return ops;
  };
  const auto batch = static_cast<std::size_t>(options.batch_size);
  std::uint64_t digest = testing::kModelDigestBasis;
  for (int round = 0; round < 160; ++round) {
    if (round % 5 == 4) {
      shard.PushMany(next_ops(batch * 5 / 2));
    } else {
      for (const UpdateOp& op : next_ops(batch)) shard.Push(op);
    }
    if (round % 8 == 7) {
      for (const UpdateOp& op : next_ops(batch / 3)) shard.Push(op);
      digest = testing::ModelDigest(shard.ExportModel(), digest);
    }
  }
  return testing::ModelDigest(shard.ExportModel(), digest);
}

TEST(HistogramEngineTest, CoalescedShardStreamsReplayBitIdentically) {
  // Pinned outputs of the coalescing drain: duplicate values collapse into
  // one weighted insert and one weighted delete, applied in first-occurrence
  // order, and feedback ops, repeated predicates included, apply one by
  // one in push order. Any change to the grouping, the group order or the
  // weighted steps moves a digest; a faster coalescer must leave every
  // line unchanged.
  struct Case {
    const char* name;
    ShardHistogramKind kind;
    int batch_size;
    bool feedback;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"DADO", ShardHistogramKind::kDynamicAdo, 64, false,
       0x53bd2ef886df973aull},
      {"DADO", ShardHistogramKind::kDynamicAdo, 256, false,
       0x2012c166f88a73a7ull},
      {"DVO", ShardHistogramKind::kDynamicVOpt, 64, false,
       0xf6929806f3407c64ull},
      {"DC", ShardHistogramKind::kDynamicCompressed, 64, false,
       0x0e9b49427c213a53ull},
      {"STF", ShardHistogramKind::kStFeedback, 64, true,
       0x3f33409f9740414aull},
  };
  for (const Case& c : cases) {
    EngineOptions options;
    options.kind = c.kind;
    options.batch_size = c.batch_size;
    options.shard_buckets = 32;
    options.st_feedback.domain_hi = kDomain - 1;
    const std::uint64_t digest =
        ReplayThroughShard(options, 51 + c.batch_size, c.feedback);
    SCOPED_TRACE(::testing::Message()
                 << c.name << " batch " << c.batch_size << ": digest 0x"
                 << std::hex << digest);
    EXPECT_EQ(digest, c.digest);
  }
}

// Sends one invalid observation to an ST-FEEDBACK key, then a valid one:
// the first is dropped and counted (it must not abort the process or reach
// a shard), the second trains the shards as usual.
void ExpectFeedbackRejected(std::int64_t lo, std::int64_t hi, double actual) {
  EngineOptions options = TestOptions();
  options.kind = ShardHistogramKind::kStFeedback;
  HistogramEngine engine(options);
  const KeyHandle key = engine.Resolve(kKey);
  engine.RecordFeedback(key, lo, hi, actual);
  EXPECT_EQ(engine.LiveTotalCount(kKey), 0.0);
  EXPECT_EQ(engine.Stats().rejected_feedbacks, 1u);
  EXPECT_EQ(engine.Stats(kKey).feedbacks, 0u);
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  EXPECT_NE(text.find("dynhist_key_rejected_ops_total{key=\"t.a\","
                      "reason=\"feedback\"} 1\n"),
            std::string::npos);

  engine.RecordFeedback(key, 10, 19, 80.0);
  EXPECT_GT(engine.LiveTotalCount(kKey), 0.0);
  EXPECT_EQ(engine.Stats(kKey).feedbacks, 1u);
  EXPECT_EQ(engine.Stats(kKey).rejected_feedbacks, 1u);
}

TEST(HistogramEngineTest, RecordFeedbackDropsInvertedRange) {
  ExpectFeedbackRejected(20, 10, 5.0);
}

TEST(HistogramEngineTest, RecordFeedbackDropsNegativeActual) {
  ExpectFeedbackRejected(10, 20, -1.0);
}

TEST(HistogramEngineTest, RecordFeedbackDropsNanActual) {
  ExpectFeedbackRejected(10, 20, std::numeric_limits<double>::quiet_NaN());
}

TEST(HistogramEngineTest, RecordFeedbackDropsInfiniteActual) {
  ExpectFeedbackRejected(10, 20, std::numeric_limits<double>::infinity());
}

TEST(HistogramEngineTest, OutOfDomainValuesAreDroppedAndCounted) {
  // Past 2^53 a value's piece [v, v + 1) has zero width in double
  // arithmetic, and publishing it would abort the process (and with it
  // every key). Insert, Delete and InsertBatch drop values outside
  // [kMinValue, kMaxValue] and count them; the domain's edge values stay
  // accepted, with cadence publishes running in between.
  const std::int64_t outside[] = {kMaxValue + 1, kMaxValue + 2,
                                  kMinValue - 1,
                                  std::numeric_limits<std::int64_t>::max(),
                                  std::numeric_limits<std::int64_t>::min()};
  constexpr std::uint64_t kOutside = std::size(outside);
  for (const ShardHistogramKind kind :
       {ShardHistogramKind::kDynamicCompressed,
        ShardHistogramKind::kDynamicVOpt, ShardHistogramKind::kDynamicAdo}) {
    for (const std::int64_t edge : {kMaxValue, kMinValue}) {
      const std::int64_t inward = edge == kMaxValue ? -1 : 1;
      EngineOptions options = TestOptions();
      options.kind = kind;
      options.snapshot_every = 256;
      HistogramEngine engine(options);
      std::uint64_t inserts = 0, deletes = 0;
      for (std::int64_t i = 0; i < 2'000; ++i) {
        engine.Insert(kKey, edge + inward * (i % 700));
        ++inserts;
        if (i % 3 == 2) {
          engine.Delete(kKey, edge + inward * (i % 700));
          ++deletes;
        }
        if (i % 400 == 0) {
          for (const std::int64_t v : outside) {
            engine.Insert(kKey, v);
            engine.Delete(kKey, v);
          }
        }
      }
      std::vector<std::int64_t> batch(std::begin(outside),
                                      std::end(outside));
      batch.push_back(edge);
      batch.push_back(edge + inward * 5);
      engine.InsertBatch(kKey, batch);
      inserts += 2;
      engine.InsertBatch(kKey, {outside[0], outside[2]});

      const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
      SCOPED_TRACE(::testing::Message() << "kind "
                                        << static_cast<int>(kind)
                                        << ", edge " << edge);
      EXPECT_EQ(engine.LiveTotalCount(kKey),
                static_cast<double>(inserts - deletes));
      EXPECT_GT(snapshot.epoch(), 1u);
      EXPECT_NEAR(snapshot.TotalCount(),
                  static_cast<double>(inserts - deletes), 1e-6);
      const EngineStats stats = engine.Stats(kKey);
      EXPECT_EQ(stats.inserts, inserts);
      EXPECT_EQ(stats.deletes, deletes);
      const std::uint64_t rejected = 5 * 2 * kOutside + kOutside + 2;
      EXPECT_EQ(stats.rejected_values, rejected);
      std::string text;
      engine.WriteMetricsPrometheus(&text);
      EXPECT_NE(text.find("dynhist_key_rejected_ops_total{key=\"t.a\","
                          "reason=\"domain\"} " +
                          std::to_string(rejected) + "\n"),
                std::string::npos);
    }
  }
}

TEST(HistogramEngineTest, DynamicCompressedKindWorks) {
  EngineOptions options = TestOptions();
  options.kind = ShardHistogramKind::kDynamicCompressed;
  HistogramEngine engine(options);
  FrequencyVector truth(kDomain);
  for (const std::int64_t v : ZipfValues(20'000, 7)) {
    engine.Insert(kKey, v);
    truth.Insert(v);
  }
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_NEAR(snapshot.TotalCount(), 20'000.0, 1.0);
  EXPECT_LT(KsStatistic(truth, snapshot.model()), 0.1);
}

TEST(HistogramEngineTest, MultipleKeysAreIndependent) {
  HistogramEngine engine(TestOptions());
  engine.Insert("a", 1);
  engine.Insert("b", 2);
  engine.Insert("b", 3);
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount("a"), 1.0);
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount("b"), 2.0);
  EXPECT_EQ(engine.Stats().keys, 2u);
}

// N writers + M readers; writers also delete ~25% of their own inserts
// (the §7.3.1 mixed workload). Final mass must equal inserted - deleted
// exactly, and no reader may ever observe a torn or invalid snapshot.
TEST(HistogramEngineTest, ConcurrentWritersAndReadersConserveMass) {
  EngineOptions options = TestOptions();
  options.snapshot_every = 2'000;
  HistogramEngine engine(options);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::int64_t kPerWriter = 10'000;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> net_mass{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 100);
      const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
      std::vector<std::int64_t> own;  // values this writer has inserted
      std::int64_t net = 0;
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
        engine.Insert(kKey, v);
        own.push_back(v);
        ++net;
        if (!own.empty() && rng.Bernoulli(0.25)) {
          const std::size_t pick = static_cast<std::size_t>(
              rng.UniformInt(static_cast<std::uint64_t>(own.size())));
          engine.Delete(kKey, own[pick]);
          own[pick] = own.back();
          own.pop_back();
          --net;
        }
      }
      net_mass.fetch_add(net);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 900);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EngineSnapshot snapshot = engine.Snapshot(kKey);
        // Epochs never go backwards from a reader's point of view.
        EXPECT_GE(snapshot.epoch(), last_epoch);
        last_epoch = snapshot.epoch();
        EXPECT_TRUE(testing::ModelIsValid(snapshot.model()));
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const double estimate =
            snapshot.EstimateRange(lo, kDomain - 1);
        EXPECT_GE(estimate, 0.0);
        EXPECT_TRUE(std::isfinite(estimate));
        EXPECT_LE(estimate, snapshot.TotalCount() + 1e-9);
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Exact conservation through buffers, shards, and concurrent publishes.
  EXPECT_DOUBLE_EQ(engine.LiveTotalCount(kKey),
                   static_cast<double>(net_mass.load()));
  const EngineSnapshot final_snapshot = engine.RefreshSnapshot(kKey);
  EXPECT_NEAR(final_snapshot.TotalCount(),
              static_cast<double>(net_mass.load()), 1.0);
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.inserts, static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_GE(stats.publishes, 1u);
}

TEST(HistogramEngineTest, PublishAttachesCompiledSnapshot) {
  HistogramEngine engine(TestOptions());
  EXPECT_EQ(engine.Snapshot(kKey).compiled(), nullptr);  // epoch-0: absent
  for (const std::int64_t v : ZipfValues(5'000, 21)) engine.Insert(kKey, v);
  const EngineSnapshot snapshot = engine.RefreshSnapshot(kKey);
  const CompiledSnapshot* compiled = snapshot.compiled();
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->NumPieces(), snapshot.model().pieces().size());
  EXPECT_EQ(compiled->TotalCount(), snapshot.model().TotalCount());
  // Bit-exact parity between the snapshot's two query paths.
  for (std::int64_t lo = 0; lo < kDomain; lo += 37) {
    const std::int64_t hi = std::min<std::int64_t>(kDomain - 1, lo + 113);
    EXPECT_EQ(compiled->EstimateRange(lo, hi),
              snapshot.model().EstimateRange(lo, hi));
    EXPECT_EQ(snapshot.EstimateRange(lo, hi),
              snapshot.model().EstimateRange(lo, hi));
  }
}

TEST(HistogramEngineTest, CompiledQueriesSeePublishedEpochsLockFree) {
  // Writers publish continuously while readers hammer EstimateRange; every
  // read must be internally consistent (mass within the published range's
  // total) and the epoch sequence observed by a reader must be monotone.
  EngineOptions options = TestOptions();
  options.snapshot_every = 500;
  HistogramEngine engine(options);
  for (const std::int64_t v : ZipfValues(1'000, 24)) engine.Insert(kKey, v);
  engine.RefreshSnapshot(kKey);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread writer([&] {
    for (const std::int64_t v : ZipfValues(30'000, 25)) {
      engine.Insert(kKey, v);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<bool> ok{true};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r) + 100);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EngineSnapshot snap = engine.Snapshot(kKey);
        if (snap.epoch() < last_epoch) ok.store(false);
        last_epoch = snap.epoch();
        if (snap.epoch() > 0 && snap.compiled() == nullptr) {
          ok.store(false);  // every publication must carry its arena
        }
        const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
        const std::int64_t hi =
            std::min<std::int64_t>(kDomain - 1, lo + 200);
        const double est = engine.EstimateRange(kKey, lo, hi);
        if (!(est >= 0.0) || est > snap.TotalCount() + 31'500.0) {
          ok.store(false);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_GT(reads.load(), 0u);
  const EngineSnapshot final_snap = engine.RefreshSnapshot(kKey);
  ASSERT_NE(final_snap.compiled(), nullptr);
  EXPECT_EQ(final_snap.compiled()->TotalCount(),
            final_snap.model().TotalCount());
}

TEST(HistogramEngineTest, KeysEnumeratesSortedRegisteredKeys) {
  HistogramEngine engine(TestOptions());
  EXPECT_TRUE(engine.Keys().empty());
  engine.Insert("zeta", 1);
  engine.Insert("alpha", 2);
  engine.Insert("mid", 3);
  const std::vector<std::string> keys = engine.Keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "mid");
  EXPECT_EQ(keys[2], "zeta");
}

TEST(HistogramEngineTest, PublishExternalServesTheGivenModel) {
  // PublishExternal is the aggregator's entry point: a model produced
  // outside the shard path becomes this key's published snapshot, with
  // the usual epoch bump, compiled arena, and estimate parity.
  HistogramEngine engine(TestOptions());
  const auto model = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.5, 100.0}, {10.5, 40.0, 59.0}});
  const EngineSnapshot published =
      engine.PublishExternal("ext.key", model, /*watermark=*/77);
  EXPECT_EQ(published.epoch(), 1u);
  EXPECT_EQ(published.watermark(), 77u);
  ASSERT_NE(published.compiled(), nullptr);

  const EngineSnapshot read_back = engine.Snapshot("ext.key");
  EXPECT_EQ(read_back.epoch(), 1u);
  EXPECT_EQ(read_back.model().TotalCount(), model.TotalCount());
  // The engine's query paths serve it, bit-identical to the source.
  const CompiledSnapshot direct = CompiledSnapshot::Compile(model);
  for (std::int64_t lo = 0; lo <= 40; lo += 3) {
    EXPECT_EQ(engine.EstimateRange("ext.key", lo, lo + 11),
              direct.EstimateRange(lo, lo + 11));
  }

  // Epochs keep counting across external publications (handle readers
  // resync on the epoch).
  const EngineSnapshot second = engine.PublishExternal(
      "ext.key", HistogramModel::FromSimpleBuckets({{0.0, 5.0, 7.0}}),
      /*watermark=*/78);
  EXPECT_EQ(second.epoch(), 2u);
  EXPECT_EQ(engine.Snapshot("ext.key").watermark(), 78u);
  EXPECT_EQ(engine.EstimateRange("ext.key", 0, 4), 7.0);
}

TEST(HistogramEngineTest, PublishExternalCoexistsWithKeyHandles) {
  // A handle resolved before an external publication must observe it.
  HistogramEngine engine(TestOptions());
  const KeyHandle handle = engine.Resolve("ext.handle");
  EXPECT_EQ(engine.EstimateRange(handle, 0, 100), 0.0);
  engine.PublishExternal(
      "ext.handle",
      HistogramModel::FromSimpleBuckets({{0.0, 50.0, 500.0}}), 1);
  EXPECT_EQ(engine.EstimateRange(handle, 0, 100), 500.0);
}

}  // namespace
}  // namespace dynhist::engine
