// Tests of the engine's telemetry integration: per-key stats that sum to
// the global aggregate under concurrent writers and merge workers,
// queue-wait accounting, staleness gauges, per-key exposition series,
// trace events for the publish lifecycle, and the telemetry-disabled
// mode (stats still counted, distributions and traces off).

#include "src/engine/histogram_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/engine_options.h"
#include "src/telemetry/exposition.h"
#include "src/telemetry/trace_ring.h"
#include "tests/test_util.h"

namespace dynhist::engine {
namespace {

// Deterministic manual-pump baseline: nothing publishes or drains unless
// the test says so.
EngineOptions ManualOptions() {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 4;
  options.snapshot_every = 0;
  options.merge_workers = 0;
  return options;
}

// The value of the exposition line starting `name` + ' ' (no labels), or
// -1 when the series is absent.
double MetricValue(const std::string& text, const std::string& name) {
  const std::string prefix = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stod(text.substr(pos + prefix.size()));
    }
    pos += prefix.size();
  }
  return -1.0;
}

// The sum of every labeled series of `family` in the exposition.
double SumSeries(const std::string& text, const std::string& family) {
  const std::string prefix = family + "{";
  double sum = 0.0;
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      sum += std::stod(text.substr(text.find(' ', pos) + 1));
    }
    pos += prefix.size();
  }
  return sum;
}

std::string Prometheus(const HistogramEngine& engine) {
  std::string text;
  engine.WriteMetricsPrometheus(&text);
  std::string error;
  EXPECT_TRUE(telemetry::SelfCheckPrometheus(text, &error)) << error;
  return text;
}

TEST(EngineTelemetryTest, PerKeyStatsSumToGlobalUnderConcurrency) {
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 8;
  options.snapshot_every = 256;
  options.async_publish = true;
  options.merge_workers = 2;
  HistogramEngine engine(options);

  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 20'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const char* key = (i & 1) != 0 ? "hot" : "cold";
        const auto v = static_cast<std::int64_t>(rng.UniformInt(0, 999));
        engine.Insert(key, v);
        if (i % 4 == 0) engine.Delete(key, v);  // delete what we inserted
        if (i % 64 == 0) engine.Snapshot(key);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  engine.DrainPublishes();

  const EngineStats hot = engine.Stats("hot");
  const EngineStats cold = engine.Stats("cold");
  const EngineStats global = engine.Stats();
  EXPECT_EQ(global.keys, 2u);
  EXPECT_EQ(global.inserts, hot.inserts + cold.inserts);
  EXPECT_EQ(global.inserts,
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(global.deletes, hot.deletes + cold.deletes);
  EXPECT_EQ(global.queries, hot.queries + cold.queries);
  EXPECT_EQ(global.publishes, hot.publishes + cold.publishes);
  EXPECT_EQ(global.async_publishes,
            hot.async_publishes + cold.async_publishes);
  EXPECT_EQ(global.publish_queued,
            hot.publish_queued + cold.publish_queued);
  EXPECT_EQ(global.publish_coalesced,
            hot.publish_coalesced + cold.publish_coalesced);
  EXPECT_EQ(global.publish_rejected,
            hot.publish_rejected + cold.publish_rejected);
  EXPECT_EQ(global.publish_skipped,
            hot.publish_skipped + cold.publish_skipped);
  EXPECT_EQ(global.publish_nanos, hot.publish_nanos + cold.publish_nanos);
  EXPECT_EQ(global.queue_wait_nanos,
            hot.queue_wait_nanos + cold.queue_wait_nanos);
  EXPECT_EQ(global.max_publish_nanos,
            std::max(hot.max_publish_nanos, cold.max_publish_nanos));
  // Every publication advances its key's epoch by exactly 1, so at
  // quiescence the epoch sum equals the publish count.
  EXPECT_EQ(global.snapshot_epoch, hot.snapshot_epoch + cold.snapshot_epoch);
  EXPECT_EQ(global.snapshot_epoch, global.publishes);
  EXPECT_GT(global.publishes, 0u);
}

TEST(EngineTelemetryTest, ScrapeTotalsEqualPerKeySumsUnderConcurrency) {
  // Within one scrape the per-key series add up to the engine-wide
  // totals while writers and a merge worker run: the scrape loads each
  // counter once and feeds both from that load.
  EngineOptions options;
  options.shards = 2;
  options.batch_size = 8;
  options.snapshot_every = 64;
  options.async_publish = true;
  options.merge_workers = 1;
  HistogramEngine engine(options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&engine, &stop, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      const char* keys[] = {"a", "b", "c"};
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        engine.Insert(keys[i % 3],
                      static_cast<std::int64_t>(rng.UniformInt(0, 999)));
      }
    });
  }
  while (engine.Stats().publishes == 0) std::this_thread::yield();
  for (int scrape = 0; scrape < 200; ++scrape) {
    const std::string text = Prometheus(engine);
    EXPECT_EQ(SumSeries(text, "dynhist_key_inserts_total"),
              MetricValue(text, "dynhist_engine_inserts_total"));
    EXPECT_EQ(SumSeries(text, "dynhist_key_publishes_total"),
              MetricValue(text, "dynhist_engine_publishes_total"));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
}

TEST(EngineTelemetryTest, QueueWaitIsAccountedOnDrain) {
  EngineOptions options = ManualOptions();
  options.snapshot_every = 16;
  options.async_publish = true;
  HistogramEngine engine(options);

  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  EXPECT_EQ(engine.Stats("k").publish_queued, 1u);
  EXPECT_EQ(engine.PublishQueueDepth(), 1u);
  // Nothing has drained the request yet: no wait recorded.
  EXPECT_EQ(MetricValue(Prometheus(engine),
                        "dynhist_publish_queue_wait_ns_count"),
            0.0);

  EXPECT_EQ(engine.PumpPublishes(), 1u);
  const EngineStats stats = engine.Stats("k");
  EXPECT_EQ(stats.async_publishes, 1u);
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_queue_wait_ns_count"), 1.0);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_latency_ns_count"), 1.0);
}

TEST(EngineTelemetryTest, ExpositionExposesPerKeySeriesAndStaleness) {
  HistogramEngine engine(ManualOptions());
  for (int i = 0; i < 10; ++i) engine.Insert("orders.amount", i);
  engine.Snapshot("no.such.key");  // counted globally, not per-key

  std::string text = Prometheus(engine);
  EXPECT_NE(
      text.find("dynhist_key_inserts_total{key=\"orders.amount\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_staleness_updates{key=\"orders.amount\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_epoch{key=\"orders.amount\"} 0"),
      std::string::npos);
  EXPECT_EQ(MetricValue(text, "dynhist_engine_queries_total"), 1.0);
  EXPECT_EQ(engine.Stats("no.such.key").keys, 0u);

  engine.RefreshSnapshot("orders.amount");
  text = Prometheus(engine);
  EXPECT_NE(
      text.find("dynhist_key_snapshot_epoch{key=\"orders.amount\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("dynhist_key_staleness_updates{key=\"orders.amount\"} 0"),
      std::string::npos);

  const EngineStats stats = engine.Stats("orders.amount");
  EXPECT_EQ(stats.inserts, 10u);
  EXPECT_EQ(stats.snapshot_epoch, 1u);
}

// Pins the whole exposition of a deterministic scenario that reaches
// every engine series: async cadence trips (queued, coalesced, drained,
// skipped), sync refreshes, a key given good and rejected feedback,
// out-of-domain values, string/handle/batch/leased reads, unknown-key
// reads, and a resolved key that never publishes. The digest covers
// every family, HELP, TYPE, label set and value; change it only with a
// deliberate change to the exposition.
TEST(EngineTelemetryTest, ExpositionIsPinnedForADeterministicScenario) {
  EngineOptions options = ManualOptions();
  options.snapshot_every = 16;
  options.async_publish = true;
  HistogramEngine engine(options);

  for (int i = 0; i < 20; ++i) engine.Insert("orders.amount", i % 25);
  EXPECT_EQ(engine.PumpPublishes(), 1u);  // the trip at update 16
  for (int i = 0; i < 30; ++i) engine.Insert("orders.amount", i % 25);
  for (int i = 0; i < 10; ++i) engine.Delete("orders.amount", i);
  engine.InsertBatch("orders.amount", {3, 4, kMaxValue + 1, 5, kMinValue - 1});
  engine.Insert("orders.amount", kMaxValue + 1);
  const KeyHandle feedback = engine.Resolve("feedback.col");
  engine.RecordFeedback(feedback, 0, 99, 50.0);
  engine.RecordFeedback(feedback, 10, 5, 1.0);  // lo > hi
  engine.RecordFeedback(feedback, 0, 9, -1.0);  // negative actual
  engine.RefreshSnapshot("orders.amount");
  EXPECT_EQ(engine.PumpPublishes(), 1u);  // elided: the refresh covered it
  engine.RefreshSnapshot("feedback.col");

  const KeyHandle handle = engine.Resolve("orders.amount");
  const KeyHandle never = engine.Resolve("never.published");
  engine.EstimateRange("orders.amount", 0, 10);
  engine.EstimateRange("orders.amount", 3, 3);
  engine.EstimateRange(handle, 5, 20);
  const RangeQuery batch[] = {{0, 4}, {5, 9}, {10, 24}};
  double answers[3];
  engine.EstimateRangeBatch(handle, batch, 3, answers);
  engine.LeasedSnapshot(handle);
  engine.EstimateRange(never, 0, 1);
  engine.EstimateRange("no.such.key", 0, 1);
  engine.Snapshot("no.such.key");

  const std::string normalized =
      testing::NormalizedExposition(Prometheus(engine));
  for (const char* line : {
           "dynhist_engine_keys 3\n",
           "dynhist_engine_publishes_total 3\n",
           "dynhist_engine_unknown_queries_total 3\n",
           "dynhist_key_inserts_total{key=\"orders.amount\"} 53\n",
           "dynhist_key_publish_skipped_total{key=\"orders.amount\"} 1\n",
           "dynhist_key_publish_coalesced_total{key=\"orders.amount\"} 1\n",
           "dynhist_key_rejected_ops_total{key=\"orders.amount\","
           "reason=\"domain\"} 3\n",
           "dynhist_key_rejected_ops_total{key=\"feedback.col\","
           "reason=\"feedback\"} 2\n",
           "dynhist_key_snapshot_epoch{key=\"never.published\"} 0\n",
           "dynhist_key_staleness_seconds{key=\"never.published\"} *\n",
       }) {
    EXPECT_NE(normalized.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(testing::TextDigest(normalized), 0x1a32b71a1bdfd4d3ull)
      << normalized;
}

TEST(EngineTelemetryTest, IngestDistributionsRecordAtBatchGranularity) {
  HistogramEngine engine(ManualOptions());
  // Eight copies of one value in a 4-op-batch engine: at least one drain
  // records a batch size, and coalescing collapses a run of >= 2.
  engine.InsertBatch("k", {5, 5, 5, 5, 5, 5, 5, 5});
  engine.FlushAll();
  const std::string text = Prometheus(engine);
  EXPECT_GT(MetricValue(text, "dynhist_ingest_batch_ops_count"), 0.0);
  EXPECT_GT(MetricValue(text, "dynhist_coalesce_run_length_count"), 0.0);
}

TEST(EngineTelemetryTest, TraceRecordsPublishLifecycleAndRejects) {
  HistogramEngine engine(ManualOptions());
  ASSERT_TRUE(engine.trace().enabled());
  for (int i = 0; i < 8; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");

  const std::vector<telemetry::TraceEvent> events = engine.trace().Events();
  ASSERT_EQ(events.size(), 3u);  // flush, merge, publish of epoch 1
  EXPECT_EQ(events[0].kind, telemetry::TraceEventKind::kFlush);
  EXPECT_EQ(events[1].kind, telemetry::TraceEventKind::kMerge);
  EXPECT_EQ(events[2].kind, telemetry::TraceEventKind::kPublish);
  for (const telemetry::TraceEvent& e : events) {
    EXPECT_STREQ(e.key, "k");
    EXPECT_STREQ(e.trigger, "refresh");
    EXPECT_EQ(e.epoch, 1u);
  }
  std::string trace_json;
  engine.WriteTraceJson(&trace_json);
  EXPECT_NE(trace_json.find("\"trigger\":\"refresh\""), std::string::npos);

  // A stopped engine refuses every async request and traces the refusal.
  EngineOptions reject_options = ManualOptions();
  reject_options.snapshot_every = 4;
  reject_options.async_publish = true;
  HistogramEngine rejecting(reject_options);
  rejecting.StopPublishWorkers();
  for (int i = 0; i < 4; ++i) rejecting.Insert("k", i);
  EXPECT_EQ(rejecting.Stats("k").publish_rejected, 1u);
  const auto rejected_events = rejecting.trace().Events();
  ASSERT_FALSE(rejected_events.empty());
  EXPECT_EQ(rejected_events.back().kind,
            telemetry::TraceEventKind::kReject);
}

TEST(EngineTelemetryTest, DisabledTelemetryStillCountsStats) {
  EngineOptions options = ManualOptions();
  options.snapshot_every = 16;
  options.async_publish = true;
  options.enable_telemetry = false;
  HistogramEngine engine(options);
  EXPECT_FALSE(engine.trace().enabled());

  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  engine.PumpPublishes();
  const EngineStats stats = engine.Stats("k");
  EXPECT_EQ(stats.inserts, 16u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_GT(stats.publish_nanos, 0u);     // always accounted
  EXPECT_EQ(stats.queue_wait_nanos, 0u);  // needs telemetry

  // Exposition still renders (and validates); distributions stay empty.
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_publish_latency_ns_count"), 0.0);
  EXPECT_EQ(MetricValue(text, "dynhist_ingest_batch_ops_count"), 0.0);
  EXPECT_EQ(MetricValue(text, "dynhist_engine_inserts_total"), 16.0);
  std::string trace_json;
  engine.WriteTraceJson(&trace_json);
  EXPECT_NE(trace_json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(EngineTelemetryTest, QueryLatencyIsSampledEveryKth) {
  // Estimate reads sample the latency distribution every 1024th query per
  // key, first query included: N queries => floor((N - 1) / 1024) + 1
  // samples. Deterministic because nothing else feeds the histogram.
  EngineOptions options = ManualOptions();
  HistogramEngine engine(options);
  for (int i = 0; i < 32; ++i) engine.Insert("k", i % 8);
  engine.RefreshSnapshot("k");  // Snapshot reads don't sample; queries do

  const int kQueries = 3 * 1024 + 5;
  for (int q = 0; q < kQueries; ++q) engine.EstimateRange("k", 0, 7);
  const std::string text = Prometheus(engine);
  // RefreshSnapshot didn't bump the query counter, so sampled reads are
  // those at query numbers 0, 1024, 2048, 3072.
  EXPECT_EQ(MetricValue(text, "dynhist_query_latency_ns_count"), 4.0);
  EXPECT_GT(MetricValue(text, "dynhist_query_latency_ns_sum"), 0.0);
}

TEST(EngineTelemetryTest, DisabledTelemetrySkipsQueryLatencySampling) {
  EngineOptions options = ManualOptions();
  options.enable_telemetry = false;
  HistogramEngine engine(options);
  for (int i = 0; i < 16; ++i) engine.Insert("k", i);
  engine.RefreshSnapshot("k");
  for (int q = 0; q < 2000; ++q) engine.EstimateRange("k", 0, 15);
  const std::string text = Prometheus(engine);
  EXPECT_EQ(MetricValue(text, "dynhist_query_latency_ns_count"), 0.0);
  EXPECT_EQ(engine.Stats("k").queries, 2000u);
}

}  // namespace
}  // namespace dynhist::engine
