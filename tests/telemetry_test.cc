// Unit tests of the telemetry subsystem in isolation: log-bucket
// boundary math (both schemes), histogram record/merge/percentiles,
// trace-ring wraparound and overflow accounting, and the Prometheus
// exposition writer plus its self-check (including negative cases — the
// self-check must actually reject broken output, or the check.sh gate it
// backs is vacuous).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/telemetry/exposition.h"
#include "src/telemetry/log_histogram.h"
#include "src/telemetry/trace_ring.h"

namespace dynhist::telemetry {
namespace {

TEST(LogBucketerTest, PowersOfTwoBoundaryMath) {
  const LogBucketer b = LogBucketer::PowersOfTwo();
  EXPECT_EQ(b.bucket_count(), 65u);
  EXPECT_EQ(b.BucketFor(0), 0u);
  EXPECT_EQ(b.BucketFor(1), 1u);
  EXPECT_EQ(b.BucketFor(2), 2u);
  EXPECT_EQ(b.BucketFor(3), 2u);
  EXPECT_EQ(b.BucketFor(4), 3u);
  for (int k = 1; k < 63; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(b.BucketFor(pow - 1), static_cast<std::size_t>(k));
    EXPECT_EQ(b.BucketFor(pow), static_cast<std::size_t>(k + 1));
  }
  EXPECT_EQ(b.BucketFor(~std::uint64_t{0}), 64u);
}

TEST(LogBucketerTest, PerDecadeBoundaryMath) {
  const LogBucketer b = LogBucketer::PerDecade(4);
  // round(10^(j/4)) with small-end duplicates removed.
  const std::vector<std::uint64_t> expected_prefix = {
      1, 2, 3, 6, 10, 18, 32, 56, 100, 178, 316, 562, 1000};
  ASSERT_GE(b.bounds().size(), expected_prefix.size());
  for (std::size_t i = 0; i < expected_prefix.size(); ++i) {
    EXPECT_EQ(b.bounds()[i], expected_prefix[i]) << "bound " << i;
  }
  for (std::size_t i = 1; i < b.bounds().size(); ++i) {
    EXPECT_LT(b.bounds()[i - 1], b.bounds()[i]);
  }
}

TEST(LogBucketerTest, BucketContainsItsValues) {
  for (const LogBucketer& b :
       {LogBucketer::PowersOfTwo(), LogBucketer::PerDecade(4),
        LogBucketer::PerDecade(1)}) {
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
          std::uint64_t{99}, std::uint64_t{100}, std::uint64_t{101},
          std::uint64_t{123456789}, ~std::uint64_t{0}}) {
      const std::size_t i = b.BucketFor(v);
      ASSERT_LT(i, b.bucket_count());
      EXPECT_GE(v, b.LowerBound(i));
      EXPECT_LT(static_cast<double>(v), b.UpperBound(i));
    }
  }
}

TEST(LogHistogramTest, RecordAndSnapshot) {
  LogHistogram h(LogBucketer::PerDecade(4));
  h.Record(7, 100);
  const LogHistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 700u);
  EXPECT_EQ(s.counts[s.bucketer.BucketFor(7)], 100u);
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(64).capacity(), 64u);
  TraceRing disabled(0);
  EXPECT_FALSE(disabled.enabled());
  disabled.Record({TraceEventKind::kPublish, "k", "sync", 1, 0, 0, 0});
  EXPECT_EQ(disabled.recorded(), 0u);
  EXPECT_TRUE(disabled.Events().empty());
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.Record({TraceEventKind::kPublish, "k", "sync", i, i * 100, 10, 0});
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, 6u + i);  // oldest survivor first
  }
}

TEST(TraceRingTest, DumpChromeTracingShape) {
  TraceRing ring(8);
  ring.Record({TraceEventKind::kMerge, "orders\"amount", "refresh", 3,
               1500, 250, 0});
  std::string json;
  ring.DumpChromeTracing(&json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"refresh\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  // The quote in the key name must be escaped.
  EXPECT_NE(json.find("orders\\\"amount"), std::string::npos);

  std::string empty;
  TraceRing(0).DumpChromeTracing(&empty);
  EXPECT_NE(empty.find("\"traceEvents\":[]"), std::string::npos);
}

MetricsSnapshot MakeExpositionFixture() {
  MetricsSnapshot snapshot;
  snapshot.samples.push_back(
      {"fixture_ops_total", "ops", MetricKind::kCounter,
       {{"key", "or\"der\\s\n"}}, 12});
  snapshot.samples.push_back(
      {"fixture_depth", "depth", MetricKind::kGauge, {}, 2.5});
  LogHistogram h(LogBucketer::PerDecade(4));
  h.Record(4, 2);
  h.Record(40);
  snapshot.histograms.push_back(
      {"fixture_latency_ns", "latency", {}, h.Snapshot()});
  return snapshot;
}

TEST(ExpositionTest, PrometheusOutputPassesSelfCheck) {
  std::string text;
  WritePrometheus(MakeExpositionFixture(), &text);
  std::string error;
  EXPECT_TRUE(SelfCheckPrometheus(text, &error)) << error;
  EXPECT_NE(text.find("# TYPE fixture_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fixture_latency_ns histogram"),
            std::string::npos);
  // Label escaping: backslash, quote, and newline are escaped in-place.
  EXPECT_NE(text.find("key=\"or\\\"der\\\\s\\n\""), std::string::npos);
  // Cumulative buckets close with +Inf == _count.
  EXPECT_NE(text.find("fixture_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fixture_latency_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("fixture_latency_ns_sum 48"), std::string::npos);
}

TEST(ExpositionTest, SelfCheckRejectsBrokenOutput) {
  std::string error;
  // A sample with no TYPE header for its family.
  EXPECT_FALSE(SelfCheckPrometheus("orphan_metric 1\n", &error));
  EXPECT_FALSE(error.empty());

  // Cumulative bucket counts that decrease.
  EXPECT_FALSE(SelfCheckPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 9\n"
      "h_count 5\n",
      &error));

  // Missing the closing +Inf bucket.
  EXPECT_FALSE(SelfCheckPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_sum 5\n"
      "h_count 5\n",
      &error));

  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(SelfCheckPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 4\n"
      "h_sum 5\n"
      "h_count 5\n",
      &error));

  // And a well-formed minimal document is accepted.
  EXPECT_TRUE(SelfCheckPrometheus(
      "# TYPE ok_total counter\n"
      "ok_total 1\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 0\n"
      "h_sum 0\n"
      "h_count 0\n",
      &error))
      << error;
}

}  // namespace
}  // namespace dynhist::telemetry
