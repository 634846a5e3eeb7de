// Self-tuning histograms: learn a key's distribution from query
// feedback alone, without ever scanning the data.
//
// The scenario: the optimizer estimates a predicate's cardinality from
// the published snapshot, the executor runs the query and observes the
// real count, and the session reports that observation back via
// HistogramEngine::RecordFeedback. The ST-FEEDBACK backend folds each
// damped error into the overlapping buckets and periodically splits the
// runaway ones (funded by merging near-equal neighbors), so the key
// converges toward the true distribution purely from its query traffic.
//
// Demonstrates:
//   1. an engine whose keys all use the ST-FEEDBACK backend,
//   2. the estimate -> execute -> RecordFeedback loop,
//   3. watching the mean absolute error fall as the key self-tunes,
//   4. the feedback telemetry (counters + error histogram) on the side.

#include <cmath>
#include <cstdio>

#include "src/dynhist.h"

int main() {
  using namespace dynhist;

  // A skewed "relation" the engine never sees directly: zipf over
  // [0, 5000) — only query answers reveal it.
  constexpr std::int64_t kDomain = 5'000;
  Rng rng(42);
  const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 1.0);
  FrequencyVector relation(kDomain);
  for (int i = 0; i < 200'000; ++i) {
    relation.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }

  engine::EngineOptions options;
  options.shards = 4;
  options.snapshot_every = 512;  // republish as training accumulates
  // Every key of this engine is fed by query feedback; data-driven keys
  // belong in an engine of their own with a DC/DVO/DADO kind.
  options.kind = engine::ShardHistogramKind::kStFeedback;
  options.st_feedback.domain_lo = 0;
  options.st_feedback.domain_hi = kDomain - 1;
  engine::HistogramEngine engine(options);

  // The session resolves the key once and queries through the handle.
  const engine::KeyHandle handle = engine.Resolve("orders.amount");

  // The optimizer session: skewed range predicates, each answered by
  // the executor (here: the hidden FrequencyVector), each observation
  // training the key a little more.
  Rng query_rng(7);
  for (int batch = 0; batch < 5; ++batch) {
    double abs_error_sum = 0.0;
    for (int q = 0; q < 800; ++q) {
      const auto center = static_cast<std::int64_t>(zipf.Sample(query_rng));
      const std::int64_t width = query_rng.UniformInt(1, 200);
      const std::int64_t lo = std::max<std::int64_t>(0, center - width / 2);
      const std::int64_t hi = std::min<std::int64_t>(kDomain - 1, lo + width);
      // Estimate (what the planner would use), then observe the truth.
      const double estimate = engine.EstimateRange(handle, lo, hi);
      const auto actual = static_cast<double>(relation.RangeCount(lo, hi));
      engine.RecordFeedback(handle, lo, hi, actual);
      abs_error_sum += std::fabs(estimate - actual);
    }
    engine.RefreshSnapshot("orders.amount");
    std::printf("after %4llu observations: mean |estimate - actual| = %8.1f\n",
                static_cast<unsigned long long>((batch + 1) * 800),
                abs_error_sum / 800.0);
  }

  // The trained model answers like a data-built histogram would.
  std::printf("\ntrained estimates vs truth:\n");
  for (const auto& [lo, hi] : {std::pair<std::int64_t, std::int64_t>{0, 9},
                               {10, 99},
                               {100, 999},
                               {1'000, 4'999}}) {
    std::printf("  count(%4lld <= A <= %4lld)  estimate %9.0f   truth %9lld\n",
                static_cast<long long>(lo), static_cast<long long>(hi),
                engine.EstimateRange("orders.amount", lo, hi),
                static_cast<long long>(relation.RangeCount(lo, hi)));
  }

  // Feedback is first-class in the engine's telemetry.
  const engine::EngineStats stats = engine.Stats("orders.amount");
  std::printf("\nfeedbacks accepted: %llu (engine-wide %llu)\n",
              static_cast<unsigned long long>(stats.feedbacks),
              static_cast<unsigned long long>(engine.Stats().feedbacks));
  return 0;
}
