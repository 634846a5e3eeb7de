// Micro-benchmark: snapshot-merge (publish) cost vs attribute domain size,
// plus the coalesced-batch ingest win.
//
// Every timed number comes from the shared timing helper (bench_util.h):
// after a warm-up round, rounds in which the arm that has run the least
// takes the next call until each has run for at least 200 ms, printed as
// median [p25, p75] n; ratio gates decide on the median of the per-round
// ratios.
//
// Phase 1 — publish latency. An 8-shard DC fleet absorbs a uniform stream
// over domains 1e4 .. 1e7, then the two merge pipelines run over the same
// shard models:
//   pieces — piece-sweep Superimpose + streaming slice SSBM reduction
//            (SnapshotMerger, the engine's default publish path);
//   cells  — legacy range-scan Superimpose + per-integer-cell SSBM
//            reduction (the paper-literal §8 construction; the test-only
//            reference in tests/merge_reference.h).
// The pieces path must be domain-independent (its latency at the largest
// domain at most 20x that at the smallest) and >= 10x faster than the
// legacy path at domain 1e6, while agreeing with it on total mass (1e-9
// relative) and shape (KS <= 1e-9; DC borders are integer-aligned, where
// cell rasterization is exact). The bench exits nonzero if any of that
// fails, so check.sh catches merge-pipeline regressions.
//
// Phase 2 — ingest throughput of coalescing batches of 64, 256 and 1024
// ops against batch_size 1 (one-by-one replay), single writer, Zipf(1)
// stream (duplicate-heavy). Not gated, and not run with --quick.
//
// Flags: the shared bench flags (--quick, --points=N). --quick times
// domains 1e4 and 1e6 only; the parity checks run untimed at 1e4, 1e5 and
// 1e6 either way.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/histogram/merge.h"
#include "tests/merge_reference.h"

namespace dynhist::bench {
namespace {

using engine::EngineOptions;

constexpr int kShards = 8;
constexpr std::int64_t kShardBuckets = 64;
constexpr std::int64_t kMergedBuckets = 64;

// splitmix64 finalizer (the engine's value-to-shard hash).
std::uint64_t MixValue(std::int64_t value) {
  auto z = static_cast<std::uint64_t>(value) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The engine's shard fleet in miniature: DC histograms (integer-aligned
// borders, so the cell grid can represent the composite exactly) fed a
// uniform stream over [0, domain).
std::vector<HistogramModel> BuildShardModels(std::int64_t domain,
                                             std::int64_t points,
                                             std::uint64_t seed) {
  std::vector<std::unique_ptr<Histogram>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<DynamicCompressedHistogram>(
        DynamicCompressedConfig{.buckets = kShardBuckets, .alpha_min = 1e-6}));
  }
  Rng rng(seed);
  for (std::int64_t i = 0; i < points; ++i) {
    const std::int64_t v = rng.UniformInt(0, domain - 1);
    shards[MixValue(v) % kShards]->Insert(v);
  }
  std::vector<HistogramModel> models;
  models.reserve(shards.size());
  for (const auto& shard : shards) models.push_back(shard->Model());
  return models;
}

double RelativeDiff(double a, double b) {
  return std::fabs(a - b) / (1.0 + std::fabs(b));
}

// Microseconds per call, from each window's calls per second.
std::vector<double> Micros(const std::vector<double>& rates) {
  std::vector<double> micros;
  for (const double rate : rates) micros.push_back(1e6 / rate);
  return micros;
}

}  // namespace
}  // namespace dynhist::bench

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;

  const Options options = Options::FromArgs(argc, argv);
  bool ok = true;

  // ---- Phase 1: publish latency vs domain size -------------------------
  const std::vector<double> domains =
      options.quick ? std::vector<double>{1e4, 1e5, 1e6}
                    : std::vector<double>{1e4, 1e5, 1e6, 1e7};
  const auto timed = [&](double domain) {
    return !options.quick || domain != 1e5;
  };
  // The legacy path materializes one SSBM entry per covered integer cell;
  // past ~1e6 cells that is GBs of merge state, so it runs only up to 1e6
  // (which is where the acceptance criterion sits anyway).
  const double legacy_cap = 1e6;
  const std::int64_t points = options.quick ? 20'000 : 100'000;

  std::printf("# micro_merge_pipeline: %d DC shards x %lld buckets, "
              "%lld points, merged budget %lld; %d rounds of >= %.0f ms "
              "per arm\n",
              kShards, static_cast<long long>(kShardBuckets),
              static_cast<long long>(points),
              static_cast<long long>(kMergedBuckets), kRepeats,
              kWindowSeconds * 1e3);

  // Arms: the pieces path per timed domain, then the cell path per timed
  // domain up to the cap (arm index per domain, -1 when untimed). The
  // parity checks below reduce once more, untimed.
  std::vector<std::vector<HistogramModel>> models;
  for (const double domain : domains) {
    models.push_back(BuildShardModels(static_cast<std::int64_t>(domain),
                                      points, /*seed=*/29));
  }
  std::vector<SnapshotMerger> mergers(domains.size());
  std::vector<Step> arms;
  std::vector<int> pieces_arm(domains.size(), -1);
  std::vector<int> cells_arm(domains.size(), -1);
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (!timed(domains[d])) continue;
    pieces_arm[d] = static_cast<int>(arms.size());
    arms.push_back([&, d](int) {
      mergers[d].MergeAndReduce(models[d], kMergedBuckets);
      return 1.0;
    });
  }
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (!timed(domains[d]) || domains[d] > legacy_cap) continue;
    cells_arm[d] = static_cast<int>(arms.size());
    arms.push_back([&, d](int) {
      testing::ReduceWithSsbmCells(testing::SuperimposeLegacy(models[d]),
                                   kMergedBuckets);
      return 1.0;
    });
  }
  const auto rates = Interleave(arms);
  const auto micros = [&](int arm) {
    return arm < 0 ? std::string("(untimed)")
                   : Describe(Summarize(Micros(rates[arm])), "%.1f");
  };

  std::printf("%-9s %-36s %-36s %-10s %s\n", "domain", "pieces [us]",
              "cells [us]", "mass rel", "KS");
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (domains[d] > legacy_cap) {
      std::printf("%-9.0f %-36s %-36s %-10s %s\n", domains[d],
                  micros(pieces_arm[d]).c_str(), "(skipped)", "-", "-");
      continue;
    }
    SnapshotMerger merger;
    const HistogramModel pieces_reduced =
        merger.MergeAndReduce(models[d], kMergedBuckets);
    const HistogramModel cells_reduced = testing::ReduceWithSsbmCells(
        testing::SuperimposeLegacy(models[d]), kMergedBuckets);
    const double mass_rel = RelativeDiff(pieces_reduced.TotalCount(),
                                         cells_reduced.TotalCount());
    const double ks = KsBetweenModels(pieces_reduced, cells_reduced);
    std::printf("%-9.0f %-36s %-36s %-10.2e %.2e\n", domains[d],
                micros(pieces_arm[d]).c_str(), micros(cells_arm[d]).c_str(),
                mass_rel, ks);
    if (mass_rel > 1e-9) {
      std::printf("FAIL: mass parity %.3e > 1e-9 at domain %.0f\n",
                  mass_rel, domains[d]);
      ok = false;
    }
    if (ks > 1e-9) {
      std::printf("FAIL: KS parity %.3e > 1e-9 at domain %.0f\n", ks,
                  domains[d]);
      ok = false;
    }
  }
  // Speedup at 1e6: pieces calls per cell-path call, per round.
  for (std::size_t d = 0; d < domains.size(); ++d) {
    if (domains[d] != 1e6) continue;
    const Summary speedup =
        Summarize(Ratios(rates[pieces_arm[d]], rates[cells_arm[d]]));
    ok &= Gate(speedup.median >= 10.0, "publish speedup at domain 1e6 >= 10x",
               speedup);
  }
  // Domain independence: the pieces path may not grow with the domain the
  // way the cell path does; allow generous noise.
  const Summary growth = Summarize(
      Ratios(rates[pieces_arm.front()], rates[pieces_arm.back()]));
  ok &= Gate(growth.median <= 20.0,
             "pieces publish growth, largest/smallest domain <= 20x", growth);

  // ---- Phase 2: coalesced-batch ingest --------------------------------
  if (!options.quick) {
    std::vector<std::int64_t> values;
    Rng rng(31);
    const ZipfDistribution zipf(5'001, 1.0);
    values.reserve(static_cast<std::size_t>(points));
    for (std::int64_t i = 0; i < points; ++i) {
      values.push_back(static_cast<std::int64_t>(zipf.Sample(rng)));
    }
    // The last arm, batch 1, replays ops one by one: the reference each
    // coalescing batch size is compared with.
    const std::vector<int> batch_sizes = {64, 256, 1024, 1};
    std::vector<EngineOptions> configs;
    for (const int batch : batch_sizes) {
      EngineOptions engine_options;
      engine_options.shards = kShards;
      engine_options.batch_size = batch;
      engine_options.snapshot_every = 0;  // isolate ingest
      configs.push_back(engine_options);
    }
    std::vector<Step> ingest_arms;
    for (const EngineOptions& config : configs) {
      ingest_arms.push_back(
          [&](int) { return IngestPass(config, values, 1); });
    }
    const auto ingest = Interleave(ingest_arms);
    const std::vector<double>& one_by_one = ingest.back();
    std::printf("\n%-6s %-38s %-38s %s\n", "batch", "coalesced up/s",
                "batch 1 up/s", "speedup");
    for (std::size_t b = 0; b + 1 < batch_sizes.size(); ++b) {
      std::printf("%-6d %-38s %-38s %s\n", batch_sizes[b],
                  Describe(Summarize(ingest[b]), "%.0f").c_str(),
                  Describe(Summarize(one_by_one), "%.0f").c_str(),
                  Describe(Summarize(Ratios(ingest[b], one_by_one))).c_str());
    }
  }

  std::printf(ok ? "micro_merge_pipeline: PASS\n"
                 : "micro_merge_pipeline: FAIL\n");
  return ok ? 0 : 1;
}
