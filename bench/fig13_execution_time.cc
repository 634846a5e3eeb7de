// Fig. 13: typical execution times vs memory.
// Fixed: S = 1, Z = 1, SD = 1, C = 200. X axis: memory 0.1 .. 0.5 KB.
// Series: SVO construction, SSBM construction (paper-style quadratic scan,
// and the default: batched rounds of forced merges with a tournament-tree
// tail), SC construction, DADO full-stream maintenance.
//
// Substitution note (DESIGN.md §4): the paper's SVO search is exponential
// and took ~70-80 s; our exact DP is polynomial, so absolute times are far
// smaller. The *ordering* the figure demonstrates is preserved: SVO is by
// far the most expensive constructor, SSBM is orders of magnitude cheaper
// at near-equal quality, and SC/DADO are cheapest.

#include <chrono>

#include "bench/bench_util.h"

namespace {

double Seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;
  const Options options = Options::FromArgs(argc, argv);
  const std::vector<std::string> series = {"SVO", "SSBM-quad", "SSBM-rounds",
                                           "SC", "DADO"};
  RunSweep(
      "Fig. 13 — execution time [s] vs memory [KB] (C = 200)", "Memory[KB]",
      {0.1, 0.2, 0.3, 0.4, 0.5}, series, options.seeds,
      [&](double x, std::uint64_t seed) {
        ClusterDataConfig config;
        config.num_points = options.points;
        config.center_skew_s = 1.0;
        config.size_skew_z = 1.0;
        config.stddev_sd = 1.0;
        config.num_clusters = 200;
        config.seed = seed * 7919 + 9;
        Rng rng(seed * 104'729 + 37);
        auto values = GenerateClusterData(config);
        const FrequencyVector truth(config.domain_size, values);
        const auto stream = MakeRandomInsertStream(std::move(values), rng);
        const auto entries = truth.NonZeroEntries();
        const std::int64_t buckets =
            BucketBudget(Kb(x), BucketLayout::kBorderCount);

        std::vector<double> row;
        row.push_back(Seconds([&] {
          const auto model = BuildVOptimal(entries, buckets);
          (void)model.TotalCount();
        }));
        row.push_back(Seconds([&] {
          SsbmOptions quad;
          quad.use_quadratic_scan = true;
          const auto model = BuildSsbm(entries, buckets, quad);
          (void)model.TotalCount();
        }));
        row.push_back(Seconds([&] {
          const auto model = BuildSsbm(entries, buckets);
          (void)model.TotalCount();
        }));
        row.push_back(Seconds([&] {
          const auto model = BuildCompressed(entries, buckets);
          (void)model.TotalCount();
        }));
        row.push_back(Seconds([&] {
          auto dado = MakeDynamic("DADO", Kb(x), seed);
          FrequencyVector t(config.domain_size);
          Replay(stream, dado.get(), &t);
          (void)dado->Model().TotalCount();
        }));
        return row;
      });
  return 0;
}
