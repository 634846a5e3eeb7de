// Ablation (§5): SSBM design choices.
// Compares, on the Fig. 10 static setting, four SSBM variants against the
// exact optimum:
//   merged-rho key (the paper's rule)  vs  delta-rho key,
//   squared deviations                 vs  absolute deviations,
// with SVO as the quality reference.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;
  const Options options = Options::FromArgs(argc, argv);
  const std::vector<std::string> series = {
      "mergedRho", "deltaRho", "absPolicy", "SVO"};
  const double memory = Kb(0.14);
  RunSweep(
      "Ablation — SSBM merge key / deviation policy (KS vs Z, Fig. 10 "
      "setting)",
      "Z", {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}, series, options.seeds,
      [&](double x, std::uint64_t seed) {
        ClusterDataConfig config;
        config.num_points = options.points;
        config.size_skew_z = x;
        config.stddev_sd = 1.0;
        config.num_clusters = 50;
        config.seed = seed * 7919 + 22;
        const FrequencyVector truth(config.domain_size,
                                    GenerateClusterData(config));
        const std::int64_t buckets =
            BucketBudget(memory, BucketLayout::kBorderCount);

        SsbmOptions merged;
        SsbmOptions delta;
        delta.merge_key = SsbmOptions::MergeKey::kDeviationIncrease;
        SsbmOptions abs_policy;
        abs_policy.policy = DeviationPolicy::kAbsolute;
        return std::vector<double>{
            KsStatistic(truth, BuildSsbm(truth, buckets, merged)),
            KsStatistic(truth, BuildSsbm(truth, buckets, delta)),
            KsStatistic(truth, BuildSsbm(truth, buckets, abs_policy)),
            KsStatistic(truth, BuildVOptimal(truth, buckets))};
      });
  return 0;
}
