// Per-update cost micro-benchmark.
//
// Backs the cost analysis of §3.1 / §4.4: a DC insert that does not
// repartition pays O(log n) (a binary search plus O(1) chi-square
// bookkeeping), and so do DVO/DADO (a bucket search, the rho of the
// changed bucket and its two pairs, and a tournament-tree repair that
// keeps Theorem 4.1's split and merge candidates on top; only an executed
// repartition pays O(n), to shift the bucket vectors). DC's arm mostly
// times repartitions: on this bench's input (points 0-200k in cluster
// order, then cycling over 50k-200k) DC at 1 KiB repartitioned on 64, 7,
// 49, 28, 53, 64, 69, 99, 98 and 100% of the inserts in successive
// 100k-insert blocks. AC's cost is dominated by its backing-sample
// maintenance. Also measures DADO insert cost against memory, DADO
// deletion, Model() export and the KS statistic; Fig. 13 times the static
// constructions.
//
// Every arm is timed by bench_util.h's Interleave and printed in ns per
// operation as median [p25, p75] n over the rounds. There are no gates.
// An insert arm's relation grows for as long as the arm runs (about 4 s
// over the 20 rounds), so AC, whose backing sample changes on about
// capacity / N of the inserts, reads cheaper the longer it runs.
// Flags: the shared bench flags, which change nothing here (~40 s).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace dynhist;
using namespace dynhist::bench;

constexpr std::int64_t kDomain = 5'001;
// Points inserted before an insert arm's first timed step.
constexpr std::size_t kWarm = 50'000;
// Points loaded before the delete and export arms run.
constexpr std::size_t kLoaded = 100'000;
// Operations per timed step of the update arms.
constexpr std::size_t kStep = 1'000;

// Nanoseconds per operation, from each round's operations per second.
std::vector<double> Nanos(const std::vector<double>& rates) {
  std::vector<double> nanos;
  for (const double rate : rates) nanos.push_back(1e9 / rate);
  return nanos;
}

}  // namespace

int main(int argc, char** argv) {
  Options::FromArgs(argc, argv);
  ClusterDataConfig data_config;
  data_config.num_points = 200'000;
  data_config.seed = 42;
  const std::vector<std::int64_t> values = GenerateClusterData(data_config);

  std::vector<std::string> names;
  std::vector<Step> arms;
  std::vector<std::unique_ptr<Histogram>> histograms;  // the arms' state
  double sink = 0.0;  // defeats dead-code elimination of exports and KS

  // An insert arm pre-warms its histogram with kWarm points, then inserts
  // the rest of the stream in steady state, wrapping back to point kWarm.
  const auto add_insert_arm = [&](const std::string& algo,
                                  double memory_bytes) {
    auto h = MakeDynamic(algo, memory_bytes, 1);
    for (std::size_t i = 0; i < kWarm; ++i) h->Insert(values[i]);
    arms.push_back([h = h.get(), &values, next = kWarm](int) mutable {
      for (std::size_t k = 0; k < kStep; ++k) {
        h->Insert(values[next]);
        if (++next == values.size()) next = kWarm;
      }
      return static_cast<double>(kStep);
    });
    histograms.push_back(std::move(h));
    names.push_back("insert " + algo + " " +
                    std::to_string(static_cast<int>(memory_bytes)) + " B");
  };
  for (const char* algo : {"DC", "DADO", "DVO", "AC", "Birch"}) {
    add_insert_arm(algo, Kb(1.0));
  }
  // DADO against the bucket budget: the O(log n) tree repair, plus the
  // O(n) vector shift of each executed repartition.
  add_insert_arm("DADO", 256.0);
  add_insert_arm("DADO", Kb(4.0));

  // DADO deletes: each operation pair deletes a live copy of a loaded
  // value and inserts it back, so the histogram stays populated.
  FrequencyVector truth(kDomain);
  {
    auto h = MakeDynamic("DADO", Kb(1.0), 1);
    for (std::size_t i = 0; i < kLoaded; ++i) {
      h->Insert(values[i]);
      truth.Insert(values[i]);
    }
    arms.push_back([h = h.get(), &truth, &values, i = std::size_t{0}](
                       int) mutable {
      for (std::size_t k = 0; k < kStep; ++k, ++i) {
        const std::int64_t v = values[i % kLoaded];
        h->Delete(v, truth.Count(v));
        truth.Delete(v);
        h->Insert(v);
        truth.Insert(v);
      }
      return 2.0 * static_cast<double>(kStep);
    });
    histograms.push_back(std::move(h));
    names.push_back("delete+insert DADO 1024 B");
  }

  {
    auto h = MakeDynamic("DADO", Kb(1.0), 1);
    for (std::size_t i = 0; i < kLoaded; ++i) h->Insert(values[i]);
    arms.push_back([h = h.get(), &sink](int) {
      sink += h->Model().TotalCount();
      return 1.0;
    });
    histograms.push_back(std::move(h));
    names.push_back("Model() DADO 1024 B");
  }

  const FrequencyVector all(kDomain, values);
  const HistogramModel sc = BuildStatic("SC", Kb(1.0), all);
  arms.push_back([&](int) {
    sink += KsStatistic(all, sc);
    return 1.0;
  });
  names.push_back("KsStatistic SC 1024 B");

  std::printf("# micro_update_cost: %zu cluster points over [0, %lld); "
              "%d rounds of >= %.0f ms per arm\n",
              values.size(), static_cast<long long>(kDomain), kRepeats,
              kWindowSeconds * 1e3);
  const auto rates = Interleave(arms);
  if (sink < 0.0) std::printf("# sink %f\n", sink);
  std::printf("%-28s %s\n", "arm", "ns/op");
  for (std::size_t a = 0; a < arms.size(); ++a) {
    std::printf("%-28s %s\n", names[a].c_str(),
                Describe(Summarize(Nanos(rates[a])), "%.1f").c_str());
  }
  return 0;
}
