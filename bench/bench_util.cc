#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "src/common/check.h"

namespace dynhist::bench {

Options Options::FromArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      options.seeds = std::stoi(arg.substr(8));
    } else if (arg.rfind("--points=", 0) == 0) {
      options.points = std::stoll(arg.substr(9));
    } else if (arg == "--quick") {
      options.quick = true;
      options.seeds = 1;
      options.points = 20'000;
    } else {
      std::fprintf(stderr,
                   "%s: unknown flag '%s'\n"
                   "usage: %s [--quick] [--seeds=N] [--points=N]\n",
                   argv[0], arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  DH_CHECK(options.seeds >= 1);
  DH_CHECK(options.points >= 1);
  return options;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double RunThreads(int threads, const std::function<double(int)>& step) {
  DH_CHECK(threads >= 1);
  std::latch created(threads);
  std::latch release(1);
  Clock::time_point deadline;
  std::vector<double> ops(static_cast<std::size_t>(threads), 0.0);
  const auto run = [&](int t) {
    double done = 0.0;
    do {
      done += step(t);
    } while (Clock::now() < deadline);
    ops[static_cast<std::size_t>(t)] = done;
  };
  std::vector<std::thread> others;
  others.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    others.emplace_back([&, t] {
      created.count_down();
      release.wait();
      run(t);
    });
  }
  created.count_down();
  created.wait();
  deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kWindowSeconds));
  release.count_down();
  run(0);
  for (std::thread& thread : others) thread.join();
  return std::accumulate(ops.begin(), ops.end(), 0.0);
}

std::vector<std::vector<double>> Interleave(const std::vector<Step>& arms) {
  std::vector<std::vector<double>> values(arms.size());
  for (int round = 0; round <= kRepeats; ++round) {
    std::vector<double> ops(arms.size(), 0.0);
    std::vector<double> seconds(arms.size(), 0.0);
    for (;;) {
      const auto a = static_cast<std::size_t>(
          std::min_element(seconds.begin(), seconds.end()) - seconds.begin());
      if (seconds[a] >= kWindowSeconds) break;
      const auto start = Clock::now();
      ops[a] += arms[a](round);
      seconds[a] += SecondsSince(start);
    }
    if (round == 0) continue;  // warm-up
    for (std::size_t a = 0; a < arms.size(); ++a) {
      values[a].push_back(ops[a] / seconds[a]);
    }
  }
  return values;
}

double IngestPass(const engine::EngineOptions& options,
                  const std::vector<std::int64_t>& values, int writers) {
  engine::HistogramEngine engine(options);
  const std::size_t share = values.size() / static_cast<std::size_t>(writers);
  const auto insert = [&](int w) {
    const std::size_t begin = static_cast<std::size_t>(w) * share;
    const std::size_t end = w + 1 == writers ? values.size() : begin + share;
    for (std::size_t i = begin; i < end; ++i) {
      engine.Insert("bench.attribute", values[i]);
    }
  };
  std::latch release(1);
  std::vector<std::thread> others;
  for (int w = 1; w < writers; ++w) {
    others.emplace_back([&, w] {
      release.wait();
      insert(w);
    });
  }
  release.count_down();
  insert(0);
  for (std::thread& thread : others) thread.join();
  engine.FlushAll();
  return static_cast<double>(values.size());
}

double Percentile(std::vector<double> sample, double q) {
  DH_CHECK(!sample.empty());
  std::sort(sample.begin(), sample.end());
  return perfbench::PercentileOfSorted(sample, q);
}

Summary Summarize(std::vector<double> sample) {
  Summary summary;
  summary.n = sample.size();
  if (sample.empty()) return summary;
  std::sort(sample.begin(), sample.end());
  summary.median = perfbench::PercentileOfSorted(sample, 0.50);
  summary.p25 = perfbench::PercentileOfSorted(sample, 0.25);
  summary.p75 = perfbench::PercentileOfSorted(sample, 0.75);
  return summary;
}

std::string Describe(const Summary& summary, const char* format) {
  const auto value = [format](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, v);
    return std::string(buffer);
  };
  return value(summary.median) + " [p25 " + value(summary.p25) + ", p75 " +
         value(summary.p75) + "] n=" + std::to_string(summary.n);
}

bool Gate(bool pass, const char* what, const Summary& summary) {
  std::printf("%s %s: %s\n", pass ? "gate ok:" : "FAIL:", what,
              Describe(summary).c_str());
  return pass;
}

std::vector<double> Ratios(const std::vector<double>& numerator,
                           const std::vector<double>& denominator) {
  DH_CHECK(numerator.size() == denominator.size());
  std::vector<double> ratios;
  ratios.reserve(numerator.size());
  for (std::size_t r = 0; r < numerator.size(); ++r) {
    ratios.push_back(numerator[r] / denominator[r]);
  }
  return ratios;
}

std::unique_ptr<Histogram> MakeDynamic(const std::string& name,
                                       double memory_bytes,
                                       std::uint64_t seed) {
  if (name == "DC") {
    return std::make_unique<DynamicCompressedHistogram>(
        DynamicCompressedConfig{
            .buckets = BucketBudget(memory_bytes, BucketLayout::kBorderCount)});
  }
  if (name == "DADO" || name == "DVO") {
    return std::make_unique<DynamicVOptHistogram>(DynamicVOptConfig{
        .buckets = BucketBudget(memory_bytes, BucketLayout::kBorderTwoCounts),
        .policy = name == "DADO" ? DeviationPolicy::kAbsolute
                                 : DeviationPolicy::kSquared});
  }
  if (name == "AC" || name == "AC20X" || name == "AC40X" || name == "AC60X") {
    const double factor = name == "AC40X" ? 40.0
                          : name == "AC60X" ? 60.0
                                            : 20.0;
    return std::make_unique<ApproximateCompressedHistogram>(
        MakeApproximateCompressedConfig(memory_bytes, factor, seed));
  }
  if (name == "Birch") {
    return std::make_unique<Birch1DHistogram>(
        Birch1DConfig{.max_clusters = BirchClusterBudget(memory_bytes)});
  }
  DH_CHECK(false);
  return nullptr;
}

HistogramModel BuildStatic(const std::string& name, double memory_bytes,
                           const FrequencyVector& truth) {
  const std::int64_t buckets =
      BucketBudget(memory_bytes, BucketLayout::kBorderCount);
  if (name == "SC") return BuildCompressed(truth, buckets);
  if (name == "SVO") return BuildVOptimal(truth, buckets);
  if (name == "SADO") return BuildSado(truth, buckets);
  if (name == "SSBM") return BuildSsbm(truth, buckets);
  if (name == "ED") return BuildEquiDepth(truth, buckets);
  if (name == "EW") return BuildEquiWidth(truth, buckets);
  DH_CHECK(false);
  return HistogramModel();
}

double RunDynamicKs(const std::string& name, double memory_bytes,
                    const UpdateStream& stream, std::int64_t domain_size,
                    std::uint64_t seed) {
  auto histogram = MakeDynamic(name, memory_bytes, seed);
  FrequencyVector truth(domain_size);
  Replay(stream, histogram.get(), &truth);
  return KsStatistic(truth, histogram->Model());
}

void RunSweep(const std::string& title, const std::string& x_label,
              const std::vector<double>& xs,
              const std::vector<std::string>& series, int seeds,
              const CellFn& cell) {
  std::printf("# %s\n", title.c_str());
  std::printf("# seeds averaged per point: %d\n", seeds);
  std::printf("%-12s", x_label.c_str());
  for (const std::string& s : series) std::printf("%14s", s.c_str());
  std::printf("\n");
  for (const double x : xs) {
    std::vector<double> sums(series.size(), 0.0);
    for (int seed = 0; seed < seeds; ++seed) {
      const std::vector<double> row =
          cell(x, static_cast<std::uint64_t>(seed));
      DH_CHECK(row.size() == series.size());
      for (std::size_t i = 0; i < row.size(); ++i) sums[i] += row[i];
    }
    std::printf("%-12.4g", x);
    for (const double sum : sums) {
      std::printf("%14.6f", sum / static_cast<double>(seeds));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n");
}

void RunTimeline(const std::string& title, const std::string& x_label,
                 const std::vector<double>& xs,
                 const std::vector<std::string>& series, int seeds,
                 const TimelineFn& timeline) {
  std::printf("# %s\n", title.c_str());
  std::printf("# seeds averaged per point: %d\n", seeds);
  std::vector<std::vector<double>> sums(
      xs.size(), std::vector<double>(series.size(), 0.0));
  for (int seed = 0; seed < seeds; ++seed) {
    const auto matrix = timeline(static_cast<std::uint64_t>(seed));
    DH_CHECK(matrix.size() == xs.size());
    for (std::size_t x = 0; x < xs.size(); ++x) {
      DH_CHECK(matrix[x].size() == series.size());
      for (std::size_t s = 0; s < series.size(); ++s) {
        sums[x][s] += matrix[x][s];
      }
    }
  }
  std::printf("%-12s", x_label.c_str());
  for (const std::string& s : series) std::printf("%14s", s.c_str());
  std::printf("\n");
  for (std::size_t x = 0; x < xs.size(); ++x) {
    std::printf("%-12.4g", xs[x]);
    for (const double sum : sums[x]) {
      std::printf("%14.6f", sum / static_cast<double>(seeds));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace dynhist::bench
