// Shared code of the figure-reproduction benches, and the one timing
// discipline of the micro benches' gates and series.
//
// Every bench binary regenerates one figure of the paper's evaluation
// (§7, §8): it sweeps the figure's x-axis, runs each plotted algorithm for
// several seeds (the paper averages ten), and prints the mean KS statistic
// per point — the same series the paper plots. Flags:
//   --seeds=N    randomized repetitions per point (default 5; paper: 10)
//   --points=N   stream length (default 100,000; the paper's test size)
//   --quick      1 seed, 20,000 points, and the micro benches' shorter
//                sweeps (smoke-test mode)
// Any other flag is an error (exit 2).

#ifndef DYNHIST_BENCH_BENCH_UTIL_H_
#define DYNHIST_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dynhist.h"

namespace dynhist::bench {

/// Command-line options shared by all figure benches.
struct Options {
  int seeds = 5;
  std::int64_t points = 100'000;
  bool quick = false;

  /// Parses flags; prints a usage line and exits 2 on an unknown flag.
  static Options FromArgs(int argc, char** argv);
};

// ---- Timing --------------------------------------------------------------
//
// A measurement compares arms: code paths or configurations run on the
// same workload. Each arm is a step, one unit of work on the calling
// thread. Interleave runs one untimed warm-up round, then kRepeats timed
// rounds. In a round the arm that has run the least so far takes the next
// step, every step timed on its own, until each arm has run for at least
// kWindowSeconds; an arm's value for the round is its operations over its
// own time. A cheap arm so takes several steps per step of a costly one,
// the arms' windows span the same stretch of wall-clock time whatever
// their steps cost, and drift on the host reaches every arm alike: on the
// 4-core VM an engine-ingest A/A comparison spread 7-13 points (IQR of
// per-round ratios) with each arm a contiguous 200-ms window, and
// 2.7-4.8 points in 20,000-insert steps. A gate decides on the median
// of its arm's kRepeats values, a ratio gate on the median of the
// per-round ratios, and each prints its statistic with p25/p75 and n
// (Summarize, Describe, Gate).

using Clock = std::chrono::steady_clock;

inline constexpr double kWindowSeconds = 0.2;
inline constexpr int kRepeats = 19;

double SecondsSince(Clock::time_point start);

/// One step of an arm; returns how many operations it did. `round` is 0
/// for the warm-up round and 1..kRepeats for the timed ones, for arms
/// that keep per-round samples.
using Step = std::function<double(int round)>;

/// Runs `arms` as described above. Returns each arm's kRepeats values in
/// round order, so values[a][r] and values[b][r] are a pair.
std::vector<std::vector<double>> Interleave(const std::vector<Step>& arms);

/// A step for multi-thread arms: `threads` threads, the caller and
/// threads - 1 new ones, released together once all exist, each calling
/// `step(thread)` (returning its operation count) until kWindowSeconds
/// have passed. Returns the operations of all threads.
double RunThreads(int threads, const std::function<double(int)>& step);

/// An ingest step: a fresh engine built from `options`; `writers`
/// threads (the caller and writers - 1 new ones, released together) each
/// insert a contiguous share of `values`; then FlushAll. Returns
/// values.size(). The step's time includes building and destroying the
/// engine: on the 4-core VM an empty pass took a median 27 us with
/// telemetry on (which allocates the trace ring) and 7 us with it off, a
/// difference of 0.24% of a 20,000-insert pass (8.4 ms).
double IngestPass(const engine::EngineOptions& options,
                  const std::vector<std::int64_t>& values, int writers);

/// Percentile q in (0, 1] of a nonempty sample by perfbench's
/// nearest-rank rule: the value at index ceil(q * n) - 1 once sorted.
double Percentile(std::vector<double> sample, double q);

/// Median and quartiles (nearest rank) of a sample, with its size.
struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> sample);

/// "<median> [p25 <p25>, p75 <p75>] n=<n>", each value printed with
/// `format`.
std::string Describe(const Summary& summary, const char* format = "%.3g");

/// Prints "gate ok: <what>: <Describe(summary)>", or "FAIL: ..." when
/// `pass` is false; returns `pass`.
bool Gate(bool pass, const char* what, const Summary& summary);

/// The per-round ratios numerator[r] / denominator[r].
std::vector<double> Ratios(const std::vector<double>& numerator,
                           const std::vector<double>& denominator);

// ---- Figure benches ------------------------------------------------------

/// Memory sizes in bytes from the paper's "Memory [KB]" axes.
inline double Kb(double kb) { return kb * 1024.0; }

/// Named dynamic-histogram factory at a given memory budget. Recognized:
/// "DC", "DADO", "DVO", "AC" (= AC20X), "AC40X", "AC60X", "Birch".
std::unique_ptr<Histogram> MakeDynamic(const std::string& name,
                                       double memory_bytes,
                                       std::uint64_t seed);

/// Named static-histogram builder at a given memory budget. Recognized:
/// "SC", "SVO", "SADO", "SSBM", "ED", "EW".
HistogramModel BuildStatic(const std::string& name, double memory_bytes,
                           const FrequencyVector& truth);

/// Replays `stream` into a fresh dynamic histogram and returns the final
/// KS statistic against the exact distribution.
double RunDynamicKs(const std::string& name, double memory_bytes,
                    const UpdateStream& stream, std::int64_t domain_size,
                    std::uint64_t seed);

/// One figure cell: for sweep value x and a seed, produce the KS value of
/// every series in order.
using CellFn =
    std::function<std::vector<double>(double x, std::uint64_t seed)>;

/// Runs the sweep and prints the mean-over-seeds table:
///     <x_label>  series1  series2 ...
/// exactly one row per x value.
void RunSweep(const std::string& title, const std::string& x_label,
              const std::vector<double>& xs,
              const std::vector<std::string>& series, int seeds,
              const CellFn& cell);

/// Timeline variant (Figs. 16-18): one replay per seed yields the whole
/// row set at once. `timeline(seed)` returns a matrix indexed
/// [x][series]; rows are averaged over seeds and printed like RunSweep.
using TimelineFn =
    std::function<std::vector<std::vector<double>>(std::uint64_t seed)>;
void RunTimeline(const std::string& title, const std::string& x_label,
                 const std::vector<double>& xs,
                 const std::vector<std::string>& series, int seeds,
                 const TimelineFn& timeline);

}  // namespace dynhist::bench

#endif  // DYNHIST_BENCH_BENCH_UTIL_H_
