// Shared plumbing of the perfbench program: a cheap per-call clock, the
// percentile rule, in-memory spans with self-time arithmetic, the pass
// schedule every workload follows, and the result a run reports.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- Clock -------------------------------------------------------------

/// A per-call timestamp: the TSC on x86-64 (about half the cost of
/// steady_clock on a KVM guest, and constant-rate on any CPU with
/// constant_tsc), steady_clock nanoseconds elsewhere. Comparable across
/// threads on hosts with a synchronized TSC.
std::uint64_t Ticks();

/// Measures the tick rate against steady_clock (about 50 ms). Called once
/// at start-up, before any workload converts ticks.
void CalibrateTicks();

/// Ticks per nanosecond, as calibrated.
double TicksPerNs();

inline double TicksToNs(double ticks) { return ticks / TicksPerNs(); }
inline double TicksToUs(double ticks) { return ticks / TicksPerNs() / 1e3; }

/// steady_clock seconds since an arbitrary epoch.
double SteadySeconds();

// ---- Statistics --------------------------------------------------------

/// Median of `values` (the mean of the middle two for even sizes).
double Median(std::vector<double> values);

/// Nearest-rank percentile q in (0, 1] of ascending, nonempty `sorted`.
double PercentileOfSorted(const std::vector<double>& sorted, double q);

/// The percentile rule: a percentile q is reported only when at least 10
/// of the n samples lie beyond it, i.e. n * (1 - q) >= 10.
bool PercentileSupported(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9, ... that the rule supports for n
/// samples; 0 when even p50 is unsupported (n < 20).
double HighestSupportedPercentile(std::size_t n);

/// Order statistics of one latency sample set.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
Distribution Summarize(std::vector<double> samples);

// ---- Spans -------------------------------------------------------------

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` indexes the enclosing span in the same log.
struct Span {
  const char* name = "";
  std::uint64_t start = 0;  ///< ticks
  std::uint64_t end = 0;    ///< ticks
  std::int32_t parent = -1;
  std::uint32_t request = 0;
};

/// The spans one thread recorded, kept in memory until the run ends.
/// Single-writer: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {
    spans_.reserve(1 << 16);
  }

  std::int32_t Begin(const char* name, std::uint32_t request,
                     std::int32_t parent = -1) {
    spans_.push_back({name, Ticks(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = Ticks();
  }
  /// Appends an already-timed span (used when the caller holds the ticks).
  std::int32_t Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

/// Self time of each span, in ticks: its duration minus the part of its
/// interval that its children cover (overlapping children counted once,
/// children clipped to the parent).
std::vector<double> SelfTicks(const std::vector<Span>& spans);

/// Per span name: how many, their total and their total self time.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double MeanNs() const { return count == 0 ? 0.0 : total_ns / count; }
  double MeanSelfNs() const { return count == 0 ? 0.0 : self_ns / count; }
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs);

/// Mean duration over every span named in `names` (0 when there are none).
double MeanNs(const std::map<std::string, SpanTotals>& totals,
              const std::vector<std::string>& names);

struct Outcome;

/// Appends one line per span name: count, mean duration and mean self time.
void AppendSpanLines(const std::map<std::string, SpanTotals>& totals,
                     Outcome* out);

/// Writes every span as a chrome://tracing "X" event (args: parent,
/// request, self_us). Returns false with a message on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      std::string* error);

// ---- Runs --------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< shrunken sizes for the self-test
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed output checks
  std::vector<Metric> end_to_end;     ///< BENCHMARK.json names
  std::vector<Metric> report;         ///< the workload's own names
  std::vector<Metric> per_layer;      ///< traced run only
  std::vector<std::string> lines;     ///< ladders and notes, printed
  std::string inputs_digest;
  std::string offered_load;

  /// Records a failed output check; any failure makes the run incorrect.
  void Check(bool ok, const std::string& what);
};

/// One measured pass's figures for the end-to-end metrics; each workload
/// documents what its throughput, latency and visibility are (README.md
/// has the table).
struct PassFigures {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  Distribution latency_us;
  Distribution visible_us;
  double ks_mean = 0.0;
  double steal = 0.0;  ///< share of the host's CPU time taken from this VM
};

/// Measures the hypervisor's steal over an interval: the share of this
/// VM's CPU time (all vCPUs) the host gave to others. 0 where /proc/stat
/// has no steal column.
class StealMeter {
 public:
  StealMeter() : steal_(StealSeconds()), start_(SteadySeconds()) {}
  double Share() const;

 private:
  static double StealSeconds();
  double steal_;
  double start_;
};

/// A run's end-to-end metrics: the median of each figure over the quieter
/// half (by host steal, at least 3) of the measured untraced passes, so
/// neither one disturbed pass nor a burst of host contention moves them.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double visible_p50_us = 0.0;
  double visible_p90_us = 0.0;
  double ks_mean = 0.0;
  std::size_t latency_n = 0;  ///< samples per pass, the fewest of any pass
  std::size_t visible_n = 0;
};

/// Takes the medians over the quieter half of `passes`, appends them (and the peak RSS, read
/// now) as the BENCHMARK.json end-to-end metrics plus a per-pass line, and
/// checks that every metric is nonzero and, unless `smoke` (whose passes
/// are too short), that every pass's percentiles have the rule's support.
EndToEnd EmitEndToEnd(const std::vector<PassFigures>& passes, bool smoke,
                      Outcome* out);

/// One warm-up pass, then measured passes until `seconds` of them have
/// run (at least 3). A traced run alternates untraced and traced passes
/// (at least 2 of each) so it can report the tracing overhead, and stops
/// after at most 10 s of them.
class PassSchedule {
 public:
  explicit PassSchedule(const RunConfig& config) : config_(config) {}

  /// Advances to the next pass; false when the schedule is complete.
  bool Next();
  bool warmup() const { return index_ == 0; }
  bool traced() const { return config_.trace && index_ > 0 && index_ % 2 == 0; }

 private:
  const RunConfig& config_;
  int index_ = -1;
  double measured_start_ = 0.0;
};

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

/// 64-bit FNV-1a, chainable through `hash`.
std::uint64_t Fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// Hex form of a digest.
std::string Hex(std::uint64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
