#include "perfbench/src/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {
double g_ticks_per_ns = 1.0;
}  // namespace

std::uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

void CalibrateTicks() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t k0 = Ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t k1 = Ticks();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  g_ticks_per_ns = static_cast<double>(k1 - k0) / ns;
}

double TicksPerNs() { return g_ticks_per_ns; }

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StealMeter::StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int read = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                               &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                               &v[6], &v[7]);
  std::fclose(f);
  return read == 8 ? static_cast<double>(v[7]) /
                         static_cast<double>(sysconf(_SC_CLK_TCK))
                   : 0.0;
}

double StealMeter::Share() const {
  const double elapsed = SteadySeconds() - start_;
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return elapsed > 0.0 ? (StealSeconds() - steal_) / (elapsed * cpus) : 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

bool PercentileSupported(std::size_t n, double q) {
  // A small epsilon keeps e.g. 1000 * (1 - 0.99) = 9.999... at 10.
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double HighestSupportedPercentile(std::size_t n) {
  if (!PercentileSupported(n, 0.5)) return 0.0;
  double best = 0.5;
  for (double tail = 0.1; tail > 1e-12; tail /= 10.0) {
    if (!PercentileSupported(n, 1.0 - tail)) break;
    best = 1.0 - tail;
  }
  return best;
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = PercentileOfSorted(samples, 0.50);
  d.p90 = PercentileOfSorted(samples, 0.90);
  d.p99 = PercentileOfSorted(samples, 0.99);
  return d;
}

std::vector<double> SelfTicks(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t duration = s.end > s.start ? s.end - s.start : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start;
    for (const auto& [begin, end] : kids) {
      const std::uint64_t lo = std::max(begin, cursor);
      const std::uint64_t hi = std::min(end, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(duration - std::min(covered, duration));
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<double> self = SelfTicks(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      ++t.count;
      t.total_ns += TicksToNs(static_cast<double>(spans[i].end - spans[i].start));
      t.self_ns += TicksToNs(self[i]);
    }
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::uint64_t origin = ~std::uint64_t{0};
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid]->spans();
    const std::vector<double> self = SelfTicks(spans);
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, logs[tid]->thread().c_str());
    first = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
          "\"request\":%u,\"self_us\":%.3f}}",
          s.name, tid, TicksToUs(static_cast<double>(s.start - origin)),
          TicksToUs(static_cast<double>(s.end - s.start)), i, s.parent,
          s.request, TicksToUs(self[i]));
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

double MeanNs(const std::map<std::string, SpanTotals>& totals,
              const std::vector<std::string>& names) {
  double ns = 0.0, count = 0.0;
  for (const std::string& name : names) {
    if (const auto it = totals.find(name); it != totals.end()) {
      ns += it->second.total_ns;
      count += static_cast<double>(it->second.count);
    }
  }
  return count > 0 ? ns / count : 0.0;
}

void AppendSpanLines(const std::map<std::string, SpanTotals>& totals,
                     Outcome* out) {
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-28s n %8llu  mean %10.1f ns  self %10.1f ns",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.MeanNs(), t.MeanSelfNs());
    out->lines.push_back(line);
  }
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

EndToEnd EmitEndToEnd(const std::vector<PassFigures>& passes, bool smoke,
                      Outcome* out) {
  EndToEnd e;
  if (passes.empty()) {
    out->Check(false, "no measured pass");
    return e;
  }
  // The quieter half of the passes: the hypervisor's steal is time the
  // host gave to other tenants, not time the system under test spent.
  std::vector<const PassFigures*> quiet;
  for (const PassFigures& p : passes) quiet.push_back(&p);
  std::stable_sort(quiet.begin(), quiet.end(),
                   [](const PassFigures* a, const PassFigures* b) {
                     return a->steal < b->steal;
                   });
  quiet.resize(std::min(quiet.size(),
                        std::max<std::size_t>(3, (quiet.size() + 1) / 2)));
  const auto median = [&](auto field) {
    std::vector<double> values;
    for (const PassFigures* p : quiet) values.push_back(field(*p));
    return Median(values);
  };
  e.setup_s = median([](const PassFigures& p) { return p.setup_s; });
  e.throughput_per_s =
      median([](const PassFigures& p) { return p.throughput_per_s; });
  e.latency_p50_us = median([](const PassFigures& p) { return p.latency_us.p50; });
  e.latency_p99_us = median([](const PassFigures& p) { return p.latency_us.p99; });
  e.visible_p50_us = median([](const PassFigures& p) { return p.visible_us.p50; });
  e.visible_p90_us = median([](const PassFigures& p) { return p.visible_us.p90; });
  e.ks_mean = median([](const PassFigures& p) { return p.ks_mean; });
  e.latency_n = passes[0].latency_us.n;
  e.visible_n = passes[0].visible_us.n;
  std::string line =
      "passes (throughput_per_s, latency_p50/p99_us, visible_p50/p90_us, "
      "host steal %; the " + std::to_string(quiet.size()) +
      " with the least steal are used):";
  for (const PassFigures& p : passes) {
    e.latency_n = std::min(e.latency_n, p.latency_us.n);
    e.visible_n = std::min(e.visible_n, p.visible_us.n);
    char buf[128];
    std::snprintf(buf, sizeof(buf), " [%.4g %.3g/%.3g %.4g/%.4g %.1f]",
                  p.throughput_per_s, p.latency_us.p50, p.latency_us.p99,
                  p.visible_us.p50, p.visible_us.p90, 100.0 * p.steal);
    line += buf;
  }
  out->lines.push_back(line);
  char rule[160];
  std::snprintf(rule, sizeof(rule),
                "samples per pass: latency %zu (rule supports up to p%g), "
                "visibility %zu (up to p%g)",
                e.latency_n, 100.0 * HighestSupportedPercentile(e.latency_n),
                e.visible_n, 100.0 * HighestSupportedPercentile(e.visible_n));
  out->lines.push_back(rule);
  out->Check(smoke || PercentileSupported(e.latency_n, 0.99),
             "latency p99 lacks 10 samples beyond it in a pass (n=" +
                 std::to_string(e.latency_n) + ")");
  out->Check(smoke || PercentileSupported(e.visible_n, 0.90),
             "visibility p90 lacks 10 samples beyond it in a pass (n=" +
                 std::to_string(e.visible_n) + ")");
  const std::vector<Metric> metrics = {
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"throughput_per_s", e.throughput_per_s, "1/s"},
      {"latency_p50_us", e.latency_p50_us, "us"},
      {"latency_p99_us", e.latency_p99_us, "us"},
      {"visible_p50_us", e.visible_p50_us, "us"},
      {"visible_p90_us", e.visible_p90_us, "us"},
      {"ks_mean", e.ks_mean, "1"},
  };
  for (const Metric& m : metrics) {
    out->Check(m.value > 0.0, "end-to-end metric " + m.name + " is not > 0");
    out->end_to_end.push_back(m);
  }
  return e;
}

bool PassSchedule::Next() {
  ++index_;
  if (index_ == 0) return true;  // warm-up
  if (index_ == 1) {
    measured_start_ = SteadySeconds();
    return true;
  }
  const int measured = index_ - 1;
  const int min_passes = config_.trace ? 4 : 3;
  // A traced run needs spans and an overhead figure, not tight medians:
  // it measures for at most 10 s, which bounds the span dump too.
  const double seconds = config_.trace ? std::min(config_.seconds, 10.0)
                                       : config_.seconds;
  const bool time_left = SteadySeconds() - measured_start_ < seconds;
  // A traced run ends on a traced pass, so both kinds are equally many.
  if (measured < min_passes || time_left) return true;
  if (config_.trace && measured % 2 == 1) return true;
  return false;
}

double PeakRssMiB() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
