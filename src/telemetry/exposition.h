// Text exposition of a MetricsSnapshot in the Prometheus format.
//
// A MetricsSnapshot is a scrape as plain values. Nothing registers
// instruments ahead of time: at scrape time whatever owns the state (the
// engine, each of its keys, the aggregator) appends its samples, and
// the writers below render the result.
//
// WritePrometheus renders the standard text exposition format scrapers
// expect — `# HELP` / `# TYPE` headers per family, `name{labels} value`
// samples, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`. Families are emitted in sorted-name order so the
// output is deterministic and all series of one family stay grouped
// (which the format requires).
//
// SelfCheckPrometheus is a strict-enough validator for CI: it parses the
// exposition grammar line by line and re-checks the histogram
// invariants (every sample preceded by a TYPE for its family,
// cumulative bucket monotonicity, a closing le="+Inf" bucket that
// matches `_count`). check.sh fails the run when a dump does not pass.

#ifndef DYNHIST_TELEMETRY_EXPOSITION_H_
#define DYNHIST_TELEMETRY_EXPOSITION_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/telemetry/log_histogram.h"

namespace dynhist::telemetry {

/// Metric labels, e.g. {{"key", "orders.amount"}}. Order is preserved
/// into the exposition output.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge };

/// One scalar sample in a scrape.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;
  double value = 0.0;
};

/// One histogram in a scrape.
struct HistogramSample {
  std::string name;
  std::string help;
  Labels labels;
  LogHistogramSnapshot snapshot;
};

/// Everything a scrape saw, as plain values, in the order the owners
/// appended them; the Prometheus writer groups them by family. Metric
/// names must match [a-zA-Z_:][a-zA-Z0-9_:]* (SelfCheckPrometheus
/// rejects anything else); one family may appear with many label sets.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;

  void Add(const char* name, const char* help, MetricKind kind,
           Labels labels, double value) {
    samples.push_back(MetricSample{name, help, kind, std::move(labels), value});
  }
};

/// Appends the Prometheus text exposition of `snapshot` to `*out`.
void WritePrometheus(const MetricsSnapshot& snapshot, std::string* out);

/// Validates Prometheus exposition text. Returns true when `text`
/// parses and every histogram invariant holds; otherwise returns false
/// and, when `error` is non-null, stores a one-line diagnosis.
bool SelfCheckPrometheus(std::string_view text, std::string* error);

}  // namespace dynhist::telemetry

#endif  // DYNHIST_TELEMETRY_EXPOSITION_H_
