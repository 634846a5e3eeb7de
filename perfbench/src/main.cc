// perfbench: the repository benchmark program.
//
//   perfbench --workload ingest|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//   perfbench --self-test [--out-dir DIR]
//
// Prints an `env` line (commit, CPU, nproc, build type, SIMD, seed, load,
// input digest), the workload's own metrics with units, the ladder lines
// of a traced run, any failed checks, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits nonzero on a
// usage error; a failed output check reports correct=false.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/dynhist.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  RunConfig config;
  bool self_test = false;
  std::string commit = "none";
  std::string source_digest = "none";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->config.trace = value == "1";
    } else if (flag == "--out-dir") {
      args->config.out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->self_test) return true;
  const std::string& w = args->config.workload;
  if (!have_workload || (w != "ingest" && w != "serve")) {
    *error = "--workload must be ingest or serve";
    return false;
  }
  if (!(args->config.seconds > 0.0) || args->config.seconds > 60.0) {
    *error = "--seconds must be in (0, 60]";
    return false;
  }
  return true;
}

Outcome Run(const RunConfig& config) {
  if (config.workload == "ingest") return RunIngest(config);
  return RunServe(config);
}

void PrintEnv(const Args& args, const Outcome& out) {
  const RunConfig& c = args.config;
  std::printf(
      "env {\"commit\": %s, \"source_digest\": %s, \"cpu\": %s, "
      "\"nproc\": %ld, \"build_type\": %s, \"simd_active\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"offered_load\": %s, \"inputs_digest\": %s}\n",
      JsonString(args.commit).c_str(), JsonString(args.source_digest).c_str(),
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      dynhist::compiled_internal::SimdActive() ? "true" : "false",
      JsonString(c.workload).c_str(), static_cast<unsigned long long>(c.seed),
      JsonNumber(c.seconds).c_str(), c.trace ? 1 : 0,
      JsonString(out.offered_load).c_str(),
      JsonString(out.inputs_digest).c_str());
}

void PrintOutcome(const Outcome& out, bool trace) {
  for (const Metric& m : out.report) {
    std::printf("%-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const std::vector<Metric>& metrics = trace ? out.per_layer : out.end_to_end;
  if (trace) {
    for (const Metric& m : metrics) {
      std::printf("%-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, out.attempted));
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Self-tests ---------------------------------------------------------

int g_self_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_self_failures;
}

void TestPercentileRule() {
  Expect(!PercentileSupported(19, 0.5), "p50 needs 20 samples");
  Expect(PercentileSupported(20, 0.5), "p50 with 20 samples");
  Expect(PercentileSupported(100, 0.9) && !PercentileSupported(99, 0.9),
         "p90 needs 100 samples");
  Expect(PercentileSupported(1000, 0.99) && !PercentileSupported(999, 0.99),
         "p99 needs 1000 samples");
  Expect(HighestSupportedPercentile(10) == 0.0, "no percentile below 20");
  Expect(HighestSupportedPercentile(500) == 0.9, "500 samples support p90");
  Expect(std::fabs(HighestSupportedPercentile(25'000) - 0.999) < 1e-12,
         "25000 samples support p99.9");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Distribution d = Summarize(v);
  Expect(d.n == 1000 && d.p50 == 500 && d.p90 == 900 && d.p99 == 990,
         "nearest-rank p50/p90/p99 of 1..1000");
}

void TestSelfTime() {
  // Parent [0, 100) with children [10, 30), [20, 50) (overlapping) and
  // [90, 120) (clipped at 100): covered = 40 + 10, self = 50.
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},        {"c", 90, 120, 0, 1},
      {"grandchild", 12, 18, 1, 1},
  };
  const std::vector<double> self = SelfTicks(spans);
  Expect(self[0] == 50.0, "self time counts overlapping children once");
  Expect(self[1] == 14.0, "self time subtracts a grandchild from its parent");
  Expect(self[2] == 30.0 && self[4] == 6.0, "leaf self time is its duration");
  const std::vector<Span> nested = {{"p", 0, 10, -1, 2}, {"x", 0, 10, 0, 2}};
  Expect(SelfTicks(nested)[0] == 0.0, "a fully covered parent has no self time");
}

void TestDeterminism() {
  struct Case {
    const char* name;
    std::uint64_t (*digest)(std::uint64_t, bool);
  };
  for (const Case& c : {Case{"ingest", IngestInputsDigest},
                        Case{"serve", ServeInputsDigest}}) {
    const std::uint64_t a = c.digest(7, true);
    const std::uint64_t b = c.digest(7, true);
    const std::uint64_t other = c.digest(8, true);
    std::printf("digest %-6s seed 7: %s  seed 8: %s\n", c.name, Hex(a).c_str(),
                Hex(other).c_str());
    Expect(a == b, std::string(c.name) + ": same seed, same inputs");
    Expect(a != other, std::string(c.name) + ": another seed, other inputs");
  }
}

void TestSmoke(const std::string& out_dir) {
  for (const char* workload : {"ingest", "serve"}) {
    for (const bool trace : {false, true}) {
      RunConfig config;
      config.workload = workload;
      config.seed = 3;
      config.seconds = 0.2;
      config.trace = trace;
      config.smoke = true;
      config.out_dir = out_dir;
      const Outcome out = Run(config);
      for (const std::string& f : out.failures) std::printf("  %s\n", f.c_str());
      const std::size_t metrics =
          trace ? out.per_layer.size() : out.end_to_end.size();
      Expect(out.correct && out.failed == 0 && out.attempted > 0 &&
                 metrics > 0,
             std::string("smoke ") + workload + (trace ? " traced" : "") +
                 ": every check passes, " + std::to_string(metrics) +
                 " metrics");
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.config.out_dir.empty()) args.config.out_dir = ".";
  mkdir(args.config.out_dir.c_str(), 0755);
  CalibrateTicks();

  if (args.self_test) {
    TestPercentileRule();
    TestSelfTime();
    TestDeterminism();
    TestSmoke(args.config.out_dir);
    std::printf("self-test: %s\n", g_self_failures == 0 ? "all passed" : "FAILED");
    return g_self_failures == 0 ? 0 : 1;
  }

  const Outcome out = Run(args.config);
  PrintEnv(args, out);
  PrintOutcome(out, args.config.trace);
  return 0;
}
