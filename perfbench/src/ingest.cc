// ingest: the write path. Three closed-loop writers Insert/Delete by
// string key into 8 columns (Zipf(1) column skew, so the hot column takes
// ~37%) of an engine with default EngineOptions — DADO, 8 shards, batch
// 64, synchronous publish every 8192 updates. No readers, no wire.
//
//   throughput  accepted Insert+Delete calls per second, all writers
//   latency     per-call latency of every 16th call
//   visible     per publication: the update call that tripped the cadence
//               and published inline, from its start until it returned
//               with the new snapshot visible
//   ks_mean     mean KS of the final snapshots over the 8 columns

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "perfbench/src/inputs.h"
#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using namespace dynhist;
using namespace dynhist::engine;

constexpr std::size_t kWriters = 3;
constexpr std::size_t kColumns = 8;
constexpr std::size_t kLatencyEvery = 16;
constexpr std::size_t kSpanEvery = 256;
constexpr std::int64_t kValuesPerColumn = 100'000;

struct Sizes {
  std::size_t ops_per_writer;
  std::size_t preload_per_column;
};

Sizes SizesFor(bool smoke) {
  return smoke ? Sizes{40'000, 4'000} : Sizes{1'000'000, 50'000};
}

struct Inputs {
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> preload;  // per column
  std::vector<std::vector<Op>> scripts;            // per writer
  std::vector<FrequencyVector> truth;              // per column, final
  std::vector<engine::RangeQuery> plan;            // ladder reads, column 0
  std::uint64_t digest = 0;
};

Inputs MakeInputs(std::uint64_t seed, bool smoke) {
  const Sizes sizes = SizesFor(smoke);
  Inputs in;
  in.names = ColumnNames("ingest", kColumns);
  std::vector<std::vector<std::int64_t>> values;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < kColumns; ++c) {
    values.push_back(ClusterValues(100 + c, kValuesPerColumn));
    in.preload.push_back(SampleValues(values.back(), sizes.preload_per_column,
                                      MixSeed(seed, 100 + c)));
    in.truth.emplace_back(kDomain, in.preload.back());
    digest = Digest(in.preload.back(), digest);
  }
  for (std::size_t w = 0; w < kWriters; ++w) {
    in.scripts.push_back(MakeScript(MixSeed(seed, 200 + w),
                                    sizes.ops_per_writer, values));
    ApplyToTruth(in.scripts.back(), &in.truth);
    digest = Digest(in.scripts.back(), digest);
  }
  Rng rng(MixSeed(seed, 300));
  for (int q = 0; q < 4096; ++q) {
    const std::int64_t lo = rng.UniformInt(std::int64_t{0}, kDomain - 1);
    const std::int64_t hi = std::min<std::int64_t>(
        kDomain - 1, lo + rng.UniformInt(std::int64_t{0}, kDomain / 8));
    in.plan.push_back({lo, hi});
  }
  in.digest = digest;
  return in;
}

// What one writer saw during a pass.
struct WriterRecord {
  std::vector<double> latency_ticks;  // every kLatencyEvery-th call
  // Calls after which the column's epoch had moved since this writer last
  // looked: (column, epoch) -> the call's ticks. The publishing call
  // itself is the longest of them.
  std::vector<std::pair<std::pair<std::size_t, std::uint64_t>, double>>
      advanced;
};

struct PassResult {
  double setup_s = 0.0;
  double throughput = 0.0;
  std::vector<double> latency_us;
  std::vector<double> visible_us;
  double ks_mean = 0.0;
  std::uint64_t ops = 0;
  EngineStats before;  // after setup
  EngineStats after;   // after the writers, before the final refresh
  double refresh_us = 0.0;
  std::unique_ptr<HistogramEngine> engine;
};

PassResult RunPass(const Inputs& in, std::vector<SpanLog>* logs,
                   Outcome* out) {
  PassResult r;
  const double setup_start = SteadySeconds();
  r.engine = std::make_unique<HistogramEngine>(EngineOptions{});
  HistogramEngine& engine = *r.engine;
  std::vector<KeyHandle> handles;
  for (const std::string& name : in.names) {
    handles.push_back(engine.Resolve(name));
  }
  for (std::size_t c = 0; c < kColumns; ++c) {
    engine.InsertBatch(in.names[c], in.preload[c]);
  }
  engine.RefreshAll();
  r.setup_s = SteadySeconds() - setup_start;
  r.before = engine.Stats();

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<WriterRecord> records(kWriters);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::vector<Op>& script = in.scripts[w];
      WriterRecord& rec = records[w];
      rec.latency_ticks.reserve(script.size() / kLatencyEvery + 1);
      SpanLog* log = logs == nullptr ? nullptr : &(*logs)[w];
      std::vector<std::uint64_t> seen(kColumns);
      for (std::size_t c = 0; c < kColumns; ++c) seen[c] = handles[c].epoch();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t prev = Ticks();
      for (std::size_t i = 0; i < script.size(); ++i) {
        const Op& op = script[i];
        std::int32_t root = -1;
        std::int32_t call = -1;
        if (log != nullptr && i % kSpanEvery == 0) {
          const auto request = static_cast<std::uint32_t>(w << 24 | i >> 8);
          root = log->Begin("writer.op", request);
          call = log->Begin(op.is_delete ? "engine.Delete" : "engine.Insert",
                            request, root);
        }
        if (op.is_delete) {
          engine.Delete(in.names[op.column], op.value);
        } else {
          engine.Insert(in.names[op.column], op.value);
        }
        if (call >= 0) log->End(call);
        const std::uint64_t now = Ticks();
        const auto took = static_cast<double>(now - prev);
        prev = now;
        if (i % kLatencyEvery == 0) rec.latency_ticks.push_back(took);
        const std::uint64_t epoch = handles[op.column].epoch();
        if (epoch != seen[op.column]) {
          rec.advanced.push_back({{op.column, epoch}, took});
          seen[op.column] = epoch;
        }
        if (root >= 0) log->End(root);
      }
    });
  }
  while (ready.load() < kWriters) std::this_thread::yield();
  const std::uint64_t start = Ticks();
  go.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  const std::uint64_t end = Ticks();
  r.after = engine.Stats();

  for (const std::vector<Op>& script : in.scripts) r.ops += script.size();
  r.throughput = static_cast<double>(r.ops) /
                 (TicksToNs(static_cast<double>(end - start)) / 1e9);
  std::map<std::pair<std::size_t, std::uint64_t>, double> publishing_call;
  for (const WriterRecord& rec : records) {
    for (const double t : rec.latency_ticks) {
      r.latency_us.push_back(TicksToUs(t));
    }
    for (const auto& [key, ticks] : rec.advanced) {
      double& longest = publishing_call[key];
      longest = std::max(longest, ticks);
    }
  }
  for (const auto& [key, ticks] : publishing_call) {
    r.visible_us.push_back(TicksToUs(ticks));
  }

  const std::uint64_t refresh_start = Ticks();
  engine.RefreshAll();
  const std::uint64_t refresh_end = Ticks();
  r.refresh_us = TicksToUs(static_cast<double>(refresh_end - refresh_start));
  if (logs != nullptr) {
    logs->back().Add({"engine.RefreshAll", refresh_start, refresh_end, -1, 0});
  }

  // Output checks: mass per column, epochs against publishes, every call
  // accepted.
  double ks_sum = 0.0;
  for (std::size_t c = 0; c < kColumns; ++c) {
    CheckMass(engine, in.names[c], in.truth[c].TotalCount(), out);
    const EngineSnapshot snap = engine.Snapshot(in.names[c]);
    ks_sum += KsStatistic(in.truth[c], snap.model());
  }
  r.ks_mean = ks_sum / kColumns;
  const EngineStats final_stats = engine.Stats();
  out->Check(final_stats.snapshot_epoch == final_stats.publishes,
             "ingest: summed epochs " +
                 std::to_string(final_stats.snapshot_epoch) +
                 " != publishes " + std::to_string(final_stats.publishes));
  out->Check(r.after.inserts + r.after.deletes -
                     (r.before.inserts + r.before.deletes) ==
                 r.ops,
             "ingest: accepted updates differ from calls made");
  out->attempted += r.ops;
  out->failed += final_stats.publish_rejected + final_stats.unknown_queries;
  return r;
}

}  // namespace

std::uint64_t IngestInputsDigest(std::uint64_t seed, bool smoke) {
  return MakeInputs(seed, smoke).digest;
}

Outcome RunIngest(const RunConfig& config) {
  Outcome out;
  const Inputs in = MakeInputs(config.seed, config.smoke);
  out.inputs_digest = Hex(in.digest);
  out.offered_load = "3 closed-loop writers, " +
                     std::to_string(SizesFor(config.smoke).ops_per_writer) +
                     " updates each per pass";

  std::vector<PassFigures> figures;
  std::vector<double> throughput, traced_throughput;
  std::vector<SpanLog> logs;
  for (std::size_t w = 0; w < kWriters; ++w) {
    logs.emplace_back("writer-" + std::to_string(w));
  }
  logs.emplace_back("main");
  std::map<std::string, double> layer;
  double publishes = 0.0, publish_ns = 0.0;
  double refresh_us = 0.0, traced_passes = 0.0, ops = 0.0, publish_max = 0.0;
  PublishStages stages;  // the writers' inline publications
  PassResult last;

  PassSchedule schedule(config);
  while (schedule.Next()) {
    const StealMeter steal;
    PassResult r = RunPass(in, schedule.traced() ? &logs : nullptr, &out);
    if (schedule.warmup()) continue;
    if (!schedule.traced()) {
      throughput.push_back(r.throughput);
      figures.push_back({r.setup_s, r.throughput, Summarize(r.latency_us),
                         Summarize(r.visible_us), r.ks_mean,
                         steal.Share()});
      continue;
    }
    traced_throughput.push_back(r.throughput);
    traced_passes += 1;
    ops += static_cast<double>(r.ops);
    // Every publication while the writers ran was inline, on a writer.
    publishes += static_cast<double>(r.after.publishes - r.before.publishes);
    publish_ns +=
        static_cast<double>(r.after.publish_nanos - r.before.publish_nanos);
    publish_max = std::max(
        publish_max, static_cast<double>(r.after.max_publish_nanos) / 1e3);
    refresh_us += r.refresh_us;
    stages.Add(*r.engine, "sync");
    layer["engine.publish_rejected"] +=
        static_cast<double>(r.after.publish_rejected);
    layer["engine.unknown_queries"] +=
        static_cast<double>(r.after.unknown_queries);
    last = std::move(r);
  }

  if (!config.trace) {
    const EndToEnd e = EmitEndToEnd(figures, config.smoke, &out);
    out.report = {
        {"update_ops_per_s", e.throughput_per_s, "ops/s"},
        {"update_p50_us", e.latency_p50_us, "us"},
        {"update_p99_us", e.latency_p99_us, "us"},
        {"publish_visible_p50_us", e.visible_p50_us, "us"},
        {"publish_visible_p90_us", e.visible_p90_us, "us"},
        {"ks_mean", e.ks_mean, "1"},
        {"setup_s", e.setup_s, "s"},
        {"latency_samples_per_pass", static_cast<double>(e.latency_n), "count"},
        {"publications_per_pass", static_cast<double>(e.visible_n), "count"},
    };
    return out;
  }

  // Traced run: spans and Stats deltas for the layers the writers drive,
  // the ladder for the rest.
  std::vector<const SpanLog*> log_ptrs;
  for (const SpanLog& log : logs) log_ptrs.push_back(&log);
  const auto totals = TotalsByName(log_ptrs);
  AppendSpanLines(totals, &out);
  layer["engine.insert_ns"] =
      MeanNs(totals, {"engine.Insert", "engine.Delete"}) - publish_ns / ops;
  layer["engine.publishes"] = publishes / traced_passes;
  layer["engine.publish_us"] = publishes > 0 ? publish_ns / publishes / 1e3 : 0;
  layer["engine.publish_max_us"] = publish_max;
  layer["engine.export_us"] = stages.ExportUs();
  layer["engine.merge_us"] = stages.MergeUs();
  layer["engine.refresh_us"] = refresh_us / traced_passes;
  const EngineStats reads_before = last.engine->Stats();

  LadderInputs ladder;
  ladder.options = EngineOptions{};
  ladder.preload = in.preload[0];
  for (const std::vector<Op>& script : in.scripts) {
    AppendColumnOps(script, 0, &ladder.oplog);
  }
  ladder.engine = last.engine.get();
  ladder.column = in.names[0];
  ladder.plan = in.plan;
  std::map<std::string, double> measured = RunLadder(ladder, &out);
  const EngineStats reads_after = last.engine->Stats();
  const double hits =
      static_cast<double>(reads_after.lease_hits - reads_before.lease_hits);
  const double misses =
      static_cast<double>(reads_after.lease_misses - reads_before.lease_misses);
  layer["engine.lease_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  for (const auto& [name, value] : measured) layer.emplace(name, value);
  layer["trace.overhead_pct"] =
      100.0 * (Median(throughput) - Median(traced_throughput)) /
      Median(throughput);
  EmitPerLayer(layer, &out);
  AppendLadderLines(layer, &out);

  std::string error;
  const std::string path = config.out_dir + "/trace-ingest-seed" +
                           std::to_string(config.seed) + ".json";
  out.Check(WriteChromeTrace(path, log_ptrs, &error), error);
  out.lines.push_back("trace written to " + path);
  return out;
}

}  // namespace perfbench
