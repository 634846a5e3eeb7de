// serve: the read path beside live writes. Two closed-loop planners send
// planning requests — 16 range estimates on one column; 3 of 4 through a
// resolved KeyHandle and EstimateRangeBatch, 1 of 4 as 16 string-keyed
// EstimateRange calls — over 32 preloaded columns with Zipf(1) popularity.
// 32 columns exceed the 16 lease slots a reader thread has, so lease misses
// occur. One open-loop writer updates at a fixed 200k/s; publication is
// async (1 merge worker, snapshot_every 1024); the main thread scrapes
// WriteMetricsPrometheus once a second.
//
//   throughput  range estimates answered per second, both planners
//   latency     one planning request (16 estimates), every 8th request
//   visible     freshness lag: from the due time of the update a
//               publication's watermark covers to a planner's first
//               request that sees the publication (KeyHandle::epoch, then
//               LeasedSnapshot().watermark(); one writer, so the column's
//               update count is the watermark)
//   ks_mean     mean KS of the final snapshots over the 32 columns

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "perfbench/src/inputs.h"
#include "perfbench/src/ladder.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using namespace dynhist;
using namespace dynhist::engine;

constexpr std::size_t kReaders = 2;
constexpr std::size_t kColumns = 32;
constexpr std::size_t kPlanRanges = 16;
constexpr std::size_t kPlansPerReader = 4096;  // a power of two
constexpr double kWriteRate = 200'000.0;       // updates per second
constexpr std::size_t kLatencyEvery = 8;
constexpr std::size_t kSpanEvery = 1024;
constexpr std::size_t kWriterSpanEvery = 64;
constexpr std::int64_t kValuesPerColumn = 100'000;

struct Sizes {
  std::size_t writer_ops;
  std::size_t preload_per_column;
};

Sizes SizesFor(bool smoke) {
  return smoke ? Sizes{20'000, 2'000} : Sizes{200'000, 20'000};
}

EngineOptions ServeOptions() {
  EngineOptions options;
  options.async_publish = true;
  options.merge_workers = 1;
  options.snapshot_every = 1024;
  return options;
}

struct Plan {
  std::uint16_t column = 0;
  bool by_handle = true;
  engine::RangeQuery ranges[kPlanRanges];
};

struct Inputs {
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> preload;
  std::vector<Op> script;                 // the writer's
  std::vector<std::vector<std::uint32_t>> op_index;  // per column: script
                                                     // positions of its ops
  std::vector<FrequencyVector> truth;
  std::vector<std::vector<Plan>> plans;   // per reader
  std::uint64_t digest = 0;
};

Inputs MakeInputs(std::uint64_t seed, bool smoke) {
  const Sizes sizes = SizesFor(smoke);
  Inputs in;
  in.names = ColumnNames("serve", kColumns);
  std::vector<std::vector<std::int64_t>> values;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < kColumns; ++c) {
    values.push_back(ClusterValues(400 + c, kValuesPerColumn));
    in.preload.push_back(SampleValues(values.back(), sizes.preload_per_column,
                                      MixSeed(seed, 400 + c)));
    in.truth.emplace_back(kDomain, in.preload.back());
    digest = Digest(in.preload.back(), digest);
  }
  in.script = MakeScript(MixSeed(seed, 500), sizes.writer_ops, values);
  ApplyToTruth(in.script, &in.truth);
  digest = Digest(in.script, digest);
  in.op_index.resize(kColumns);
  for (std::size_t i = 0; i < in.script.size(); ++i) {
    in.op_index[in.script[i].column].push_back(static_cast<std::uint32_t>(i));
  }
  const ZipfDistribution popularity(kColumns, 1.0);
  for (std::size_t r = 0; r < kReaders; ++r) {
    Rng rng(MixSeed(seed, 600 + r));
    std::vector<Plan> plans(kPlansPerReader);
    for (Plan& plan : plans) {
      plan.column = static_cast<std::uint16_t>(popularity.Sample(rng));
      plan.by_handle = rng.UniformInt(std::uint64_t{4}) != 0;
      for (engine::RangeQuery& q : plan.ranges) {
        q.lo = rng.UniformInt(std::int64_t{0}, kDomain - 1);
        q.hi = std::min<std::int64_t>(
            kDomain - 1, q.lo + rng.UniformInt(std::int64_t{0}, kDomain / 8));
        digest = Fnv1a(&q, sizeof(q), digest);
      }
      digest = Fnv1a(&plan.column, sizeof(plan.column), digest);
      digest = Fnv1a(&plan.by_handle, sizeof(plan.by_handle), digest);
    }
    in.plans.push_back(std::move(plans));
  }
  in.digest = digest;
  return in;
}

struct ReaderRecord {
  std::uint64_t estimates = 0;
  double sink = 0.0;               // keeps the estimates observable
  std::vector<double> plan_ticks;  // every kLatencyEvery-th request
  std::vector<double> lag_ticks;   // one per publication this reader saw
};

struct PassResult {
  double setup_s = 0.0;
  double throughput = 0.0;
  std::vector<double> plan_us;
  std::vector<double> lag_us;
  std::vector<double> update_us;  // writer, from due time
  double max_late_us = 0.0;       // how late the writer ran at worst
  double ks_mean = 0.0;
  EngineStats before;  // after setup
  EngineStats after;   // after the readers and writer stopped, drained
  double refresh_us = 0.0;
  std::vector<double> scrape_us;
  double scrape_bytes = 0.0;
  std::unique_ptr<HistogramEngine> engine;
};

void SpinUntil(std::uint64_t due) {
  while (Ticks() < due) {
#if defined(__x86_64__)
    _mm_pause();
#endif
  }
}

PassResult RunPass(const Inputs& in, std::vector<SpanLog>* logs,
                   Outcome* out) {
  PassResult r;
  const double setup_start = SteadySeconds();
  r.engine = std::make_unique<HistogramEngine>(ServeOptions());
  HistogramEngine& engine = *r.engine;
  std::vector<KeyHandle> handles;
  std::vector<std::uint64_t> preloaded;
  for (std::size_t c = 0; c < kColumns; ++c) {
    handles.push_back(engine.Resolve(in.names[c]));
    engine.InsertBatch(in.names[c], in.preload[c]);
    preloaded.push_back(in.preload[c].size());
  }
  engine.RefreshAll();
  engine.DrainPublishes();
  r.setup_s = SteadySeconds() - setup_start;
  r.before = engine.Stats();

  const double period = 1e9 / kWriteRate * TicksPerNs();  // ticks per op
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> writer_done{false};
  std::uint64_t start = 0;  // published to the threads by `go`
  std::vector<ReaderRecord> readers(kReaders);
  std::vector<double> update_ticks;
  double max_late = 0.0;
  std::size_t writer_issued = 0;
  std::vector<std::thread> threads;

  threads.emplace_back([&] {
    SpanLog* log = logs == nullptr ? nullptr : &(*logs)[kReaders];
    update_ticks.reserve(in.script.size() / 16 + 1);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::size_t i = 0; i < in.script.size(); ++i) {
      const Op& op = in.script[i];
      const auto due = start + static_cast<std::uint64_t>(
                                   static_cast<double>(i) * period);
      SpinUntil(due);
      const std::uint64_t began = Ticks();
      std::int32_t root = -1;
      if (log != nullptr && i % kWriterSpanEvery == 0) {
        root = log->Begin(op.is_delete ? "engine.Delete" : "engine.Insert",
                          static_cast<std::uint32_t>(i));
      }
      if (op.is_delete) {
        engine.Delete(in.names[op.column], op.value);
      } else {
        engine.Insert(in.names[op.column], op.value);
      }
      if (root >= 0) log->End(root);
      if (i % 16 == 0) {
        update_ticks.push_back(static_cast<double>(Ticks() - due));
      }
      max_late = std::max(max_late, static_cast<double>(began - due));
      ++writer_issued;
    }
    writer_done.store(true, std::memory_order_release);
  });
  for (std::size_t rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&, rd] {
      ReaderRecord& rec = readers[rd];
      const std::vector<Plan>& plans = in.plans[rd];
      SpanLog* log = logs == nullptr ? nullptr : &(*logs)[rd];
      std::vector<std::uint64_t> seen(kColumns);
      for (std::size_t c = 0; c < kColumns; ++c) seen[c] = handles[c].epoch();
      double results[kPlanRanges];
      double sink = 0.0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t prev = Ticks();
      for (std::size_t k = 0; !writer_done.load(std::memory_order_relaxed);
           ++k) {
        const Plan& plan = plans[k & (kPlansPerReader - 1)];
        const std::size_t c = plan.column;
        const bool traced = log != nullptr && k % kSpanEvery == 0;
        const auto request = static_cast<std::uint32_t>(rd << 24 | k >> 10);
        const std::int32_t root =
            traced ? log->Begin("planner.plan", request) : -1;
        if (handles[c].epoch() != seen[c]) {
          const std::int32_t span =
              traced ? log->Begin("engine.LeasedSnapshot", request, root) : -1;
          const EngineSnapshot snap = engine.LeasedSnapshot(handles[c]);
          if (span >= 0) log->End(span);
          if (snap.epoch() != seen[c]) {
            seen[c] = snap.epoch();
            const std::uint64_t covered = snap.watermark() - preloaded[c];
            if (covered > 0 && covered <= in.op_index[c].size()) {
              const auto due = start + static_cast<std::uint64_t>(
                  static_cast<double>(in.op_index[c][covered - 1]) * period);
              const std::uint64_t now = Ticks();
              if (now > due) rec.lag_ticks.push_back(static_cast<double>(now - due));
            }
          }
        }
        if (plan.by_handle) {
          const std::int32_t span =
              traced ? log->Begin("engine.EstimateRangeBatch", request, root)
                     : -1;
          engine.EstimateRangeBatch(handles[c], plan.ranges, kPlanRanges,
                                    results);
          if (span >= 0) log->End(span);
        } else {
          for (std::size_t j = 0; j < kPlanRanges; ++j) {
            const std::int32_t span =
                traced ? log->Begin("engine.EstimateRange", request, root) : -1;
            results[j] = engine.EstimateRange(in.names[c], plan.ranges[j].lo,
                                              plan.ranges[j].hi);
            if (span >= 0) log->End(span);
          }
        }
        sink += results[0];
        if (root >= 0) log->End(root);
        rec.estimates += kPlanRanges;
        const std::uint64_t now = Ticks();
        if (k % kLatencyEvery == 0) {
          rec.plan_ticks.push_back(static_cast<double>(now - prev));
        }
        prev = now;
      }
      rec.sink = sink;
    });
  }
  while (ready.load() < kReaders + 1) std::this_thread::yield();
  start = Ticks();
  go.store(true, std::memory_order_release);

  // Main thread: one scrape a second until the writer is done.
  SpanLog* main_log = logs == nullptr ? nullptr : &logs->back();
  double next_scrape = SteadySeconds() + 1.0;
  while (!writer_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (SteadySeconds() < next_scrape) continue;
    next_scrape += 1.0;
    std::string text;
    const std::uint64_t t0 = Ticks();
    engine.WriteMetricsPrometheus(&text);
    const std::uint64_t t1 = Ticks();
    r.scrape_us.push_back(TicksToUs(static_cast<double>(t1 - t0)));
    r.scrape_bytes = static_cast<double>(text.size());
    if (main_log != nullptr) {
      main_log->Add({"engine.WriteMetricsPrometheus", t0, t1, -1, 0});
    }
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t end = Ticks();
  engine.DrainPublishes();
  r.after = engine.Stats();

  std::uint64_t estimates = 0;
  for (const ReaderRecord& rec : readers) {
    out->Check(rec.sink == rec.sink, "serve: an estimate was NaN");
    estimates += rec.estimates;
    for (const double t : rec.plan_ticks) r.plan_us.push_back(TicksToUs(t));
    for (const double t : rec.lag_ticks) r.lag_us.push_back(TicksToUs(t));
  }
  for (const double t : update_ticks) r.update_us.push_back(TicksToUs(t));
  r.max_late_us = TicksToUs(max_late);
  r.throughput = static_cast<double>(estimates) /
                 (TicksToNs(static_cast<double>(end - start)) / 1e9);

  const std::uint64_t refresh_start = Ticks();
  engine.RefreshAll();
  const std::uint64_t refresh_end = Ticks();
  r.refresh_us = TicksToUs(static_cast<double>(refresh_end - refresh_start));
  if (main_log != nullptr) {
    main_log->Add({"engine.RefreshAll", refresh_start, refresh_end, -1, 0});
  }

  // Output checks: the writer issued its full op count, no read went
  // unanswered after setup, mass per column, epochs == publishes.
  out->Check(writer_issued == in.script.size(),
             "serve: writer issued " + std::to_string(writer_issued) + " of " +
                 std::to_string(in.script.size()) + " updates");
  const EngineStats final_stats = engine.Stats();
  const std::uint64_t unknown =
      final_stats.unknown_queries - r.before.unknown_queries;
  out->Check(unknown == 0, "serve: " + std::to_string(unknown) +
                               " reads found no snapshot after setup");
  out->Check(final_stats.snapshot_epoch == final_stats.publishes,
             "serve: summed epochs != publishes");
  double ks_sum = 0.0;
  for (std::size_t c = 0; c < kColumns; ++c) {
    CheckMass(engine, in.names[c], in.truth[c].TotalCount(), out);
    const EngineSnapshot snap = engine.Snapshot(in.names[c]);
    ks_sum += KsStatistic(in.truth[c], snap.model());
  }
  r.ks_mean = ks_sum / kColumns;
  out->attempted += estimates + writer_issued;
  out->failed += unknown + (final_stats.publish_rejected -
                            r.before.publish_rejected);
  return r;
}

}  // namespace

std::uint64_t ServeInputsDigest(std::uint64_t seed, bool smoke) {
  return MakeInputs(seed, smoke).digest;
}

Outcome RunServe(const RunConfig& config) {
  Outcome out;
  const Inputs in = MakeInputs(config.seed, config.smoke);
  out.inputs_digest = Hex(in.digest);
  out.offered_load = "2 closed-loop planners + 1 open-loop writer at 200000 "
                     "updates/s, " +
                     std::to_string(in.script.size()) + " updates per pass";

  std::vector<PassFigures> figures;
  std::vector<double> throughput, traced_throughput, update;
  double max_late_us = 0.0;
  std::vector<SpanLog> logs;
  for (std::size_t rd = 0; rd < kReaders; ++rd) {
    logs.emplace_back("planner-" + std::to_string(rd));
  }
  logs.emplace_back("writer");
  logs.emplace_back("main");
  std::map<std::string, double> layer;
  std::vector<double> scrape_us;
  double scrape_bytes = 0.0, traced_passes = 0.0, refresh_us = 0.0;
  EngineStats delta;  // summed over the traced passes
  double publish_max_us = 0.0;
  PublishStages stages;  // the merge worker's publications
  PassResult last;

  PassSchedule schedule(config);
  while (schedule.Next()) {
    const StealMeter steal;
    PassResult r = RunPass(in, schedule.traced() ? &logs : nullptr, &out);
    if (schedule.warmup()) continue;
    if (!schedule.traced()) {
      throughput.push_back(r.throughput);
      figures.push_back({r.setup_s, r.throughput, Summarize(r.plan_us),
                         Summarize(r.lag_us), r.ks_mean,
                         steal.Share()});
      update.insert(update.end(), r.update_us.begin(), r.update_us.end());
      max_late_us = std::max(max_late_us, r.max_late_us);
      continue;
    }
    traced_throughput.push_back(r.throughput);
    traced_passes += 1;
    refresh_us += r.refresh_us;
    scrape_us.insert(scrape_us.end(), r.scrape_us.begin(), r.scrape_us.end());
    scrape_bytes = r.scrape_bytes;
    delta.publishes += r.after.publishes - r.before.publishes;
    delta.publish_nanos += r.after.publish_nanos - r.before.publish_nanos;
    delta.queue_wait_nanos += r.after.queue_wait_nanos - r.before.queue_wait_nanos;
    delta.publish_queued += r.after.publish_queued - r.before.publish_queued;
    delta.publish_coalesced +=
        r.after.publish_coalesced - r.before.publish_coalesced;
    delta.publish_rejected += r.after.publish_rejected - r.before.publish_rejected;
    delta.lease_hits += r.after.lease_hits - r.before.lease_hits;
    delta.lease_misses += r.after.lease_misses - r.before.lease_misses;
    delta.unknown_queries += r.after.unknown_queries - r.before.unknown_queries;
    publish_max_us = std::max(
        publish_max_us, static_cast<double>(r.after.max_publish_nanos) / 1e3);
    stages.Add(*r.engine, "async");
    last = std::move(r);
  }

  if (!config.trace) {
    const EndToEnd e = EmitEndToEnd(figures, config.smoke, &out);
    const Distribution u = Summarize(update);
    out.report = {
        {"query_ops_per_s", e.throughput_per_s, "estimates/s"},
        {"plan_p50_us", e.latency_p50_us, "us"},
        {"plan_p99_us", e.latency_p99_us, "us"},
        {"fresh_lag_p50_us", e.visible_p50_us, "us"},
        {"fresh_lag_p90_us", e.visible_p90_us, "us"},
        {"ks_mean", e.ks_mean, "1"},
        {"setup_s", e.setup_s, "s"},
        {"writer_update_p50_us", u.p50, "us"},
        {"writer_update_p99_us", u.p99, "us"},
        {"writer_max_late_us", max_late_us, "us"},
        {"plan_samples_per_pass", static_cast<double>(e.latency_n), "count"},
        {"fresh_lag_samples_per_pass", static_cast<double>(e.visible_n), "count"},
    };
    return out;
  }

  std::vector<const SpanLog*> log_ptrs;
  for (const SpanLog& log : logs) log_ptrs.push_back(&log);
  const auto totals = TotalsByName(log_ptrs);
  AppendSpanLines(totals, &out);
  layer["engine.read_handle_ns"] =
      MeanNs(totals, {"engine.EstimateRangeBatch"}) / kPlanRanges;
  layer["engine.read_string_ns"] = MeanNs(totals, {"engine.EstimateRange"});
  // Async publication runs on the merge worker: no inline publish time.
  layer["engine.insert_ns"] = MeanNs(totals, {"engine.Insert", "engine.Delete"});
  const double publishes = static_cast<double>(delta.publishes);
  layer["engine.publishes"] = publishes / traced_passes;
  layer["engine.publish_us"] =
      publishes > 0 ? static_cast<double>(delta.publish_nanos) / publishes / 1e3
                    : 0.0;
  layer["engine.publish_max_us"] = publish_max_us;
  layer["engine.export_us"] = stages.ExportUs();
  layer["engine.merge_us"] = stages.MergeUs();
  const double queued = static_cast<double>(delta.publish_queued);
  const double coalesced = static_cast<double>(delta.publish_coalesced);
  const double rejected = static_cast<double>(delta.publish_rejected);
  layer["engine.queue_wait_us"] =
      queued > 0 ? static_cast<double>(delta.queue_wait_nanos) / queued / 1e3
                 : 0.0;
  layer["engine.coalesced_ratio"] =
      queued + coalesced + rejected > 0
          ? coalesced / (queued + coalesced + rejected)
          : 0.0;
  layer["engine.publish_rejected"] = rejected;
  const double hits = static_cast<double>(delta.lease_hits);
  const double misses = static_cast<double>(delta.lease_misses);
  layer["engine.lease_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  layer["engine.unknown_queries"] = static_cast<double>(delta.unknown_queries);
  layer["engine.refresh_us"] = refresh_us / traced_passes;
  layer["telemetry.scrape_us"] = Median(scrape_us);
  layer["telemetry.scrape_bytes"] = scrape_bytes;

  LadderInputs ladder;
  ladder.options = ServeOptions();
  ladder.preload = in.preload[0];
  AppendColumnOps(in.script, 0, &ladder.oplog);
  ladder.engine = last.engine.get();
  ladder.column = in.names[0];
  for (const Plan& p : in.plans[0]) {
    if (p.column == 0) ladder.plan.insert(ladder.plan.end(), p.ranges,
                                          p.ranges + kPlanRanges);
  }
  ladder.async_replica = false;
  const std::map<std::string, double> measured = RunLadder(ladder, &out);
  for (const auto& [name, value] : measured) layer.emplace(name, value);
  // The read rung compares like with like: unloaded ladder reads next to
  // the unloaded arena; the planners' loaded figures follow it.
  std::map<std::string, double> rungs = layer;
  for (const char* name : {"engine.read_handle_ns", "engine.read_string_ns"}) {
    rungs[name] = measured.at(name);
  }
  AppendLadderLines(rungs, &out);
  char loaded[160];
  std::snprintf(loaded, sizeof(loaded),
                "under load (planner spans): engine.read_handle_ns %.1f, "
                "engine.read_string_ns %.1f",
                layer["engine.read_handle_ns"], layer["engine.read_string_ns"]);
  out.lines.push_back(loaded);
  layer["trace.overhead_pct"] =
      100.0 * (Median(throughput) - Median(traced_throughput)) /
      Median(throughput);
  EmitPerLayer(layer, &out);

  std::string error;
  const std::string path = config.out_dir + "/trace-serve-seed" +
                           std::to_string(config.seed) + ".json";
  out.Check(WriteChromeTrace(path, log_ptrs, &error), error);
  out.lines.push_back("trace written to " + path);
  return out;
}

}  // namespace perfbench
