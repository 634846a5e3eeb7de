#include "perfbench/src/ladder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <utility>

#include "perfbench/src/inputs.h"

namespace perfbench {
namespace {

using namespace dynhist;
using namespace dynhist::engine;
using namespace dynhist::distributed;

// Runs `body` at least `min_reps` times and for at least 100 ms; returns
// the median ns per call divided by `per_call` (items the body handles).
template <typename Body>
double MedianNs(Body body, double per_call = 1.0, std::size_t min_reps = 5) {
  std::vector<double> samples;
  const auto budget = static_cast<std::uint64_t>(100e6 * TicksPerNs());
  const std::uint64_t begin = Ticks();
  while (samples.size() < min_reps ||
         (Ticks() - begin < budget && samples.size() < 100'000)) {
    const std::uint64_t t0 = Ticks();
    body();
    const std::uint64_t t1 = Ticks();
    samples.push_back(TicksToNs(static_cast<double>(t1 - t0)) /
                      std::max(per_call, 1.0));
  }
  return Median(samples);
}

void ApplyToHistogram(const UpdateOp& op, Histogram* h) {
  if (op.kind == UpdateOp::Kind::kInsert) {
    h->Insert(op.value);
  } else {
    h->Delete(op.value, 1);  // the engine's live-copies convention
  }
}

// Checks the wire once `frames` (one site's) are applied: a forced re-ship
// is all duplicates and merges nothing, and wire Query answers are == to
// an in-process replica merge (decode, MergeAndReduce, Compile) of the
// shipped column, over up to 256 of the plan's ranges.
void CheckWire(const LadderInputs& in, const std::vector<std::string>& frames,
               FrameServer* server, FrameClient* client, Outcome* out) {
  const std::uint64_t merges = server->aggregator().merges();
  std::size_t applied = 0, duplicate = 0, rejected = 0;
  const bool shipped =
      client->ShipFrames(frames, &applied, &duplicate, &rejected);
  out->attempted += frames.size();
  out->failed += (shipped ? 0 : 1) + rejected;
  out->Check(shipped && duplicate == frames.size() &&
                 server->aggregator().merges() == merges,
             "ladder: a forced re-ship was not all duplicates with no merge");

  std::vector<HistogramModel> models;
  for (const std::string& f : frames) {
    DecodedFrame decoded;
    if (DecodeFrame(f, &decoded) == FrameError::kOk &&
        decoded.header.key == in.column && !decoded.pieces.empty()) {
      models.push_back(decoded.ToModel());
    }
  }
  SnapshotMerger merger;
  const CompiledSnapshot replica = CompiledSnapshot::Compile(
      merger.MergeAndReduce(models, Aggregator::Options().merged_buckets));
  std::size_t compared = 0, mismatches = 0;
  for (const engine::RangeQuery& q : in.plan) {
    if (compared == 256) break;
    double wire = 0.0;
    if (!client->Query(in.column, q.lo, q.hi, &wire)) {
      out->failed += 1;
      break;
    }
    ++compared;
    if (wire != replica.EstimateRange(q.lo, q.hi)) ++mismatches;
  }
  out->attempted += compared;
  out->Check(compared > 0 && mismatches == 0,
             "ladder: " + std::to_string(mismatches) + " of " +
                 std::to_string(compared) +
                 " wire answers differ from the replica merge");
}

}  // namespace

std::map<std::string, double> RunLadder(const LadderInputs& in, Outcome* out) {
  std::map<std::string, double> m;
  const double ops = static_cast<double>(std::max<std::size_t>(1, in.oplog.size()));
  double sink = 0.0;  // keeps the timed estimates observable

  // histogram: one shard histogram replays the column's log.
  {
    std::unique_ptr<Histogram> h = MakeShardHistogram(in.options);
    for (const std::int64_t v : in.preload) h->Insert(v);
    const std::uint64_t t0 = Ticks();
    for (const UpdateOp& op : in.oplog) ApplyToHistogram(op, h.get());
    m["histogram.update_ns"] = TicksToNs(static_cast<double>(Ticks() - t0)) / ops;
  }

  // engine: replica shards fed the same log, batch apply amortized in.
  std::vector<std::unique_ptr<EngineShard>> shards;
  for (int s = 0; s < in.options.shards; ++s) {
    shards.push_back(std::make_unique<EngineShard>(in.options));
  }
  const auto route = [&](std::int64_t v) -> EngineShard& {
    return *shards[MixSeed(static_cast<std::uint64_t>(v), 0) % shards.size()];
  };
  for (const std::int64_t v : in.preload) route(v).Push(UpdateOp::Insert(v));
  for (const auto& shard : shards) shard->Flush();
  {
    const std::uint64_t t0 = Ticks();
    for (const UpdateOp& op : in.oplog) route(op.value).Push(op);
    m["engine.shard_push_ns"] =
        TicksToNs(static_cast<double>(Ticks() - t0)) / ops;
  }
  // The publish stages after the export (the export itself is timed under
  // load by the engine: PublishStages), on the replica shards' models.
  std::vector<HistogramModel> models;
  for (const auto& shard : shards) {
    HistogramModel model = shard->ExportModel();
    if (!model.Empty()) models.push_back(std::move(model));
  }
  SnapshotMerger merger;
  HistogramModel composite;
  m["distributed.superimpose_us"] =
      MedianNs([&] { composite = merger.Superimpose(models); }) / 1e3;
  m["histogram.pieces"] = static_cast<double>(composite.NumPieces());
  HistogramModel reduced;
  m["distributed.reduce_us"] = MedianNs([&] {
                                 reduced = ReduceWithSsbm(
                                     composite, in.options.merged_buckets);
                               }) / 1e3;
  m["histogram.compile_us"] = MedianNs([&] {
                                const CompiledSnapshot compiled =
                                    CompiledSnapshot::Compile(reduced);
                                sink += compiled.TotalCount();
                              }) / 1e3;
  {
    EngineOptions scratch_options;
    scratch_options.snapshot_every = 0;
    HistogramEngine scratch(scratch_options);
    std::vector<double> publish_ns;
    for (std::uint64_t rep = 1; rep <= 200; ++rep) {
      HistogramModel copy = reduced;
      const std::uint64_t t0 = Ticks();
      scratch.PublishExternal("ladder", std::move(copy), rep);
      publish_ns.push_back(TicksToNs(static_cast<double>(Ticks() - t0)));
    }
    m["engine.swap_us"] =
        Median(publish_ns) / 1e3 - m["histogram.compile_us"];
  }

  // Reads: held snapshot (arena), handle, string key — one plan each.
  {
    const double queries = static_cast<double>(in.plan.size());
    const EngineSnapshot held = in.engine->Snapshot(in.column);
    m["histogram.arena_ns"] = MedianNs(
        [&] {
          double s = 0.0;
          for (const engine::RangeQuery& q : in.plan) s += held.EstimateRange(q.lo, q.hi);
          sink += s;
        },
        queries);
    const KeyHandle handle = in.engine->Resolve(in.column);
    m["engine.read_handle_ns"] = MedianNs(
        [&] {
          double s = 0.0;
          for (const engine::RangeQuery& q : in.plan) {
            s += in.engine->EstimateRange(handle, q.lo, q.hi);
          }
          sink += s;
        },
        queries);
    m["engine.read_string_ns"] = MedianNs(
        [&] {
          double s = 0.0;
          for (const engine::RangeQuery& q : in.plan) {
            s += in.engine->EstimateRange(in.column, q.lo, q.hi);
          }
          sink += s;
        },
        queries);
  }

  // distributed: the final engine's snapshots as site 1's frames — encode,
  // decode, aggregator merge, and the loopback ship for the ack.
  std::vector<std::string> frames;
  {
    SiteShipper shipper(in.engine, 1);
    std::size_t count = 0;
    m["distributed.encode_us"] =
        MedianNs([&] {
          frames.clear();
          count = shipper.Ship(
              [&](std::string_view f) {
                frames.emplace_back(f);
                return true;
              },
              /*force=*/true);
        }) /
        1e3 / static_cast<double>(std::max<std::size_t>(1, count));
    double bytes = 0.0;
    for (const std::string& f : frames) bytes += static_cast<double>(f.size());
    m["distributed.frame_bytes"] =
        bytes / static_cast<double>(std::max<std::size_t>(1, frames.size()));
  }
  out->Check(!frames.empty(), "ladder: no frames to decode");
  if (frames.empty()) return m;
  const double nframes = static_cast<double>(frames.size());
  {
    DecodedFrame decoded;
    bool ok = true;
    m["distributed.decode_us"] =
        MedianNs([&] {
          for (const std::string& f : frames) {
            ok = ok && DecodeFrame(f, &decoded) == FrameError::kOk;
          }
        }, nframes, 3) / 1e3;
    out->Check(ok, "ladder: a shipped frame failed to decode");
  }
  {
    std::vector<double> per_frame_ns;
    const std::uint64_t begin = Ticks();
    const auto budget = static_cast<std::uint64_t>(50e6 * TicksPerNs());
    while (per_frame_ns.size() < 3 ||
           (Ticks() - begin < budget && per_frame_ns.size() < 200)) {
      Aggregator replica;
      const std::uint64_t t0 = Ticks();
      for (const std::string& f : frames) replica.Ingest(f);
      per_frame_ns.push_back(TicksToNs(static_cast<double>(Ticks() - t0)) /
                             nframes);
      m["distributed.applied_ratio"] =
          static_cast<double>(replica.frames_applied()) /
          static_cast<double>(replica.frames_received());
      m["distributed.merges"] = static_cast<double>(replica.merges());
    }
    m["distributed.aggregator_us"] = Median(per_frame_ns) / 1e3;
  }
  // The loopback ship, timed per frame for the ack; the last server also
  // checks the wire's answers.
  {
    constexpr int kReps = 5;
    std::vector<double> per_frame_ns;
    for (int rep = 0; rep < kReps; ++rep) {
      FrameServer server;
      FrameClient client;
      std::string error;
      if (!server.Start(&error) ||
          !client.Connect("127.0.0.1", server.port(), &error)) {
        out->Check(false, "ladder: loopback server: " + error);
        out->failed += 1;
        break;
      }
      std::size_t applied = 0, duplicate = 0, rejected = 0;
      const std::uint64_t t0 = Ticks();
      const bool ok = client.ShipFrames(frames, &applied, &duplicate, &rejected);
      per_frame_ns.push_back(TicksToNs(static_cast<double>(Ticks() - t0)) /
                             nframes);
      out->attempted += frames.size();
      out->failed += (ok ? 0 : 1) + rejected;
      out->Check(ok && applied == frames.size(),
                 "ladder: loopback ship did not apply every frame");
      if (ok && rep == kReps - 1) CheckWire(in, frames, &server, &client, out);
      client.Close();
      server.Stop();
    }
    m["distributed.ack_us"] =
        Median(per_frame_ns) / 1e3 - m["distributed.aggregator_us"];
  }

  // telemetry: one Prometheus scrape of the workload's engine.
  {
    std::string text;
    m["telemetry.scrape_us"] = MedianNs([&] {
                                 text.clear();
                                 in.engine->WriteMetricsPrometheus(&text);
                               }) / 1e3;
    m["telemetry.scrape_bytes"] = static_cast<double>(text.size());
  }

  // engine publish queue: an async replica (1 merge worker, cadence 1024)
  // fed the column's log by one closed-loop writer.
  if (in.async_replica) {
    EngineOptions options = in.options;
    options.async_publish = true;
    options.merge_workers = 1;
    options.snapshot_every = 1024;
    HistogramEngine replica(options);
    replica.InsertBatch(in.column, in.preload);
    replica.DrainPublishes();
    const EngineStats s0 = replica.Stats();
    for (const UpdateOp& op : in.oplog) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        replica.Insert(in.column, op.value);
      } else {
        replica.Delete(in.column, op.value);
      }
    }
    replica.DrainPublishes();
    const EngineStats s1 = replica.Stats();
    const double queued = static_cast<double>(s1.publish_queued - s0.publish_queued);
    const double coalesced =
        static_cast<double>(s1.publish_coalesced - s0.publish_coalesced);
    const double rejected =
        static_cast<double>(s1.publish_rejected - s0.publish_rejected);
    m["engine.queue_wait_us"] =
        queued > 0 ? static_cast<double>(s1.queue_wait_nanos -
                                         s0.queue_wait_nanos) /
                         queued / 1e3
                   : 0.0;
    const double trips = queued + coalesced + rejected;
    m["engine.coalesced_ratio"] = trips > 0 ? coalesced / trips : 0.0;
  }
  out->Check(std::isfinite(sink), "ladder: a timed estimate was not finite");
  return m;
}

void PublishStages::Add(const HistogramEngine& engine,
                        std::string_view trigger) {
  using telemetry::TraceEventKind;
  for (const telemetry::TraceEvent& e : engine.trace().Events()) {
    if (trigger != e.trigger) continue;
    const auto ns = static_cast<double>(e.duration_ns);
    if (e.kind == TraceEventKind::kPublish) publishes += 1.0;
    if (e.kind == TraceEventKind::kFlush) export_ns += ns;
    if (e.kind == TraceEventKind::kMerge) merge_ns += ns;
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"histogram.update_ns", "ns"},
      {"histogram.arena_ns", "ns"},
      {"histogram.compile_us", "us"},
      {"histogram.pieces", "count"},
      {"engine.shard_push_ns", "ns"},
      {"engine.insert_ns", "ns"},
      {"engine.publishes", "count"},
      {"engine.publish_us", "us"},
      {"engine.publish_max_us", "us"},
      {"engine.export_us", "us"},
      {"engine.merge_us", "us"},
      {"engine.swap_us", "us"},
      {"engine.queue_wait_us", "us"},
      {"engine.coalesced_ratio", "ratio"},
      {"engine.publish_rejected", "count"},
      {"engine.read_handle_ns", "ns"},
      {"engine.read_string_ns", "ns"},
      {"engine.lease_hit_ratio", "ratio"},
      {"engine.unknown_queries", "count"},
      {"engine.refresh_us", "us"},
      {"distributed.superimpose_us", "us"},
      {"distributed.reduce_us", "us"},
      {"distributed.encode_us", "us"},
      {"distributed.frame_bytes", "bytes"},
      {"distributed.decode_us", "us"},
      {"distributed.aggregator_us", "us"},
      {"distributed.ack_us", "us"},
      {"distributed.applied_ratio", "ratio"},
      {"distributed.merges", "count"},
      {"telemetry.scrape_us", "us"},
      {"telemetry.scrape_bytes", "bytes"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values, Outcome* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    out->Check(it != values.end(), "per-layer metric " + name + " not derived");
    out->per_layer.push_back(
        {name, it == values.end() ? 0.0 : it->second, unit});
  }
}

void AppendLadderLines(const std::map<std::string, double>& v,
                       Outcome* out) {
  const auto get = [&](const char* key) {
    const auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  };
  char line[512];
  const auto rung3 = [&](const char* title, const char* a, const char* b,
                         const char* c) {
    const double x = get(a), y = get(b), z = get(c);
    std::snprintf(line, sizeof(line),
                  "ladder %-8s %s %.1f | %s %.1f (adds %+.1f) | %s %.1f "
                  "(adds %+.1f)",
                  title, a, x, b, y, y - x, c, z, z - y);
    out->lines.push_back(line);
  };
  rung3("update", "histogram.update_ns", "engine.shard_push_ns",
        "engine.insert_ns");
  rung3("read", "histogram.arena_ns", "engine.read_handle_ns",
        "engine.read_string_ns");

  // The loaded publish: export and merge from the engine's trace, the
  // short tail (compile, swap) from the ladder.
  const double exported = get("engine.export_us"), merged = get("engine.merge_us");
  const double compile = get("histogram.compile_us"), swap = get("engine.swap_us");
  const double stages = exported + merged + compile + swap;
  const double publish = get("engine.publish_us");
  std::snprintf(line, sizeof(line),
                "ladder publish  export %.1f + merge %.1f (engine trace, "
                "loaded) + compile %.1f + swap %.1f (ladder) = %.1f us vs "
                "engine.publish_us %.1f: remainder %+.1f us (%+.1f%%)",
                exported, merged, compile, swap, stages, publish,
                publish - stages,
                publish > 0 ? 100.0 * (publish - stages) / publish : 0.0);
  out->lines.push_back(line);
  const double superimpose = get("distributed.superimpose_us");
  const double reduce = get("distributed.reduce_us");
  std::snprintf(line, sizeof(line),
                "ladder merge    superimpose %.1f + reduce %.1f = %.1f us "
                "unloaded (ladder) vs engine.merge_us %.1f loaded: load adds "
                "%+.1f us (%+.1f%%)",
                superimpose, reduce, superimpose + reduce, merged,
                merged - superimpose - reduce,
                merged > 0 ? 100.0 * (merged - superimpose - reduce) / merged
                           : 0.0);
  out->lines.push_back(line);

  const double encode = get("distributed.encode_us");
  const double aggregate = get("distributed.aggregator_us");
  const double ack = get("distributed.ack_us");
  std::snprintf(line, sizeof(line),
                "ladder ship     encode %.1f + aggregator %.1f + ack %.1f = "
                "%.1f us per frame (loopback)",
                encode, aggregate, ack, encode + aggregate + ack);
  out->lines.push_back(line);
}

}  // namespace perfbench
