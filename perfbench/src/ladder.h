// The layer ladder of the traced run: direct calls into each lower layer,
// one layer at a time and single-threaded, fed the workload's own inputs —
// one column's update log, the final engine's published snapshots and the
// readers' query plan. Each figure is the median of repeated timings.
//
//   histogram   Insert/Delete replay on one shard histogram; held-snapshot
//               arena estimates; CompiledSnapshot::Compile
//   engine      EngineShard::Push on replica shards; PublishExternal
//               (swap); handle and string-keyed estimates; an
//               async-publish replica for the queue figures
//   distributed SnapshotMerger::Superimpose, ReduceWithSsbm, EncodeFrame
//               (through SiteShipper), DecodeFrame, Aggregator::Ingest,
//               FrameClient::ShipFrames to a loopback FrameServer
//   telemetry   WriteMetricsPrometheus
//
// The loaded publish split comes from the engine itself: PublishStages
// reads the flush and merge events its trace ring records per publication.

#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/common.h"
#include "src/dynhist.h"

namespace perfbench {

struct LadderInputs {
  dynhist::engine::EngineOptions options;  ///< the workload's engine options
  std::vector<std::int64_t> preload;       ///< the column's preload, untimed
  std::vector<dynhist::UpdateOp> oplog;    ///< the column's updates, in order
  dynhist::engine::HistogramEngine* engine = nullptr;  ///< final, published
  std::string column;                      ///< the column `plan` queries
  std::vector<dynhist::engine::RangeQuery> plan;
  /// Feed `oplog` through an async-publish replica (workloads that
  /// publish synchronously) for the queue figures.
  bool async_replica = true;
};

/// Runs the ladder; returns per-layer metric values keyed by the
/// BENCHMARK.json per_layer names (the ones the ladder measures). A layer
/// call that fails is a failed check in `out`. The loopback ship also
/// checks the wire: a forced re-ship is all duplicates with no merge, and
/// wire Query answers are == to an in-process replica merge.
std::map<std::string, double> RunLadder(const LadderInputs& in, Outcome* out);

/// The loaded split of the engine's publications, from its own trace ring
/// (EngineOptions::trace_capacity, on by default): each publication
/// records a flush event (the shard export), a merge event (Superimpose +
/// reduce) and the whole publish.
struct PublishStages {
  double publishes = 0.0;
  double export_ns = 0.0;
  double merge_ns = 0.0;

  /// Adds the events of `engine`'s publications with `trigger` ("sync":
  /// inline on a writer, "async": on the merge worker). The ring keeps the
  /// newest events, so a long pass contributes its latest publications.
  void Add(const dynhist::engine::HistogramEngine& engine,
           std::string_view trigger);
  /// Mean µs per publication (0 before any).
  double ExportUs() const { return publishes > 0 ? export_ns / publishes / 1e3 : 0.0; }
  double MergeUs() const { return publishes > 0 ? merge_ns / publishes / 1e3 : 0.0; }
};

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Moves `values` into `out->per_layer` in canonical order; a missing
/// metric is a failed check (the workload forgot to derive it).
void EmitPerLayer(const std::map<std::string, double>& values, Outcome* out);

/// The ladder lines: each layer next to the layer below it, and the
/// loaded publish against its stages with the unexplained remainder.
void AppendLadderLines(const std::map<std::string, double>& values,
                       Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
