#include "src/distributed/aggregator.h"

#include <algorithm>
#include <utility>

#include "src/telemetry/exposition.h"

namespace dynhist::distributed {
namespace {

engine::EngineOptions GlobalViewDefaults() {
  engine::EngineOptions o;
  // Nothing flows through this engine's shards: the aggregator
  // publishes externally, so ingest cadence and async machinery are
  // dead weight. One shard per key is enough: a key builds every shard's
  // histogram at creation, and 8 empty DADO shards nearly double the
  // memory of a key holding one 64-piece view. Compilation stays on —
  // the whole point is that global queries ride the arena fast path.
  o.shards = 1;
  o.snapshot_every = 0;
  o.async_publish = false;
  o.merge_workers = 0;
  return o;
}

}  // namespace

Aggregator::Options::Options() : engine(GlobalViewDefaults()) {}

Aggregator::Aggregator(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      engine_(options_.engine) {}

std::uint64_t Aggregator::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::size_t Aggregator::NumSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_stats_.size();
}

std::size_t Aggregator::NumKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

Aggregator::IngestResult Aggregator::Ingest(std::string_view frame_bytes,
                                            FrameError* frame_error) {
  DecodedFrame decoded;
  const FrameError err = DecodeFrame(frame_bytes, &decoded);
  if (frame_error != nullptr) *frame_error = err;
  frames_received_.fetch_add(1);
  bytes_received_.fetch_add(frame_bytes.size());
  if (err != FrameError::kOk) {
    frames_rejected_.fetch_add(1);
    return IngestResult::kRejected;
  }

  std::lock_guard<std::mutex> lock(mu_);
  SiteStats& site = site_stats_[decoded.header.site_id];
  ++site.frames_received;
  site.bytes_received += frame_bytes.size();
  site.last_frame_ns = NowNs();

  KeyEntry& entry = keys_[decoded.header.key];
  const std::uint32_t site_id = decoded.header.site_id;
  const auto it = std::lower_bound(
      entry.sites.begin(), entry.sites.end(), site_id,
      [](const SiteMark& mark, std::uint32_t id) { return mark.site_id < id; });
  const auto index = static_cast<std::size_t>(it - entry.sites.begin());
  if (it == entry.sites.end() || it->site_id != site_id) {
    entry.sites.insert(it, SiteMark{site_id, 0});
    entry.models.insert(entry.models.begin() + index, HistogramModel());
  } else if (decoded.header.watermark <= it->watermark) {
    // Max-watermark idempotence: re-sends and reordered stale frames
    // never reach the merge path.
    frames_duplicate_.fetch_add(1);
    ++site.frames_duplicate;
    return IngestResult::kDuplicate;
  }
  entry.sites[index].watermark = decoded.header.watermark;
  entry.models[index] = decoded.ToModel();
  frames_applied_.fetch_add(1);
  ++site.frames_applied;

  // Re-merge every site's latest model for this key — k sites through
  // the same sweep + SSBM reduction k shards take (the sweep skips empty
  // models) — and republish the global view. The global watermark is the
  // summed site watermarks: "site updates this view covers".
  std::uint64_t watermark = 0;
  for (const SiteMark& mark : entry.sites) watermark += mark.watermark;
  HistogramModel merged =
      entry.merger.MergeAndReduce(entry.models, options_.merged_buckets);
  merges_.fetch_add(1);
  engine_.PublishExternal(decoded.header.key, std::move(merged), watermark);
  return IngestResult::kApplied;
}

void Aggregator::WriteMetricsPrometheus(std::string* out) const {
  using telemetry::MetricKind;
  telemetry::MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.Add("dynhist_agg_frames_rejected_total",
                 "Frames that failed validation (truncated/corrupt/stale "
                 "format)",
                 MetricKind::kCounter, {}, frames_rejected_.load());
    snapshot.Add("dynhist_agg_merges_total",
                 "Superimpose+reduce+publish rounds run over the site models",
                 MetricKind::kCounter, {}, merges_.load());
    snapshot.Add("dynhist_agg_sites",
                 "Distinct sites that have shipped frames",
                 MetricKind::kGauge, {}, site_stats_.size());
    snapshot.Add("dynhist_agg_keys",
                 "Distinct keys with at least one site slot",
                 MetricKind::kGauge, {}, keys_.size());
    const std::uint64_t now = NowNs();
    for (const auto& [site_id, site] : site_stats_) {
      const telemetry::Labels labels = {{"site", std::to_string(site_id)}};
      snapshot.Add("dynhist_agg_frames_received_total",
                   "Frames received from the site", MetricKind::kCounter,
                   labels, site.frames_received);
      snapshot.Add("dynhist_agg_frames_applied_total",
                   "Frames that advanced a (site, key) watermark",
                   MetricKind::kCounter, labels, site.frames_applied);
      snapshot.Add("dynhist_agg_frames_duplicate_total",
                   "Frames dropped because the watermark did not advance",
                   MetricKind::kCounter, labels, site.frames_duplicate);
      snapshot.Add("dynhist_agg_bytes_received_total",
                   "Frame bytes received", MetricKind::kCounter, labels,
                   site.bytes_received);
      snapshot.Add(
          "dynhist_agg_site_staleness_seconds",
          "Seconds since the site's last frame arrived", MetricKind::kGauge,
          labels,
          site.last_frame_ns == 0 ? 0.0 : (now - site.last_frame_ns) / 1e9);
    }
  }
  engine_.CollectMetrics(&snapshot);
  telemetry::WritePrometheus(snapshot, out);
}

}  // namespace dynhist::distributed
