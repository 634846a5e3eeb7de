// SiteShipper: turns a local engine's published snapshots into frames.
//
// One shipper fronts one site's HistogramEngine. Each Ship() round
// enumerates the engine's keys, encodes a frame for every key whose
// published epoch advanced since the last round, and hands the bytes
// to a caller-supplied sink (a FrameClient, a test vector, a file).
// Unchanged keys are skipped — but skipping is an optimization, not a
// correctness requirement: frames are idempotent under the
// aggregator's max-watermark rule, so `force` (re-ship everything,
// e.g. after a reconnect) is always safe.
//
// The shipper reads only published state (Snapshot(), no shard locks),
// so it can run beside live writers; callers that want the freshest
// view call engine->RefreshAll() first. Not thread-safe per instance —
// one shipper per shipping thread.

#ifndef DYNHIST_DISTRIBUTED_SITE_SHIPPER_H_
#define DYNHIST_DISTRIBUTED_SITE_SHIPPER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/engine/histogram_engine.h"

namespace dynhist::distributed {

class SiteShipper {
 public:
  /// Receives one encoded frame; returns false to abort the round
  /// (e.g. the connection died — the rejected key and the un-shipped
  /// ones stay pending).
  using Sink = std::function<bool(std::string_view frame)>;

  /// `engine` must outlive the shipper. `site_id` stamps every frame.
  SiteShipper(engine::HistogramEngine* engine, std::uint32_t site_id)
      : engine_(engine), site_id_(site_id) {}

  /// Ships every key whose published epoch advanced past the last
  /// shipped one (all published keys when `force`). Never-published
  /// keys (epoch 0) are always skipped — there is nothing to say.
  /// Returns the number of frames `sink` accepted.
  std::size_t Ship(const Sink& sink, bool force = false);

 private:
  engine::HistogramEngine* engine_;
  const std::uint32_t site_id_;
  std::unordered_map<std::string, std::uint64_t> shipped_epoch_;
};

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_SITE_SHIPPER_H_
