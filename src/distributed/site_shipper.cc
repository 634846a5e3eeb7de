#include "src/distributed/site_shipper.h"

#include "src/distributed/frame.h"

namespace dynhist::distributed {

std::size_t SiteShipper::Ship(const Sink& sink, bool force) {
  std::size_t shipped = 0;
  for (const std::string& key : engine_->Keys()) {
    const engine::EngineSnapshot snap = engine_->Snapshot(key);
    if (snap.epoch() == 0) continue;
    std::uint64_t& last = shipped_epoch_[key];
    if (!force && snap.epoch() <= last) continue;
    FrameHeader header;
    header.site_id = site_id_;
    header.key = key;
    header.epoch = snap.epoch();
    header.watermark = snap.watermark();
    const std::string frame = EncodeFrame(header, snap.model());
    // Only an accepted frame counts as shipped: a rejected key keeps its
    // old epoch, so the next round offers it again.
    if (!sink(frame)) break;
    if (last < snap.epoch()) last = snap.epoch();
    ++shipped;
  }
  return shipped;
}

}  // namespace dynhist::distributed
