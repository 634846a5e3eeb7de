#include "src/distributed/site_shipper.h"

#include "src/distributed/frame.h"

namespace dynhist::distributed {

std::size_t SiteShipper::Ship(const Sink& sink, bool force) {
  std::size_t shipped = 0;
  for (const std::string& key : engine_->Keys()) {
    const engine::EngineSnapshot snap = engine_->Snapshot(key);
    if (snap.epoch() == 0) {
      ++frames_skipped_;
      continue;
    }
    std::uint64_t& last = shipped_epoch_[key];
    if (!force && snap.epoch() <= last) {
      ++frames_skipped_;
      continue;
    }
    FrameHeader header;
    header.site_id = site_id_;
    header.key = key;
    header.epoch = snap.epoch();
    header.watermark = snap.watermark();
    // Encoding the model or the snapshot's compiled arena yields
    // byte-identical frames.
    const std::string frame = EncodeFrame(header, snap.model());
    if (last < snap.epoch()) last = snap.epoch();
    ++frames_shipped_;
    bytes_shipped_ += frame.size();
    ++shipped;
    if (!sink(frame)) break;
  }
  return shipped;
}

}  // namespace dynhist::distributed
