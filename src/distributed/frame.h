// Snapshot frames: the distributed tier's wire format.
//
// A frame carries one key's published histogram from a site to the
// aggregator — exactly the CompiledSnapshot arena contents (ascending
// piece right borders plus {left, count, width, prefix} rows and the
// total-mass sentinel), the contiguous border/cumulative-mass
// serialization HistogramTools (arXiv 2504.00001) describes — prefixed
// by a {site_id, key, epoch, watermark} header and suffixed by an
// FNV-1a 64 checksum. Everything is explicit little-endian (doubles as
// IEEE-754 bit patterns), so a frame means the same bytes on every
// host; re-encoding a decoded frame reproduces it bit for bit.
//
//     offset  size        field
//     0       4           magic "DHF" + version byte '1'
//     4       4           site_id                u32 LE
//     8       4           key length K           u32 LE  (<= 4096)
//     12      4           piece count n          u32 LE  (<= 2^22)
//     16      8           epoch                  u64 LE
//     24      8           watermark              u64 LE
//     32      8           total mass             f64 LE
//     40      K           key bytes
//     40+K    n*8         piece right borders, strictly ascending  f64 LE
//     ...     (n+1)*32    rows {left, count, width, prefix}, the
//                         last being the sentinel {max_border, 0, 1,
//                         total}                 f64 LE each
//     end-8   8           FNV-1a 64 over all preceding bytes  u64 LE
//
// Decoding is paranoid by construction: frames arrive from the network,
// and HistogramModel's constructor DH_CHECK-aborts on malformed pieces,
// so every invariant — length arithmetic, checksum, border order, piece
// geometry, the exact prefix-sum chain, the sentinel — is validated
// with a typed FrameError BEFORE any model object is built. A decoder
// never aborts and never allocates proportional to attacker-controlled
// declared sizes (lengths are checked against the actual byte count
// first).
//
// The watermark is the idempotence key: it is the site key's
// accepted-update count at publication (VersionedModel::watermark), so
// under the "publish newest state" semantics a frame is a pure
// function of how much of the site's stream it covers, and the
// aggregator keeps only the max watermark per (site, key) — re-sent or
// reordered stale frames are no-ops.

#ifndef DYNHIST_DISTRIBUTED_FRAME_H_
#define DYNHIST_DISTRIBUTED_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/histogram/model.h"

namespace dynhist::distributed {

/// Why a frame failed to decode. Every rejection is typed so transport
/// counters and tests can tell corruption modes apart.
enum class FrameError {
  kOk = 0,
  kTruncated,        ///< shorter than the fixed header + trailer
  kBadMagic,         ///< first bytes are not "DHF"
  kBadVersion,       ///< "DHF" but an unknown version byte
  kBadLength,        ///< declared key/piece sizes exceed caps or
                     ///< disagree with the actual byte count (short)
  kTrailingGarbage,  ///< byte count exceeds the declared layout
  kBadChecksum,      ///< FNV-1a mismatch (any bit flip lands here)
  kBadBorders,       ///< borders not strictly ascending / not finite /
                     ///< piece geometry broken (width <= 0 or
                     ///< width != right - left, overlapping lefts)
  kBadCount,         ///< a piece count is negative or not finite
  kBadPrefix,        ///< prefix chain is not the exact running sum
  kBadSentinel,      ///< sentinel row is not {max_border, 0, 1, total}
  kBadTotal,         ///< header total disagrees with the summed mass
};

/// Stable name for logs and test diagnostics, e.g. "bad_checksum".
const char* FrameErrorName(FrameError error);

/// The frame's identity: which site, which key, and how fresh.
struct FrameHeader {
  std::uint32_t site_id = 0;
  std::string key;
  std::uint64_t epoch = 0;      ///< site-local publication epoch
  std::uint64_t watermark = 0;  ///< site updates this snapshot covers
};

/// A fully validated decode: the header plus the model pieces
/// reconstructed from the border/row arrays. Only produced when every
/// invariant held, so ToModel() cannot trip the model's checks.
struct DecodedFrame {
  FrameHeader header;
  double total = 0.0;
  std::vector<HistogramModel::Piece> pieces;

  /// The pieces as a model (one single-piece bucket each — the bucket
  /// grouping is not shipped; superposition only reads pieces).
  HistogramModel ToModel() const;
};

inline constexpr std::size_t kFrameHeaderBytes = 40;
inline constexpr std::size_t kFrameTrailerBytes = 8;
inline constexpr std::size_t kMaxFrameKeyBytes = 4096;
inline constexpr std::size_t kMaxFramePieces = std::size_t{1} << 22;

/// Exact encoded size of a frame with a K-byte key and n pieces.
constexpr std::size_t FrameBytesFor(std::size_t key_len,
                                    std::size_t pieces) {
  return kFrameHeaderBytes + key_len + pieces * 8 + (pieces + 1) * 32 +
         kFrameTrailerBytes;
}

/// Encodes `model` under `header`. The payload arrays are exactly what
/// CompiledSnapshot::Compile(model) would hold (same subtraction for
/// widths, prefix masses accumulated in model order). An empty model
/// encodes as a zero-piece, zero-mass frame; to ship a published
/// snapshot, encode its model().
std::string EncodeFrame(const FrameHeader& header,
                        const HistogramModel& model);

/// Validates and decodes `bytes` into `*out`. On any error `*out` is
/// left in an unspecified-but-valid state and the typed reason is
/// returned; kOk means every invariant in the file comment held.
FrameError DecodeFrame(std::string_view bytes, DecodedFrame* out);

namespace frame_internal {

/// FNV-1a 64-bit over `size` bytes (the frame checksum primitive;
/// exposed so tests can corrupt a field and re-seal the frame).
std::uint64_t Fnv1a64(const void* data, std::size_t size);

/// Recomputes and rewrites the trailing checksum of an encoded frame
/// (frame->size() must be at least the header + trailer).
void PatchChecksum(std::string* frame);

/// Overwrites the epoch / watermark header fields of an encoded frame
/// WITHOUT resealing it (callers patch, then PatchChecksum) — the bench
/// uses this to synthesize a fresh-watermark stream from one payload.
void PatchEpoch(std::string* frame, std::uint64_t epoch);
void PatchWatermark(std::string* frame, std::uint64_t watermark);

}  // namespace frame_internal

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_FRAME_H_
