#include "src/histogram/merge.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/histogram/ssbm.h"

namespace dynhist {

namespace {

// Pieces whose density (the mass of one integer cell) falls below this are
// empty space to the reduction.
constexpr double kMinDensity = 1e-12;

}  // namespace

void SnapshotMerger::SweepInto(const std::vector<HistogramModel>& models) {
  pieces_.clear();
  cursors_.clear();
  DH_DCHECK(heap_.empty());
  for (const HistogramModel& m : models) {
    if (m.Empty()) continue;
    Cursor c;
    c.pieces = &m.pieces();
    c.x = m.pieces().front().left;
    cursors_.push_back(c);
    heap_.push({c.x, static_cast<std::uint32_t>(cursors_.size() - 1)});
  }
  if (cursors_.empty()) return;

  // k-way sweep: pop the globally next border, emit the elementary range it
  // closes, apply the border's density/coverage deltas, and re-queue the
  // cursor's next event. Each piece costs two heap rounds — O(total pieces
  // * log models) overall, independent of range widths and of the domain.
  double density = 0.0;  // sum of the densities of the covering pieces
  int coverage = 0;      // number of covering pieces
  double cur_x = 0.0;
  bool started = false;
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    Cursor& c = cursors_[top.cursor];
    if (started && top.x > cur_x) {
      if (coverage > 0) {
        // Zero-mass but covered ranges keep a piece: the merged support is
        // exactly the union of the inputs' supports. The density clamp
        // absorbs residual negative rounding from the on/off deltas.
        pieces_.push_back(
            {cur_x, top.x, std::max(0.0, density) * (top.x - cur_x)});
      }
      cur_x = top.x;
    } else if (!started) {
      cur_x = top.x;
      started = true;
    }
    const HistogramModel::Piece& p = (*c.pieces)[c.index];
    if (!c.at_right) {
      c.active_density = p.Density();
      density += c.active_density;
      ++coverage;
      c.at_right = true;
      c.x = std::max(c.x, p.right);
      heap_.push({c.x, top.cursor});
    } else {
      density -= c.active_density;
      --coverage;
      ++c.index;
      if (c.index < c.pieces->size()) {
        c.at_right = false;
        // Clamp against the model's 1e-9 overlap tolerance so per-cursor
        // event positions stay monotone.
        c.x = std::max(c.x, (*c.pieces)[c.index].left);
        heap_.push({c.x, top.cursor});
      }
    }
  }
  DH_DCHECK(coverage == 0);
}

HistogramModel SnapshotMerger::Superimpose(
    const std::vector<HistogramModel>& models) {
  SweepInto(models);
  if (pieces_.empty()) return HistogramModel();
  std::vector<HistogramModel::Piece> pieces(pieces_);  // scratch stays warm
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

HistogramModel SnapshotMerger::MergeAndReduce(
    const std::vector<HistogramModel>& models, std::int64_t buckets) {
  if (buckets <= 0) return Superimpose(models);
  SweepInto(models);
  slices_.clear();
  for (const HistogramModel::Piece& p : pieces_) {
    if (p.Density() > kMinDensity) slices_.push_back(p);
  }
  if (slices_.empty()) return HistogramModel();
  return BuildSsbm(slices_, buckets);
}

HistogramModel Superimpose(const std::vector<HistogramModel>& models) {
  SnapshotMerger merger;
  return merger.Superimpose(models);
}

HistogramModel ReduceWithSsbm(const HistogramModel& model,
                              std::int64_t buckets) {
  std::vector<HistogramModel::Piece> slices;
  slices.reserve(model.NumPieces());
  for (const HistogramModel::Piece& p : model.pieces()) {
    if (p.Density() > kMinDensity) slices.push_back(p);
  }
  if (slices.empty()) return HistogramModel();
  return BuildSsbm(slices, buckets);
}

}  // namespace dynhist
