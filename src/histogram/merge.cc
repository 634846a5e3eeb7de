#include "src/histogram/merge.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/histogram/ssbm.h"

namespace dynhist {

void SnapshotMerger::SweepInto(const std::vector<HistogramModel>& models) {
  pieces_.clear();
  cursors_.clear();
  for (const HistogramModel& m : models) {
    if (m.Empty()) continue;
    Cursor c;
    c.pieces = &m.pieces();
    c.x = m.pieces().front().left;
    cursors_.push_back(c);
  }
  if (cursors_.empty()) return;
  next_.Reset(cursors_.size());
  for (std::size_t i = 0; i < cursors_.size(); ++i) {
    next_.Set(i, cursors_[i].x);
  }
  next_.Repair(0, cursors_.size() - 1);

  // k-way sweep: take the globally next border (ties to the lowest cursor),
  // emit the elementary range it closes, apply the border's density and
  // coverage deltas, and re-key the cursor's slot with its next event. Each
  // piece costs at most two slot repairs — O(total pieces * log models)
  // overall, independent of range widths and of the domain.
  double density = 0.0;  // sum of the densities of the covering pieces
  int coverage = 0;      // number of covering pieces
  int massive = 0;       // number of covering pieces with count > 0
  double cur_x = next_.Winner().key;
  for (auto top = next_.Winner(); !top.empty(); top = next_.Winner()) {
    const std::size_t i = top.index;
    Cursor& c = cursors_[i];
    if (c.x > cur_x) {
      if (coverage > 0) {
        // Zero-mass but covered ranges keep a piece: the merged support is
        // exactly the union of the inputs' supports. The density clamp
        // absorbs residual negative rounding from the on/off deltas; where
        // no covering piece carries mass the density is exactly 0.
        pieces_.push_back(
            {cur_x, c.x, std::max(0.0, density) * (c.x - cur_x)});
      }
      cur_x = c.x;
    }
    if (c.at_right) {
      density -= c.active_density;
      --coverage;
      // The on/off deltas leave rounding residue behind; dropping it once
      // no massive piece covers keeps it off the zero-mass ranges.
      if ((*c.pieces)[c.index].count > 0.0 && --massive == 0) density = 0.0;
      if (++c.index == c.pieces->size()) {
        next_.Clear(i);
        next_.Repair(i, i);
        continue;
      }
      // Clamp against the model's 1e-9 overlap tolerance so per-cursor
      // event positions stay monotone.
      c.x = std::max(c.x, (*c.pieces)[c.index].left);
      c.at_right = false;
      if (c.x > cur_x) {
        next_.Set(i, c.x);
        next_.Repair(i, i);
        continue;
      }
      // The next piece starts at this border. Every other slot holds a
      // later position or a higher cursor, so its left event is the next
      // one anyway: apply it without the round trip through the tree.
    }
    const HistogramModel::Piece& p = (*c.pieces)[c.index];
    c.active_density = p.Density();
    density += c.active_density;
    ++coverage;
    massive += p.count > 0.0;
    c.at_right = true;
    c.x = std::max(c.x, p.right);
    next_.Set(i, c.x);
    next_.Repair(i, i);
  }
  DH_DCHECK(coverage == 0 && massive == 0);
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
    if (p.count > 0.0) slices_.push_back(p);
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
    if (p.count > 0.0) slices.push_back(p);
  }
  if (slices.empty()) return HistogramModel();
  return BuildSsbm(slices, buckets);
}

}  // namespace dynhist
