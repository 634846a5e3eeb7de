#include "tests/merge_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>

#include "src/histogram/ssbm.h"

namespace dynhist::testing {

HistogramModel SuperimposeLegacy(const std::vector<HistogramModel>& models) {
  // Union of all borders defines the elementary ranges.
  std::vector<double> borders;
  for (const HistogramModel& m : models) {
    for (const HistogramModel::Piece& p : m.pieces()) {
      borders.push_back(p.left);
      borders.push_back(p.right);
    }
  }
  std::sort(borders.begin(), borders.end());
  borders.erase(std::unique(borders.begin(), borders.end()), borders.end());
  if (borders.size() < 2) return HistogramModel();

  std::vector<HistogramModel::Piece> pieces;
  pieces.reserve(borders.size() - 1);
  for (std::size_t i = 0; i + 1 < borders.size(); ++i) {
    const double lo = borders[i];
    const double hi = borders[i + 1];
    double mass = 0.0;
    for (const HistogramModel& m : models) {
      mass += m.MassInRealRange(lo, hi);
    }
    if (mass > 0.0) pieces.push_back({lo, hi, mass});
  }
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

HistogramModel SuperimposeHeap(const std::vector<HistogramModel>& models) {
  // One input's position: its next event is the current piece's left
  // border (density on) or right border (density off).
  struct Cursor {
    const std::vector<HistogramModel::Piece>* pieces = nullptr;
    std::size_t index = 0;
    bool at_right = false;
    double x = 0.0;
    double active_density = 0.0;
  };
  struct HeapEntry {
    double x = 0.0;
    std::uint32_t cursor = 0;
    bool operator>(const HeapEntry& other) const {
      if (x != other.x) return x > other.x;
      return cursor > other.cursor;
    }
  };
  std::vector<Cursor> cursors;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  for (const HistogramModel& m : models) {
    if (m.Empty()) continue;
    Cursor c;
    c.pieces = &m.pieces();
    c.x = m.pieces().front().left;
    cursors.push_back(c);
    heap.push({c.x, static_cast<std::uint32_t>(cursors.size() - 1)});
  }

  std::vector<HistogramModel::Piece> pieces;
  double density = 0.0;
  int coverage = 0;
  int massive = 0;
  double cur_x = 0.0;
  bool started = false;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    Cursor& c = cursors[top.cursor];
    if (started && top.x > cur_x) {
      if (coverage > 0) {
        pieces.push_back(
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
      massive += p.count > 0.0;
      c.at_right = true;
      c.x = std::max(c.x, p.right);
      heap.push({c.x, top.cursor});
    } else {
      density -= c.active_density;
      --coverage;
      if (p.count > 0.0 && --massive == 0) density = 0.0;
      ++c.index;
      if (c.index < c.pieces->size()) {
        c.at_right = false;
        c.x = std::max(c.x, (*c.pieces)[c.index].left);
        heap.push({c.x, top.cursor});
      }
    }
  }
  if (pieces.empty()) return HistogramModel();
  return HistogramModel::FromSimpleBuckets(std::move(pieces));
}

HistogramModel ReduceWithSsbmCells(const HistogramModel& model,
                                   std::int64_t buckets) {
  if (model.Empty()) return HistogramModel();
  const auto first = static_cast<std::int64_t>(std::floor(model.MinBorder()));
  const auto last = static_cast<std::int64_t>(std::ceil(model.MaxBorder()));
  std::vector<ValueFreq> entries;
  for (std::int64_t v = first; v < last; ++v) {
    const double mass = model.MassInRealRange(static_cast<double>(v),
                                              static_cast<double>(v) + 1.0);
    if (mass > 1e-12) entries.push_back({v, mass});
  }
  return BuildSsbm(entries, buckets);
}

}  // namespace dynhist::testing
