#include "src/histogram/ssbm.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/common/check.h"
#include "src/histogram/static_common.h"
#include "src/histogram/tournament_tree.h"

namespace dynhist {

namespace {

using Slice = HistogramModel::Piece;
using MergeKey = SsbmOptions::MergeKey;

// Live bucket state during merging, over piecewise-uniform input slices (a
// distinct integer value is the width-1 slice [v, v+1)). Extents are *data*
// extents [first slice left, last slice right); the gap between two buckets
// joins the merged bucket's extent when they merge (its zero density then
// counts toward the deviation, per Eq. 3/5 with j over all domain values).
// `sum_dsq` is the integral of the squared density over the covered slices,
// which for width-1 slices is exactly the paper's sum of squared
// frequencies — so unit-slice input reproduces the per-value algorithm bit
// for bit. The exported model uses the convention of ModelFromPieceSlices.
//
// Bucket ids ascend along the list and a merge folds the right bucket into
// the left one. A bucket's id is its first slice until the batched rounds
// below compact the survivors to ids [0, live); from then on a side array
// maps an id to its first slice, which keeps the loop's state at 32 bytes.
// A bucket's last slice is the one before its successor's first (d - 1 for
// the last bucket).
struct LiveBucket {
  double right = 0.0;    // right border of the last slice
  double total = 0.0;    // sum of slice counts
  double sum_dsq = 0.0;  // integral of density^2 over the covered slices
  std::int32_t prev = -1;
  std::int32_t next = -1;
};
static_assert(sizeof(LiveBucket) == 32);

using PairTree = internal::TournamentTree<std::less<double>>;

// rho of Eq. 3 for a bucket over [left, right) that holds `total` tuples
// with integral of density^2 `sum_dsq`: the L2 error of the bucket's best
// constant, gaps counting as density 0.
double SquaredDeviation(double left, double right, double total,
                        double sum_dsq) {
  return std::max(0.0, sum_dsq - total * total / (right - left));
}

// Batched rounds of the paper's rule under its default options (kSquared,
// kMergedDeviation). The rule merges the leftmost pair with the smallest
// key, one merge at a time. A round instead merges, in one pass over the
// live buckets kept adjacent in `bucket`, every pair the rule provably
// merges as it stands, so only the tail needs the tournament tree.
//
// Let k_j be the computed key of live pair j (live buckets j and j + 1)
// and E_j its exact value, the L2 error of the best constant over the
// pair's extent. E can only grow as a bucket grows: the best constant over
// the wider extent is one candidate constant over the narrower one. Delta
// bounds |k - E| for every bucket the rule can form (see below). With M
// merges still to make, a round merges every pair p with
//
//   k_p + 2 Delta < min(k_{p-1}, k_{p+1}, T),
//
// T being the (M+1)-th smallest key (+inf when the M merges take every
// pair). Such pairs are never adjacent, and the rule merges each of them
// with its current key:
//
// * While p is live, a pair that holds p's left bucket is (X, p's left
//   bucket) with X containing p's left neighbour, so its key is at least
//   E_{p-1} - Delta >= k_{p-1} - 2 Delta > k_p; the same holds on the
//   right. The rule never picks such a pair while p is live, so p's two
//   buckets, and k_p, stay as they are.
// * Each live pair straddles its own boundary between the current buckets,
//   its exact key is at least that boundary's E, and a merge erases the
//   boundary. Were p not among the next M merges, each of them would pick
//   a key <= k_p, on a boundary whose k is then <= k_p + 2 Delta < T: with
//   p, M + 1 keys below the (M+1)-th smallest.
// * Merging p first changes no pick: in a state where p is live, the
//   rule's pick m is not next to p, and once p is merged its new neighbour
//   pairs have keys > k_p >= the key of m.
//
// So from the merged state the rule makes the same merges of the same
// bucket states, less the ones made early, and reaches the same partition:
// the output is bit-identical. A round costs O(live): one pass for the
// local minima, one to select T (an nth_element over the keys that still
// reach the previous round's T, usually a few more than target - 1), and
// one compacting pass that recomputes only the keys next to a merge. On
// the engine's ~835-slice composites 12 rounds make about 730 of the 770
// merges. Once a round would take fewer than live/32 pairs, the tree
// finishes the tail.
//
// Delta. A bucket of n slices has exact Q = sum c^2/w, C = sum c, extent W
// and E = Q - C^2/W; its computed key carries relative errors of at most
// gamma_{n+2} on Q (three roundings per term, n - 1 additions in any order)
// and gamma_{2n+1} on C^2/W, plus one rounding of the difference, where
// gamma_k = k u / (1 - k u) and u = 2^-53. With C^2/W <= Q (Cauchy-Schwarz,
// as the slices do not overlap), |k - E| <= gamma_{3n+5} Q, and Q is at most
// the computed sum S of every slice's c^2/w over (1 - gamma_{d+2}). So
// Delta = 2 (d + 2) epsilon S, epsilon = 2^-52, bounds every key of d
// slices. The model holds while no product or quotient underflows or
// overflows: the rounds run only when the slices do not overlap and every
// nonzero count, every width and the whole extent lie in [2^-200, 2^200].
//
// On entry `bucket` holds one bucket per slice, `first` is empty and
// `sum` is S. When a round merges, the survivors move to ids [0, live),
// linked in order, with their first slices in `first`; otherwise ids stay
// slice indices. Unless the budget is met, `pairs` ends up holding the
// survivors' pair keys. Returns live.
std::size_t MergeForcedPairs(const std::vector<Slice>& slices,
                             std::size_t target, double sum,
                             std::vector<LiveBucket>& bucket,
                             std::vector<std::int32_t>& first,
                             PairTree& pairs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t d = slices.size();
  const double margin = 2.0 * (2.0 * static_cast<double>(d + 2) *
                               std::numeric_limits<double>::epsilon() * sum);
  // The ranges the error model needs; checked before the first merge.
  const auto in_range = [&] {
    constexpr double kLow = 0x1p-200;
    constexpr double kHigh = 0x1p200;
    if (!(slices.back().right - slices.front().left <= kHigh)) return false;
    for (std::size_t i = 0; i < d; ++i) {
      const Slice& s = slices[i];
      const bool count_ok =
          s.count == 0.0 || (s.count >= kLow && s.count <= kHigh);
      if (!count_ok || !(s.Width() >= kLow) ||
          (i > 0 && s.left < slices[i - 1].right)) {
        return false;
      }
    }
    return true;
  };
  // The key of live buckets a and b, a starting at `left`: the expression
  // the merge loop's pair_key evaluates, so both see the same keys.
  const auto pair_key = [](double left, const LiveBucket& a,
                           const LiveBucket& b) {
    return SquaredDeviation(left, b.right, a.total + b.total,
                            a.sum_dsq + b.sum_dsq);
  };
  // key[j + 1] is the key of live buckets j and j + 1. key[0] and
  // key[live] are +inf: the end pairs see a neighbour that never blocks
  // them, and the last bucket, which has no pair, never qualifies.
  std::vector<double> key(d + 1, kInf);
  for (std::size_t i = 0; i + 1 < d; ++i) {
    key[i + 1] = pair_key(slices[i].left, bucket[i], bucket[i + 1]);
  }

  std::size_t live = d;
  std::vector<std::uint8_t> pick(d);
  std::vector<double> order(d);
  double bar = -kInf;  // the previous round's T
  while (live > target) {
    const std::size_t pair_count = live - 1;
    const std::size_t need = live - target;
    // Local minima first: T can only drop some of them, so a round
    // without enough of them ends the rounds before T is found.
    std::size_t picked = 0;
    for (std::size_t j = 0; j < pair_count; ++j) {
      const double reach = key[j + 1] + margin;
      pick[j] = (reach < key[j]) & (reach < key[j + 2]);
      picked += pick[j];
    }
    pick[pair_count] = 0;
    if (picked * 32 < live || (first.empty() && !in_range())) break;
    if (need < pair_count) {
      // T is the (target - 1)-th largest key. Keys only grow between
      // rounds (up to 2 Delta of rounding), so at least target - 1 keys
      // usually still reach the previous T, and T is selected among those;
      // otherwise among all keys.
      const std::size_t above = target - 1;
      std::size_t n = 0;
      for (std::size_t j = 0; j < pair_count; ++j) {
        order[n] = key[j + 1];
        n += key[j + 1] >= bar;
      }
      if (n < above) {
        std::copy(key.begin() + 1, key.begin() + 1 + pair_count,
                  order.begin());
        n = pair_count;
      }
      std::nth_element(order.begin(), order.begin() + (n - above),
                       order.begin() + n);
      bar = order[n - above];
      picked = 0;
      for (std::size_t j = 0; j < pair_count; ++j) {
        pick[j] = pick[j] & (key[j + 1] + margin < bar);
        picked += pick[j];
      }
      if (picked * 32 < live) break;
    }
    if (first.empty()) {
      first.resize(d);
      for (std::size_t i = 0; i < d; ++i) {
        first[i] = static_cast<std::int32_t>(i);
      }
    }
    // Merge the picked pairs and compact. A pair's key changes only when
    // one of its buckets merged; every other key moves down unchanged
    // (from key[r], r >= kept, so no key is overwritten before it is read).
    std::size_t kept = 0;
    bool prev_merged = false;
    for (std::size_t r = 0; r < live; ++r, ++kept) {
      LiveBucket cur = bucket[r];
      const std::int32_t cur_first = first[r];
      const bool merged = pick[r] != 0;
      if (merged) {
        const LiveBucket& g = bucket[r + 1];
        cur.right = g.right;
        cur.total = cur.total + g.total;
        cur.sum_dsq = cur.sum_dsq + g.sum_dsq;
      }
      if (kept > 0 && (prev_merged || merged)) {
        const auto left_first = static_cast<std::size_t>(first[kept - 1]);
        key[kept] = pair_key(slices[left_first].left, bucket[kept - 1], cur);
      } else if (kept > 0) {
        key[kept] = key[r];
      }
      bucket[kept] = cur;
      first[kept] = cur_first;
      prev_merged = merged;
      r += merged;
    }
    live = kept;
    key[live] = kInf;
  }

  if (live < d) {
    for (std::size_t j = 0; j < live; ++j) {
      bucket[j].prev = static_cast<std::int32_t>(j) - 1;
      bucket[j].next = j + 1 < live ? static_cast<std::int32_t>(j) + 1 : -1;
    }
  }
  if (live > target) {
    pairs.Reset(live - 1);
    for (std::size_t j = 0; j + 1 < live; ++j) pairs.Set(j, key[j + 1]);
    pairs.Repair(0, live - 2);
  }
  return live;
}

// Merges `slices` down to `target` buckets. The policy and the merge key
// are template arguments, so the selection's key evaluations carry no
// per-call option branches.
template <DeviationPolicy kPolicy, MergeKey kKey>
HistogramModel MergeToBudget(const std::vector<Slice>& slices,
                             std::size_t target, bool quadratic_scan) {
  const std::size_t d = slices.size();
  // The exact histogram: one bucket per input slice (rho = 0).
  std::vector<LiveBucket> bucket(d);
  double sum_dsq = 0.0;  // S, for the rounds' error bound
  for (std::size_t i = 0; i < d; ++i) {
    const Slice& s = slices[i];
    bucket[i] = {s.right, s.count, s.count * s.count / s.Width(),
                 static_cast<std::int32_t>(i) - 1,
                 i + 1 < d ? static_cast<std::int32_t>(i) + 1 : -1};
    sum_dsq += bucket[i].sum_dsq;
  }
  // Bucket ids are slice indices until the rounds compact them.
  std::vector<std::int32_t> first;
  const auto first_slice = [&](std::size_t id) {
    return first.empty() ? id : static_cast<std::size_t>(first[id]);
  };
  const auto last_slice = [&](std::size_t id) {
    return bucket[id].next < 0
               ? d - 1
               : first_slice(static_cast<std::size_t>(bucket[id].next)) - 1;
  };
  // The deviation rho (Eq. 3 or 5) of one bucket over slices [lo, hi].
  const auto deviation = [&](std::size_t lo, std::size_t hi, double left,
                             double right, double total, double sum_dsq) {
    if constexpr (kPolicy == DeviationPolicy::kSquared) {
      return SquaredDeviation(left, right, total, sum_dsq);
    } else {
      // Absolute deviation requires the individual densities; O(span).
      const double width = right - left;
      const double avg = total / width;
      double dev = 0.0;
      double covered = 0.0;
      for (std::size_t i = lo; i <= hi; ++i) {
        const double w = slices[i].Width();
        dev += w * std::fabs(slices[i].count / w - avg);
        covered += w;
      }
      dev += (width - covered) * avg;  // gap zeros deviate by avg each
      return dev;
    }
  };
  // The merge key of live bucket `i` and its successor.
  const auto pair_key = [&](std::size_t i) {
    const LiveBucket& a = bucket[i];
    const auto j = static_cast<std::size_t>(a.next);
    const LiveBucket& b = bucket[j];
    const std::size_t a_first = first_slice(i);
    const std::size_t b_first = first_slice(j);
    const double left = slices[a_first].left;
    const std::size_t b_last = last_slice(j);
    const double rho_m = deviation(a_first, b_last, left, b.right,
                                   a.total + b.total, a.sum_dsq + b.sum_dsq);
    if constexpr (kKey == MergeKey::kMergedDeviation) {
      return rho_m;
    } else {
      return rho_m -
             deviation(a_first, b_first - 1, left, a.right, a.total,
                       a.sum_dsq) -
             deviation(b_first, b_last, slices[b_first].left, b.right,
                       b.total, b.sum_dsq);
    }
  };

  // Pair slot i holds the merge key of bucket i and its successor while
  // both are live. Bucket ids ascend along the list, so slot order is value
  // order and the tree's winner — the leftmost smallest key — is the pair
  // the paper's scan picks. A merge changes three slots: the absorbed
  // bucket's (now empty), the merged bucket's and its predecessor's.
  PairTree pairs;
  const auto repair_pair = [&](std::size_t i) {
    if (bucket[i].next < 0) {
      pairs.Clear(i);
    } else {
      pairs.Set(i, pair_key(i));
    }
    pairs.Repair(i, i);
  };
  // The paper's cost model: every merge rescans all surviving adjacent
  // pairs (O(D) per merge, O(D^2) total).
  const auto scan = [&] {
    std::size_t best = d;
    double best_key = 0.0;
    for (std::size_t i = 0; bucket[i].next >= 0;
         i = static_cast<std::size_t>(bucket[i].next)) {
      const double key = pair_key(i);
      if (best == d || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    return best;
  };
  std::size_t live = d;
  if (!quadratic_scan) {
    if constexpr (kPolicy == DeviationPolicy::kSquared &&
                  kKey == MergeKey::kMergedDeviation) {
      live = MergeForcedPairs(slices, target, sum_dsq, bucket, first, pairs);
    } else {
      pairs.Reset(d - 1);
      for (std::size_t i = 0; i + 1 < d; ++i) pairs.Set(i, pair_key(i));
      pairs.Repair(0, d - 2);
    }
  }

  for (; live > target; --live) {
    const std::size_t best = quadratic_scan ? scan() : pairs.Winner().index;
    DH_CHECK(best < d);
    // Merge the successor into bucket `best`.
    LiveBucket& a = bucket[best];
    const auto gone = static_cast<std::size_t>(a.next);
    const LiveBucket& g = bucket[gone];
    a.right = g.right;
    a.total = a.total + g.total;
    a.sum_dsq = a.sum_dsq + g.sum_dsq;
    a.next = g.next;
    if (a.next >= 0) {
      bucket[static_cast<std::size_t>(a.next)].prev =
          static_cast<std::int32_t>(best);
    }
    if (!quadratic_scan) {
      if (gone < pairs.size()) {
        pairs.Clear(gone);
        pairs.Repair(gone, gone);
      }
      repair_pair(best);
      if (a.prev >= 0) repair_pair(static_cast<std::size_t>(a.prev));
    }
  }

  // Export the surviving buckets in value order. The head is always bucket
  // 0: merges fold right buckets into left ones.
  std::vector<internal::BucketSlice> out;
  out.reserve(target);
  for (std::size_t i = 0;; i = static_cast<std::size_t>(bucket[i].next)) {
    const std::size_t lo = first_slice(i);
    const std::size_t hi = last_slice(i);
    out.push_back({lo, hi, lo == hi && slices[lo].Width() == 1.0});
    if (bucket[i].next < 0) break;
  }
  DH_CHECK(out.size() == target);
  return internal::ModelFromPieceSlices(slices, out);
}

}  // namespace

HistogramModel BuildSsbm(const std::vector<Slice>& slices,
                         std::int64_t buckets, const SsbmOptions& options) {
  DH_CHECK(buckets >= 1);
  if (slices.empty()) return HistogramModel();
  const std::size_t d = slices.size();
  DH_CHECK(d <= static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()));
  for (std::size_t i = 0; i < d; ++i) {
    DH_CHECK(slices[i].right > slices[i].left && slices[i].count >= 0.0);
    // Same overlap tolerance as the HistogramModel constructor.
    if (i > 0) DH_CHECK(slices[i].left >= slices[i - 1].right - 1e-9);
  }
  if (static_cast<std::size_t>(buckets) >= d) {
    std::vector<internal::BucketSlice> out(d);
    for (std::size_t i = 0; i < d; ++i) {
      out[i] = {i, i, /*singular=*/slices[i].Width() == 1.0};
    }
    return internal::ModelFromPieceSlices(slices, out);
  }

  const auto target = static_cast<std::size_t>(buckets);
  const bool scan = options.use_quadratic_scan;
  const bool merged = options.merge_key == MergeKey::kMergedDeviation;
  if (options.policy == DeviationPolicy::kSquared) {
    return merged ? MergeToBudget<DeviationPolicy::kSquared,
                                  MergeKey::kMergedDeviation>(slices, target,
                                                              scan)
                  : MergeToBudget<DeviationPolicy::kSquared,
                                  MergeKey::kDeviationIncrease>(slices, target,
                                                                scan);
  }
  return merged ? MergeToBudget<DeviationPolicy::kAbsolute,
                                MergeKey::kMergedDeviation>(slices, target,
                                                            scan)
                : MergeToBudget<DeviationPolicy::kAbsolute,
                                MergeKey::kDeviationIncrease>(slices, target,
                                                              scan);
}

HistogramModel BuildSsbm(const std::vector<ValueFreq>& entries,
                         std::int64_t buckets, const SsbmOptions& options) {
  std::vector<Slice> slices;
  slices.reserve(entries.size());
  for (const ValueFreq& e : entries) {
    const double left = static_cast<double>(e.value);
    slices.push_back({left, left + 1.0, e.freq});
  }
  return BuildSsbm(slices, buckets, options);
}

HistogramModel BuildSsbm(const FrequencyVector& data, std::int64_t buckets,
                         const SsbmOptions& options) {
  return BuildSsbm(data.NonZeroEntries(), buckets, options);
}

}  // namespace dynhist
