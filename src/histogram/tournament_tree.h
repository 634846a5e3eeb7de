// Tournament (winner) tree: incremental arg-best selection over a fixed row
// of keyed slots, ties to the lowest index (internal header).
//
// The paper's greedy selections pick the best of n keys after every step
// while a step changes only a few keys: DVO/DADO's split and merge
// candidates (Theorem 4.1, §4) and SSBM's next merge (§5). The tree keeps
// the winner of every subtree, so changing one slot replays the O(log n)
// matches on its root path and changing a run of s adjacent slots replays
// O(s + log n); the replay stops early at the first level whose results
// come out unchanged. In every match the contender from the higher slots
// wins only when its key is strictly better, so the winner is the
// lowest-index best slot — exactly what a left-to-right scan picks when it
// replaces its candidate only on a strict improvement. An empty slot never
// wins.

#ifndef DYNHIST_HISTOGRAM_TOURNAMENT_TREE_H_
#define DYNHIST_HISTOGRAM_TOURNAMENT_TREE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dynhist::internal {

/// `Better(a, b)` is true when key `a` strictly beats key `b`
/// (std::less<double> selects the minimum, std::greater<double> the
/// maximum).
template <typename Better>
class TournamentTree {
 public:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  /// A slot's key and index; `index == kEmpty` marks an empty slot, or a
  /// query that found no contender.
  struct Entry {
    double key = 0.0;
    std::uint32_t index = kEmpty;

    bool empty() const { return index == kEmpty; }
  };

  /// Resizes to `n` slots, all empty.
  void Reset(std::size_t n) {
    size_ = n;
    leaves_ = std::bit_ceil(std::max<std::size_t>(n, 1));
    node_.assign(2 * leaves_, Entry{});
  }

  std::size_t size() const { return size_; }

  /// Sets slot `i` to `key` (Set) or empties it (Clear). Queries see the
  /// change once Repair() has covered the slot.
  void Set(std::size_t i, double key) {
    node_[leaves_ + i] = {key, static_cast<std::uint32_t>(i)};
  }
  void Clear(std::size_t i) { node_[leaves_ + i] = Entry{}; }

  /// Replays the matches above slots [first, last], level by level, until
  /// a level's results come out unchanged (the levels above then are too).
  void Repair(std::size_t first, std::size_t last) {
    for (std::size_t lo = (leaves_ + first) / 2, hi = (leaves_ + last) / 2;
         lo > 0; lo /= 2, hi /= 2) {
      bool changed = false;
      for (std::size_t v = lo; v <= hi; ++v) {
        // Indexing by the outcome keeps the replay free of branches the
        // keys would make unpredictable.
        const Entry winner =
            node_[2 * v + HighWins(node_[2 * v], node_[2 * v + 1])];
        changed |= !Same(winner, node_[v]);
        node_[v] = winner;
      }
      if (!changed) return;
    }
  }

  /// The best slot.
  const Entry& Winner() const { return node_[1]; }

  /// The best slot in [first, last).
  Entry Winner(std::size_t first, std::size_t last) const {
    Entry low;
    Entry high;
    for (std::size_t lo = leaves_ + first, hi = leaves_ + last; lo < hi;
         lo /= 2, hi /= 2) {
      if (lo & 1) low = Play(low, node_[lo++]);
      if (hi & 1) high = Play(node_[--hi], high);
    }
    return Play(low, high);
  }

  /// The best slot outside [first, last).
  Entry WinnerOutside(std::size_t first, std::size_t last) const {
    const Entry& best = Winner();
    if (best.empty() || best.index < first || best.index >= last) return best;
    return Play(Winner(0, first), Winner(last, size_));
  }

 private:
  // Whether `high`, a contender from higher slots, beats `low`; evaluated
  // without short-circuit branches.
  static bool HighWins(const Entry& low, const Entry& high) {
    return (!high.empty()) & (low.empty() | Better{}(high.key, low.key));
  }
  static bool Same(const Entry& a, const Entry& b) {
    return a.index == b.index && std::bit_cast<std::uint64_t>(a.key) ==
                                     std::bit_cast<std::uint64_t>(b.key);
  }
  static Entry Play(const Entry& low, const Entry& high) {
    return HighWins(low, high) ? high : low;
  }

  std::size_t size_ = 0;
  std::size_t leaves_ = 1;
  std::vector<Entry> node_ = std::vector<Entry>(2);
};

}  // namespace dynhist::internal

#endif  // DYNHIST_HISTOGRAM_TOURNAMENT_TREE_H_
