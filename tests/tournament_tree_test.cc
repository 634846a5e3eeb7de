#include "src/histogram/tournament_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace dynhist::internal {
namespace {

using MinTree = TournamentTree<std::less<double>>;
using MaxTree = TournamentTree<std::greater<double>>;

// The reference: a left-to-right scan over [first, last) that replaces its
// candidate only on a strict improvement; empty slots are skipped.
template <typename Better>
std::optional<std::size_t> Scan(const std::vector<std::optional<double>>& keys,
                                 std::size_t first, std::size_t last) {
  std::optional<std::size_t> best;
  for (std::size_t i = first; i < last; ++i) {
    if (!keys[i]) continue;
    if (!best || Better{}(*keys[i], *keys[*best])) best = i;
  }
  return best;
}

template <typename Tree, typename Better>
void ExpectMatchesScan(const Tree& tree,
                       const std::vector<std::optional<double>>& keys,
                       std::size_t first, std::size_t last) {
  const auto expected = Scan<Better>(keys, first, last);
  const auto got = tree.Winner(first, last);
  ASSERT_EQ(got.empty(), !expected.has_value()) << first << ".." << last;
  if (expected) {
    EXPECT_EQ(got.index, *expected) << first << ".." << last;
    EXPECT_EQ(got.key, *keys[*expected]);
  }
}

TEST(TournamentTreeTest, EmptyTreeHasNoWinner) {
  MinTree tree;
  EXPECT_TRUE(tree.Winner().empty());
  tree.Reset(5);
  EXPECT_TRUE(tree.Winner().empty());
  EXPECT_TRUE(tree.Winner(1, 4).empty());
  EXPECT_TRUE(tree.WinnerOutside(0, 2).empty());
}

TEST(TournamentTreeTest, TiesGoToTheLowestIndex) {
  MinTree tree;
  tree.Reset(7);
  for (std::size_t i = 0; i < 7; ++i) tree.Set(i, i == 2 ? 5.0 : 1.0);
  tree.Repair(0, 6);
  EXPECT_EQ(tree.Winner().index, 0u);
  EXPECT_EQ(tree.Winner(3, 7).index, 3u);
  EXPECT_EQ(tree.WinnerOutside(0, 2).index, 3u);
  tree.Clear(0);
  tree.Repair(0, 0);
  EXPECT_EQ(tree.Winner().index, 1u);
  // An infinite key still beats an empty slot.
  MaxTree max_tree;
  max_tree.Reset(3);
  max_tree.Set(2, -std::numeric_limits<double>::infinity());
  max_tree.Repair(2, 2);
  EXPECT_EQ(max_tree.Winner().index, 2u);
}

TEST(TournamentTreeTest, SingleSlot) {
  MaxTree tree;
  tree.Reset(1);
  tree.Set(0, 3.0);
  tree.Repair(0, 0);
  EXPECT_EQ(tree.Winner().index, 0u);
  EXPECT_EQ(tree.Winner(0, 1).index, 0u);
  EXPECT_TRUE(tree.WinnerOutside(0, 1).empty());
}

template <typename Tree, typename Better>
void RandomizedAgainstScan(std::uint64_t seed) {
  Rng rng(seed);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 64u, 100u}) {
    SCOPED_TRACE(n);
    Tree tree;
    tree.Reset(n);
    std::vector<std::optional<double>> keys(n);
    for (int step = 0; step < 400; ++step) {
      // Restage a random run of slots with keys from a small integer range
      // (so ties are frequent), sometimes empty, then repair the run.
      const std::size_t first = rng.UniformInt(n);
      const std::size_t last =
          std::min<std::size_t>(n - 1, first + rng.UniformInt(4));
      for (std::size_t i = first; i <= last; ++i) {
        if (rng.Bernoulli(0.2)) {
          keys[i].reset();
          tree.Clear(i);
        } else {
          keys[i] = static_cast<double>(rng.UniformInt(6));
          tree.Set(i, *keys[i]);
        }
      }
      tree.Repair(first, last);
      ExpectMatchesScan<Tree, Better>(tree, keys, 0, n);
      const auto best = Scan<Better>(keys, 0, n);
      EXPECT_EQ(tree.Winner().index, best ? *best : Tree::kEmpty);
      const std::size_t lo = rng.UniformInt(n + 1);
      const std::size_t hi = lo + rng.UniformInt(n + 1 - lo);
      ExpectMatchesScan<Tree, Better>(tree, keys, lo, hi);
      // Outside [lo, hi): the scan of the prefix, then of the suffix.
      const auto below = Scan<Better>(keys, 0, lo);
      const auto above = Scan<Better>(keys, hi, n);
      std::optional<std::size_t> expected = below;
      if (above && (!below || Better{}(*keys[*above], *keys[*below]))) {
        expected = above;
      }
      const auto got = tree.WinnerOutside(lo, hi);
      ASSERT_EQ(got.empty(), !expected.has_value());
      if (expected) {
        EXPECT_EQ(got.index, *expected);
      }
    }
  }
}

TEST(TournamentTreeTest, MinTreeMatchesLinearScan) {
  RandomizedAgainstScan<MinTree, std::less<double>>(1);
}

TEST(TournamentTreeTest, MaxTreeMatchesLinearScan) {
  RandomizedAgainstScan<MaxTree, std::greater<double>>(2);
}

}  // namespace
}  // namespace dynhist::internal
