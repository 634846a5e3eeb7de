// Backing ("reservoir") sample — the substrate of Approximate Histograms.
//
// The Approximate Compressed histogram of Gibbons, Matias & Poosala [10]
// keeps a large uniform sample of the relation on disk (the "backing
// sample") and rebuilds its in-memory histogram from it. The sample is
// maintained with reservoir sampling [1] (Vitter's Algorithm R): the i-th
// inserted tuple enters a full reservoir with probability capacity/i,
// evicting a random resident. A deletion removes the deleted tuple from the
// sample if it happens to be resident — the sample *shrinks* under
// deletions (rebuilding it would require rescanning the relation), which is
// exactly the degradation the paper demonstrates in Fig. 17.
//
// Tuple identity is simulated by value counts: a deleted tuple of value v
// is resident with probability s_v / N_v (copies in sample / live copies in
// the relation) — see README "Substitutions", item 3.
//
// The sample is kept sorted so the histogram recomputation can take
// quantiles in O(log) per cut.

#ifndef DYNHIST_SAMPLING_RESERVOIR_H_
#define DYNHIST_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/data/frequency_vector.h"

namespace dynhist {

/// A uniform backing sample of an evolving multiset of integer values.
class ReservoirSample {
 public:
  /// `capacity` is the maximum number of resident sample values.
  ReservoirSample(std::size_t capacity, std::uint64_t seed);

  /// Observes the insertion of `value` into the relation. Returns true if
  /// the sample contents changed.
  bool Insert(std::int64_t value);

  /// Observes the deletion of one tuple with `value` from the relation;
  /// `live_copies_before` is the number of copies in the relation before
  /// the deletion. Returns true if the sample contents changed (the
  /// deleted tuple was resident).
  bool Delete(std::int64_t value, std::int64_t live_copies_before);

  /// Number of resident sample values.
  std::size_t Size() const { return values_.size(); }

  std::size_t Capacity() const { return capacity_; }

  /// Live relation size implied by the observed stream (N).
  std::int64_t RelationSize() const { return relation_size_; }

  /// Resident values in ascending order.
  const std::vector<std::int64_t>& SortedValues() const { return values_; }

  /// Number of resident copies of `value`.
  std::int64_t CountOf(std::int64_t value) const;

  /// Distinct resident values with their resident counts, ascending.
  std::vector<ValueFreq> Entries() const;

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<std::int64_t> values_;  // sorted ascending
  std::int64_t relation_size_ = 0;
  std::int64_t inserts_seen_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_SAMPLING_RESERVOIR_H_
