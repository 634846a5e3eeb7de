// Flat snapshot arena: the published model compiled to a prefix-CDF index.
//
// A HistogramModel answers CdfMass(x) by binary-searching its piece list —
// a vector of 24-byte Piece structs walked through an iterator/lambda
// upper_bound, with the prefix masses in a second vector. That is fine for
// construction-time consumers (KS scoring, reduction), but it is the hot
// path of every EstimateRange the engine serves, and snapshots are
// immutable by design: once published, a model never changes. So the
// publish path compiles each snapshot ONCE into this arena — a single
// cache-aligned allocation holding
//
//     rights[n]      piece right borders, ascending (the search array)
//     rows[n + 1]    {left, count, width, prefix} per piece, 32-byte rows,
//                    plus a sentinel row whose prefix is the total mass
//
// and EstimateRange(lo, hi) becomes two branch-free upper_bound lookups
// over `rights` (run interleaved, so their dependent-load chains overlap)
// plus an interpolated prefix subtraction: O(log pieces), no allocation,
// no piece-struct pointer chasing, one predictable dispatch branch. The
// layout follows the tree-like bucket-index form (arXiv cs/0501020) in
// its flattened two-array shape, and matches the contiguous
// border/cumulative-mass serialization of HistogramTools
// (arXiv 2504.00001): the distributed tier's frames carry exactly these
// arrays, encoded from the model with the same arithmetic.
//
// Parity contract: every query is computed with the exact arithmetic of
// HistogramModel::CdfMass — the same subtraction for widths, the same
// `count * (x - left) / width` interpolation, prefix masses accumulated
// in the same order — so compiled and piece-walk answers are bit-identical
// (the parity suite pins them to <= 1e-12, and in practice to equality).
//
// The search primitive is branch-free (cmov-style): each halving step is
// `base += (base[half-1] <= x) * half`, so a mispredicted-branch pipeline
// flush never happens. When the toolchain supports -mavx2 (CMake feature
// check) an AVX2 variant finishes the search with a vectorized
// compare+popcount over the last <= 8 borders; it is selected at runtime
// via cpuid, and the scalar leg — the path of CPUs without AVX2 and the
// tests' reference — is always built.

#ifndef DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_
#define DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>

#include "src/histogram/model.h"

namespace dynhist {

namespace compiled_internal {

/// Index of the first element of ascending `a[0..n)` greater than `x`
/// (i.e. std::upper_bound), via the branch-free halving loop. n >= 1.
std::size_t UpperBoundScalar(const double* a, std::size_t n, double x);

/// Two upper_bound searches over one array, interleaved so the two
/// dependent-load chains overlap in the pipeline. n >= 1.
void UpperBound2Scalar(const double* a, std::size_t n, double x1, double x2,
                       std::size_t* i1, std::size_t* i2);

/// AVX2 variants: branch-free descent to a <= 8-wide window, then a
/// vectorized compare + popcount. Defined only in builds where CMake's
/// -mavx2 feature check passed (DYNHIST_HAVE_AVX2); call through the
/// dispatched UpperBound/UpperBound2 below, never directly.
std::size_t UpperBoundAvx2(const double* a, std::size_t n, double x);
void UpperBound2Avx2(const double* a, std::size_t n, double x1, double x2,
                     std::size_t* i1, std::size_t* i2);

/// Runtime-dispatched entry points: AVX2 when compiled in and the CPU
/// reports support, scalar otherwise. Exact same results either way.
std::size_t UpperBound(const double* a, std::size_t n, double x);
void UpperBound2(const double* a, std::size_t n, double x1, double x2,
                 std::size_t* i1, std::size_t* i2);

/// True when queries in this process run the AVX2 search.
bool SimdActive();

}  // namespace compiled_internal

/// The flat, immutable, query-optimized form of one HistogramModel.
/// Default-constructed instances are "absent" (attached() == false) — the
/// state of the engine's implicit epoch-0 snapshot; an absent arena
/// answers 0 everywhere.
class CompiledSnapshot {
 public:
  /// One piece's payload row plus the running prefix mass. 32 bytes; the
  /// arena stores n + 1 of these, the last being the sentinel
  /// {max_border, 0, 1, total} that makes past-the-end lookups total-mass
  /// reads without a branch.
  struct Row {
    double left = 0.0;    ///< piece left border
    double count = 0.0;   ///< piece mass
    double width = 0.0;   ///< right - left (same subtraction as Piece::Width)
    double prefix = 0.0;  ///< mass strictly left of `left`
  };

  CompiledSnapshot() = default;
  ~CompiledSnapshot();

  CompiledSnapshot(const CompiledSnapshot& other);
  CompiledSnapshot& operator=(const CompiledSnapshot& other);
  CompiledSnapshot(CompiledSnapshot&& other) noexcept;
  CompiledSnapshot& operator=(CompiledSnapshot&& other) noexcept;

  /// Compiles `model` into a fresh arena. O(pieces) time and one
  /// allocation; compiling an empty model yields an attached arena that
  /// answers 0 everywhere.
  static CompiledSnapshot Compile(const HistogramModel& model);

  /// False for default-constructed (absent) instances.
  bool attached() const { return attached_; }

  std::size_t NumPieces() const { return n_; }

  /// Total mass; bit-identical to the source model's TotalCount().
  double TotalCount() const { return total_; }

  /// Mass strictly left of x — HistogramModel::CdfMass, one branch-free
  /// search. Absent/empty arenas return 0.
  double CdfMass(double x) const;

  /// Mass in the real interval [lo, hi); requires lo <= hi.
  double MassInRealRange(double lo, double hi) const;

  /// Estimated points with integer value in [lo, hi] inclusive — the
  /// range-predicate selectivity, as one fused dual search.
  double EstimateRange(std::int64_t lo, std::int64_t hi) const;

  /// Read-only views of the arena: `borders()` is the n ascending right
  /// borders the search runs over, `rows()` the n + 1 payload rows. Null
  /// when absent.
  const double* borders() const { return rights_; }
  const Row* rows() const { return rows_; }

 private:
  void Reset();

  // One 64-byte-aligned allocation: [rights: n doubles, padded to a full
  // line][rows: (n + 1) Rows]. Row pointers are views into it.
  void* storage_ = nullptr;
  const double* rights_ = nullptr;
  const Row* rows_ = nullptr;
  std::size_t n_ = 0;
  double total_ = 0.0;
  bool attached_ = false;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_COMPILED_SNAPSHOT_H_
