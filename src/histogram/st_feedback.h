// ST-FEEDBACK: a self-tuning histogram trained by query feedback.
//
// The paper's dynamic histograms (§3-§4) watch the update stream; this
// backend watches the *query* stream instead — the scenario where the
// system observes predicates and their actual result cardinalities but
// not the raw tuples (a proxy cache, a remote table, a workload replay).
// It is the error-driven learning rule of "A Learning Framework for
// Self-Tuning Histograms" (arXiv 1111.7295), with the practical damping
// and split/merge mechanics of the ST-histogram literature:
//
//   est(lo, hi)  = Σ_i freq_i · overlapFrac_i
//   err          = actual − est
//   freq_i      += α · err · (freq_i · overlapFrac_i) / est
//
// α is the universal damping term (a learning rate: 1 trusts each
// observation fully, small values average over many), and the per-bucket
// share is proportional to each bucket's contribution to the estimate —
// buckets that asserted more of the wrong answer absorb more of the
// correction. When the overlapped region currently holds no mass the
// correction spreads by covered width instead (there is no contribution
// to be proportional to).
//
// Every `restructure_every` observations the bucket layout adapts:
// buckets holding more than `split_threshold` of the total mass are split
// into equal-width parts, funded by merging adjacent bucket pairs whose
// frequencies differ by at most `merge_threshold` of the total (the pairs
// that cost the least resolution). The bucket count is invariant across
// restructures, and the procedure is fully deterministic — candidates
// and merges are chosen with explicit (difference, index) orderings — so
// two instances fed the same feedback sequence stay bit-identical.
//
// The class still implements the full Histogram interface: Insert/Delete
// nudge the containing bucket by ±1, so feedback-trained keys can absorb
// a trickle of direct updates too. Model() emits a standard
// HistogramModel (exact borders, non-negative masses), which is what
// lets ST-FEEDBACK shards ride the engine's Superimpose + ReduceWithSsbm
// merge, compiled snapshots, and wire frames unchanged.

#ifndef DYNHIST_HISTOGRAM_ST_FEEDBACK_H_
#define DYNHIST_HISTOGRAM_ST_FEEDBACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/histogram/histogram.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Tuning knobs of an StFeedbackHistogram. Defaults suit the paper's
/// reference workload (5000-value domain, ~10^5 live points).
struct StFeedbackConfig {
  /// Bucket budget (invariant across restructures).
  std::int64_t buckets = 64;

  /// Initial coverage [domain_lo, domain_hi], inclusive integers (the
  /// EstimateRange convention: value v occupies [v, v+1)). Feedback or
  /// updates outside the current coverage stretch the edge buckets.
  std::int64_t domain_lo = 0;
  std::int64_t domain_hi = 4999;

  /// Universal damping term α in (0, 1]: the fraction of each observed
  /// error folded into the bucket frequencies.
  double alpha = 0.5;

  /// A bucket holding more than this fraction of the total mass is a
  /// split candidate at the next restructure.
  double split_threshold = 0.1;

  /// Adjacent buckets whose frequencies differ by at most this fraction
  /// of the total mass may merge to fund a split.
  double merge_threshold = 0.00025;

  /// Feedback observations between restructure passes; 0 disables
  /// restructuring (the layout stays fixed).
  std::int64_t restructure_every = 200;
};

/// Query-feedback-trained histogram ("STF").
class StFeedbackHistogram final : public Histogram {
 public:
  explicit StFeedbackHistogram(const StFeedbackConfig& config);

  void Insert(std::int64_t value) override;
  void Delete(std::int64_t value, std::int64_t live_copies_before) override;
  void InsertN(std::int64_t value, std::int64_t count) override;
  void DeleteN(std::int64_t value, std::int64_t count) override;

  double ApplyFeedback(std::int64_t lo, std::int64_t hi,
                       double actual) override;

  HistogramModel Model() const override;
  double TotalCount() const override;
  std::string Name() const override { return "STF"; }

  const StFeedbackConfig& config() const { return config_; }

  /// Feedback observations absorbed so far.
  std::uint64_t feedback_count() const { return feedbacks_; }

  /// Restructure passes that actually changed the layout, and the split /
  /// merge operations they performed (merges == splits' extra buckets).
  std::uint64_t restructures() const { return restructures_; }
  std::uint64_t splits() const { return splits_; }
  std::uint64_t merges() const { return merges_; }

  std::size_t BucketCountForTest() const { return buckets_.size(); }

  /// Runs one restructure pass immediately, off the observation cadence.
  void ForceRestructureForTest() { Restructure(); }

 private:
  // Contiguous coverage: buckets_[i].right == buckets_[i+1].left, width
  // always positive, freq always >= 0.
  struct Bucket {
    double left = 0.0;
    double right = 0.0;
    double freq = 0.0;
  };

  // Stretches the edge buckets so [lo, hi) is covered.
  void EnsureCovers(double lo, double hi);

  // Index of the first bucket overlapping [lo, ...): binary search on the
  // sorted right borders.
  std::size_t FirstOverlapping(double lo) const;

  // The update rule on a real interval [lo, hi); returns the pre-update
  // absolute error |actual - est|.
  double ApplyOne(double lo, double hi, double actual);

  // One split/merge pass (see the file comment). No-op when no bucket
  // exceeds the split threshold or no merge pair can fund one.
  void Restructure();

  const StFeedbackConfig config_;
  std::vector<Bucket> buckets_;

  std::int64_t since_restructure_ = 0;
  std::uint64_t feedbacks_ = 0;
  std::uint64_t restructures_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_ST_FEEDBACK_H_
