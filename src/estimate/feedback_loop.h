// The estimate-observe-train loop that closes query feedback.
//
// Self-tuning histograms (src/histogram/st_feedback.h) learn from the
// gap between what the optimizer estimated and what the executor
// actually returned. This helper is the three-line protocol every
// integration point repeats, packaged once: ask the engine for its
// estimate of a predicate, report the observed cardinality back through
// RecordFeedback, and keep the running error statistics that tell you
// whether the key is converging. It is the optimizer-session analogue of
// SelectivityEstimator — a thin, engine-borrowing view, cheap enough to
// create per session.
//
// Single-threaded by design (one loop per optimizer session/thread); the
// engine calls underneath are the usual thread-safe entry points, so
// many loops on one key compose fine.

#ifndef DYNHIST_ESTIMATE_FEEDBACK_LOOP_H_
#define DYNHIST_ESTIMATE_FEEDBACK_LOOP_H_

#include <cmath>
#include <cstdint>
#include <string_view>

#include "src/engine/histogram_engine.h"
#include "src/engine/key_handle.h"

namespace dynhist {

/// Wires one engine key's estimates back to its feedback trainer.
class QueryFeedbackLoop {
 public:
  /// Resolves `key` once (creating it if needed — the key trains only
  /// when the engine's EngineOptions::kind is kStFeedback) and holds the
  /// handle, so the loop's steady state rides the epoch-pinned reader
  /// fast path.
  QueryFeedbackLoop(engine::HistogramEngine* engine, std::string_view key)
      : engine_(engine), handle_(engine->Resolve(key)) {}

  /// One closed loop iteration: returns the engine's current estimate
  /// for lo <= A <= hi, then records that the predicate actually
  /// returned `actual` tuples. The returned estimate is the
  /// pre-feedback one — what the optimizer would have planned with.
  double ObserveRange(std::int64_t lo, std::int64_t hi, double actual) {
    const double estimate = engine_->EstimateRange(handle_, lo, hi);
    engine_->RecordFeedback(handle_, lo, hi, actual);
    ++observations_;
    abs_error_sum_ += std::fabs(estimate - actual);
    return estimate;
  }

  /// Feedback observations routed through this loop.
  std::uint64_t observations() const { return observations_; }

  /// Mean |estimate - actual| over the loop's lifetime (0 before the
  /// first observation). Falls as the key's trained snapshots converge.
  double MeanAbsError() const {
    return observations_ == 0
               ? 0.0
               : abs_error_sum_ / static_cast<double>(observations_);
  }

  /// Forgets the running error statistics (the handle stays).
  void ResetStats() {
    observations_ = 0;
    abs_error_sum_ = 0.0;
  }

  const engine::KeyHandle& handle() const { return handle_; }

 private:
  engine::HistogramEngine* engine_;
  engine::KeyHandle handle_;
  std::uint64_t observations_ = 0;
  double abs_error_sum_ = 0.0;
};

}  // namespace dynhist

#endif  // DYNHIST_ESTIMATE_FEEDBACK_LOOP_H_
