// Replay driver: feeds an update stream to a histogram and the exact
// ground-truth distribution in lock step.
//
// This is the experiment loop of §7: histograms start empty, absorb the
// stream, and are evaluated (KS statistic) against the exact distribution —
// either once at the end or at checkpoints along the way (Figs. 16-18 track
// error as a function of the fraction of the stream processed). The driver
// owns the one piece of information histograms cannot know on their own:
// the live count of a value at deletion time (see Histogram::Delete).

#ifndef DYNHIST_HISTOGRAM_DRIVER_H_
#define DYNHIST_HISTOGRAM_DRIVER_H_

#include <cstdint>
#include <functional>

#include "src/data/frequency_vector.h"
#include "src/data/update_stream.h"
#include "src/histogram/histogram.h"

namespace dynhist {

/// Replays `stream` into `histogram` and `truth`. Both see exactly the same
/// operations in the same order; a feedback op goes to
/// Histogram::ApplyFeedback and leaves `truth` unchanged.
void Replay(const UpdateStream& stream, Histogram* histogram,
            FrequencyVector* truth);

/// Observer invoked at checkpoints: fraction of the stream processed (in
/// (0, 1]) plus the histogram and truth at that moment.
using ReplayObserver = std::function<void(
    double fraction, const Histogram& histogram, const FrequencyVector& truth)>;

/// Replays `stream`, invoking `observer` after each ~1/`checkpoints`
/// fraction of the operations (and always at the end).
void ReplayWithCheckpoints(const UpdateStream& stream, Histogram* histogram,
                           FrequencyVector* truth, int checkpoints,
                           const ReplayObserver& observer);

}  // namespace dynhist

#endif  // DYNHIST_HISTOGRAM_DRIVER_H_
