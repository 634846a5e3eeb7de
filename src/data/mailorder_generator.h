// Synthetic stand-in for the paper's mail-order trace (§7.4).
//
// The original data — 61,105 order dollar amounts collected by a mail order
// company, plotted in Fig. 19 — is proprietary and unavailable. The paper
// uses it for two observations: (1) results match the synthetic experiments,
// and (2) the distribution is so "spiky" that the DADO error stops dropping
// at the 1/B rate once the outline is captured, because each spike wants its
// own bucket. This generator reproduces exactly that structure: a dense set
// of point-mass spikes at round price points (Zipf-weighted), superimposed
// on a smooth log-normal-shaped body of small amounts, on the same domain
// [0, 500] with the same record count. See README "Substitutions", item 1.

#ifndef DYNHIST_DATA_MAILORDER_GENERATOR_H_
#define DYNHIST_DATA_MAILORDER_GENERATOR_H_

#include <cstdint>
#include <vector>

namespace dynhist {

/// Domain size of the mail-order data set: dollar amounts in [0, 500].
inline constexpr std::int64_t kMailOrderDomainSize = 501;

/// Number of records in the paper's trace.
inline constexpr std::int64_t kMailOrderRecordCount = 61'105;

/// Generates the synthetic mail-order trace. Deterministic in `seed`;
/// records are returned in generation order ("approximately random order"
/// per §7.4 — no further shuffling needed, but drivers may reshuffle).
std::vector<std::int64_t> MakeMailOrderData(std::uint64_t seed = 0);

}  // namespace dynhist

#endif  // DYNHIST_DATA_MAILORDER_GENERATOR_H_
