// Shared helpers for dynhist tests.

#ifndef DYNHIST_TESTS_TEST_UTIL_H_
#define DYNHIST_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/data/update_stream.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/deviation.h"
#include "src/histogram/model.h"

namespace dynhist::testing {

/// Builds entries from parallel (value, freq) lists.
inline std::vector<ValueFreq> Entries(
    std::initializer_list<std::pair<std::int64_t, double>> pairs) {
  std::vector<ValueFreq> entries;
  for (const auto& [v, f] : pairs) entries.push_back({v, f});
  return entries;
}

/// Builds a FrequencyVector over [0, domain) from a list of values.
inline FrequencyVector MakeData(std::int64_t domain,
                                std::initializer_list<std::int64_t> values) {
  FrequencyVector data(domain);
  for (const std::int64_t v : values) data.Insert(v);
  return data;
}

/// Checks structural sanity of a model: pieces sorted, disjoint, positive
/// width, non-negative counts; buckets tile pieces. Returns true when valid
/// (the HistogramModel constructor DH_CHECKs most of this; tests use this
/// on derived data).
inline bool ModelIsValid(const HistogramModel& model) {
  double prev_right = -std::numeric_limits<double>::infinity();
  for (const auto& p : model.pieces()) {
    if (p.right <= p.left) return false;
    if (p.left < prev_right - 1e-9) return false;
    if (p.count < 0.0) return false;
    prev_right = p.right;
  }
  return true;
}

/// Exact structural equality of two models: identical piece lists (every
/// border and count bit for bit) and identical bucket tiling. This is the
/// oracle comparison for the sync-vs-async engine tests: with batch_size 1
/// the same op sequence must yield byte-identical publications no matter
/// when merges ran.
inline bool ModelsBitIdentical(const HistogramModel& a,
                               const HistogramModel& b) {
  return a.pieces() == b.pieces() && a.buckets() == b.buckets();
}

/// FNV-1a 64 offset basis: the digest of no models.
inline constexpr std::uint64_t kModelDigestBasis = 14695981039346656037ull;

/// FNV-1a 64 over the bit patterns of a model: every piece's borders and
/// count, then every bucket's piece tiling. `digest` continues a previous
/// digest, so a sequence of models folds into one value.
inline std::uint64_t ModelDigest(const HistogramModel& model,
                                 std::uint64_t digest = kModelDigestBasis) {
  const auto mix = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  for (const HistogramModel::Piece& p : model.pieces()) {
    mix(std::bit_cast<std::uint64_t>(p.left));
    mix(std::bit_cast<std::uint64_t>(p.right));
    mix(std::bit_cast<std::uint64_t>(p.count));
  }
  for (const HistogramModel::BucketRef& b : model.buckets()) {
    mix(b.first_piece);
    mix(b.num_pieces);
    mix(b.singular ? 1u : 0u);
  }
  return digest;
}

/// FNV-1a 64 over the bytes of `text`.
inline std::uint64_t TextDigest(std::string_view text) {
  std::uint64_t digest = kModelDigestBasis;
  for (const char c : text) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 1099511628211ull;
  }
  return digest;
}

/// A Prometheus exposition reduced to what a deterministic scenario can
/// pin: its lines sorted, and in every family whose name holds a timing
/// (`_nanos`, `_ns`, `staleness_seconds`) each series' value masked as
/// `*` and its `_bucket` lines dropped. Names, labels, HELP and TYPE
/// lines survive, so a dropped or renamed series changes the result but
/// the order of series inside a family does not.
inline std::string NormalizedExposition(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] != '#') {
      const std::string_view name(line.data(), line.find_first_of("{ "));
      if (name.find("_nanos") != std::string_view::npos ||
          name.find("_ns") != std::string_view::npos ||
          name.find("staleness_seconds") != std::string_view::npos) {
        if (name.ends_with("_bucket")) continue;
        line.replace(line.rfind(' ') + 1, std::string::npos, "*");
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string normalized;
  for (const std::string& line : lines) {
    normalized += line;
    normalized += '\n';
  }
  return normalized;
}

/// Feeds one update-stream operation to an engine key.
inline void ApplyToEngine(engine::HistogramEngine& engine,
                          std::string_view key, const UpdateOp& op) {
  switch (op.kind) {
    case UpdateOp::Kind::kInsert:
      engine.Insert(key, op.value);
      break;
    case UpdateOp::Kind::kDelete:
      engine.Delete(key, op.value);
      break;
    case UpdateOp::Kind::kFeedback:
      engine.RecordFeedback(engine.Resolve(key), op.value, op.hi, op.actual);
      break;
  }
}

/// Exhaustive optimal partition cost over `entries` into `buckets` buckets
/// (reference for DP tests; exponential, keep inputs tiny). Uses the same
/// bucket extent convention as the production DP: a bucket holding entries
/// [a..b] spans its data extent [value(a), value(b) + 1); zero frequencies
/// inside the extent count toward the deviation, trailing gaps do not.
double BruteForceOptimalCost(const std::vector<ValueFreq>& entries,
                             std::int64_t buckets, DeviationPolicy policy);

}  // namespace dynhist::testing

#endif  // DYNHIST_TESTS_TEST_UTIL_H_
