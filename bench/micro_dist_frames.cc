// Micro-benchmark: distributed frame ingest over real loopback sockets.
//
// A FrameServer is started on 127.0.0.1 (ephemeral port) and a
// FrameClient ships pre-encoded snapshot frames at it as fast as the
// socket allows, sweeping the pipeline depth (frames written per ack
// batch). Every frame carries a fresh watermark — synthesized by
// patching the epoch/watermark header fields of one sealed payload and
// re-checksumming — so each one takes the full path: decode, validate,
// slot replace, Superimpose + ReduceWithSsbm over the key's sites, and
// an external publish into the global-view engine.
//
// Three phases:
//   1. throughput — frames/sec per pipeline depth {1, 8, 64}, from the
//      shared timing helper (bench_util.h): after a warm-up round, rounds
//      in which the depth that has run the least ships the next batch
//      until each has run for at least 200 ms, printed as median
//      [p25, p75] n over the rounds. --quick times depth 64 only and
//      ships 256 frames at depths 1 and 8 untimed. The run FAILS (nonzero
//      exit) if the best depth's median is under 10,000 frames/sec on
//      one core — the PR 9 acceptance gate — or if any fresh frame, timed
//      or not, is not applied.
//   2. idempotence — the entire accepted stream is re-sent verbatim.
//      The run FAILS unless every ack is "duplicate" and the server's
//      merge counter moved by exactly zero (gated on the counter, not
//      a tolerance).
//   3. staleness — end-to-end publication delay: the wall time from
//      writing a frame to its ack, which the server sends only after
//      the merge is published and visible to queries (depth 1, so
//      nothing queues behind the measured frame). Reported as a
//      p50/p90/p99 series in microseconds.
//
// Flags: the shared bench flags (--quick).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/dynhist.h"

namespace {

using namespace dynhist;
using namespace dynhist::distributed;

using bench::Clock;

// One sealed frame per (site, key) from a realistic DC model; fresh
// watermarks are patched in per send.
std::vector<std::string> TemplateFrames(int keys, int sites_per_key) {
  Rng rng(17);
  const ZipfDistribution zipf(2'000, 1.0);
  DynamicCompressedHistogram dc(
      DynamicCompressedConfig{.buckets = 32, .alpha_min = 1e-6});
  for (int i = 0; i < 40'000; ++i) {
    dc.Insert(static_cast<std::int64_t>(zipf.Sample(rng)));
  }
  const HistogramModel model = dc.Model();
  std::vector<std::string> frames;
  for (int k = 0; k < keys; ++k) {
    for (int s = 0; s < sites_per_key; ++s) {
      FrameHeader header;
      header.site_id = static_cast<std::uint32_t>(s + 1);
      header.key = "bench.key." + std::to_string(k);
      frames.push_back(EncodeFrame(header, model));
    }
  }
  return frames;
}

// Gives `frame` a fresh watermark (and epoch) and reseals it.
void Restamp(std::string* frame, std::uint64_t watermark) {
  frame_internal::PatchEpoch(frame, watermark);
  frame_internal::PatchWatermark(frame, watermark);
  frame_internal::PatchChecksum(frame);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::FromArgs(argc, argv);
  const int kKeys = 8;
  const int kSitesPerKey = 2;

  FrameServer server;
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "micro_dist_frames: %s\n", error.c_str());
    return 1;
  }
  FrameClient client;
  if (!client.Connect("127.0.0.1", server.port(), &error)) {
    std::fprintf(stderr, "micro_dist_frames: %s\n", error.c_str());
    return 1;
  }
  const std::vector<std::string> templates =
      TemplateFrames(kKeys, kSitesPerKey);
  const std::size_t frame_bytes = templates[0].size();

  std::printf("== distributed frame ingest over loopback ==\n");
  std::printf("frame: %zu bytes, %d keys x %d sites, %d rounds of >= %.0f "
              "ms per depth\n",
              frame_bytes, kKeys, kSitesPerKey, bench::kRepeats,
              bench::kWindowSeconds * 1e3);

  // Phase 1: throughput per pipeline depth. Watermarks strictly
  // increase across the whole run, so every frame is applied (the
  // per-(site,key) slot advances every time).
  std::uint64_t next_watermark = 1;
  const std::vector<std::size_t> depths =
      options.quick ? std::vector<std::size_t>{64}
                    : std::vector<std::size_t>{1, 8, 64};
  std::size_t sent = 0, applied = 0, duplicate = 0, rejected = 0;
  bool transport_ok = true;
  const auto ship = [&](std::size_t depth) {
    std::vector<std::string> batch(depth);
    for (std::string& frame : batch) {
      frame = templates[sent++ % templates.size()];
      Restamp(&frame, next_watermark++);
    }
    transport_ok &= client.ShipFrames(batch, &applied, &duplicate, &rejected);
    return static_cast<double>(depth);
  };
  if (options.quick) {
    for (const std::size_t depth : {1, 8}) {
      for (std::size_t frames = 0; frames < 256; frames += depth) ship(depth);
    }
  }
  std::vector<bench::Step> arms;
  for (const std::size_t depth : depths) {
    arms.push_back([&, depth](int) { return ship(depth); });
  }
  const auto frames_per_sec = bench::Interleave(arms);
  if (!transport_ok) {
    std::fprintf(stderr, "micro_dist_frames: transport failed\n");
    return 1;
  }
  double best = 0.0;
  for (std::size_t d = 0; d < depths.size(); ++d) {
    const bench::Summary rate = bench::Summarize(frames_per_sec[d]);
    best = std::max(best, rate.median);
    std::printf("depth %2zu: frames/sec %s (%.2f MB/s wire at the median)\n",
                depths[d], bench::Describe(rate, "%.0f").c_str(),
                rate.median * static_cast<double>(frame_bytes) /
                    (1024.0 * 1024.0));
  }
  std::printf("%zu frames sent, %zu applied, %zu dup, %zu rej\n", sent,
              applied, duplicate, rejected);
  if (applied != sent || rejected != 0) {
    std::fprintf(stderr,
                 "micro_dist_frames: FAIL: %zu of %zu fresh frames "
                 "applied, %zu rejected\n",
                 applied, sent, rejected);
    return 1;
  }

  // Phase 2: duplicate storm. Re-send a full template round with the
  // watermarks all below the current slots; the merge counter must not
  // move at all.
  const std::uint64_t merges_before = server.aggregator().merges();
  std::size_t dup_sent = options.quick ? 2'000 : 10'000;
  {
    std::vector<std::string> batch;
    std::size_t applied = 0, duplicate = 0, rejected = 0;
    for (std::size_t i = 0; i < dup_sent; ++i) {
      batch.push_back(templates[i % templates.size()]);
      Restamp(&batch.back(), 1);
      if (batch.size() == 64 || i + 1 == dup_sent) {
        if (!client.ShipFrames(batch, &applied, &duplicate, &rejected)) {
          std::fprintf(stderr, "micro_dist_frames: transport failed\n");
          return 1;
        }
        batch.clear();
      }
    }
    const std::uint64_t merge_delta =
        server.aggregator().merges() - merges_before;
    std::printf(
        "duplicates: %zu re-sent, %zu acked duplicate, merge delta %llu\n",
        dup_sent, duplicate,
        static_cast<unsigned long long>(merge_delta));
    if (duplicate != dup_sent || merge_delta != 0) {
      std::fprintf(stderr,
                   "micro_dist_frames: FAIL: duplicate frames caused "
                   "%llu merges (want exactly 0)\n",
                   static_cast<unsigned long long>(merge_delta));
      return 1;
    }
  }

  // Phase 3: end-to-end staleness at depth 1 — write-to-ack wall time,
  // the ack meaning "merged and query-visible".
  const std::size_t staleness_samples = options.quick ? 1'000 : 5'000;
  std::vector<double> stale_us;
  stale_us.reserve(staleness_samples);
  for (std::size_t i = 0; i < staleness_samples; ++i) {
    std::string frame = templates[i % templates.size()];
    Restamp(&frame, next_watermark++);
    const auto start = Clock::now();
    Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
    if (!client.ShipFrame(frame, &result) ||
        result != Aggregator::IngestResult::kApplied) {
      std::fprintf(stderr, "micro_dist_frames: staleness ship failed\n");
      return 1;
    }
    stale_us.push_back(bench::SecondsSince(start) * 1e6);
  }
  std::printf("staleness (send -> merged+visible, n=%zu): p50 %.1f us, "
              "p90 %.1f us, p99 %.1f us\n",
              stale_us.size(), bench::Percentile(stale_us, 0.50),
              bench::Percentile(stale_us, 0.90),
              bench::Percentile(stale_us, 0.99));

  // The PR 9 throughput gate.
  if (best < 10'000.0) {
    std::fprintf(stderr,
                 "micro_dist_frames: FAIL: best depth's median %.0f "
                 "frames/sec < 10000 gate\n",
                 best);
    return 1;
  }
  std::printf("gates: best depth's median %.0f >= 10000 frames/sec, "
              "duplicate merge delta == 0 -- ok\n",
              best);
  return 0;
}
