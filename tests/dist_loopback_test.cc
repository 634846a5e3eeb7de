// Loopback integration suite for the distributed tier (PR 9 tentpole):
// real site engines shipping real frames through real TCP sockets to a
// real FrameServer, with every estimate compared EXPECT_EQ — not
// within-epsilon — against the aggregator's merge replicated
// in-process. The frame codec, the socket transport, the decode path,
// and the merge must collectively preserve every bit, including across
// the adversarial fractional-border fleets (thirds vs sevenths) whose
// superposition makes the most ill-conditioned composites the PR 7
// arena tests use.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/distributed/frame.h"
#include "src/distributed/frame_client.h"
#include "src/distributed/frame_server.h"
#include "src/distributed/site_shipper.h"
#include "src/engine/histogram_engine.h"
#include "src/histogram/compiled_snapshot.h"
#include "src/histogram/merge.h"
#include "src/histogram/model.h"
#include "src/telemetry/exposition.h"
#include "tests/test_util.h"

namespace dynhist::distributed {
namespace {

using Piece = HistogramModel::Piece;

constexpr const char* kKeys[] = {"orders.amount", "web.latency_ms"};
constexpr std::int64_t kDomain = 2'000;

engine::EngineOptions SiteOptions() {
  engine::EngineOptions o;
  o.shards = 2;
  o.snapshot_every = 0;  // manual RefreshAll per round
  o.async_publish = false;
  return o;
}

// A fixture owning one server and one connected client.
class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.Start(&error)) << error;
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_.port(), &error))
        << error;
  }

  FrameServer server_;
  FrameClient client_;
};

TEST_F(LoopbackTest, SiteEnginesBitIdenticalAndReshipIsNoOp) {
  // Three shared-nothing sites, each its own engine over the same two
  // keys with a site-shifted Zipf stream: overlapping supports,
  // different hot spots, real cross-site border interleaving.
  constexpr int kSites = 3;
  std::vector<std::unique_ptr<engine::HistogramEngine>> engines;
  std::vector<std::unique_ptr<SiteShipper>> shippers;
  for (int s = 0; s < kSites; ++s) {
    engines.push_back(
        std::make_unique<engine::HistogramEngine>(SiteOptions()));
    shippers.push_back(std::make_unique<SiteShipper>(
        engines.back().get(), static_cast<std::uint32_t>(s + 1)));
  }
  std::size_t shipped = 0;
  for (int s = 0; s < kSites; ++s) {
    Rng rng(static_cast<std::uint64_t>(s) * 77 + 3);
    const ZipfDistribution zipf(static_cast<std::size_t>(kDomain), 0.9);
    for (int i = 0; i < 20'000; ++i) {
      for (const char* key : kKeys) {
        const auto v = static_cast<std::int64_t>(zipf.Sample(rng));
        engines[static_cast<std::size_t>(s)]->Insert(key,
                                                     (v + s * 97) % kDomain);
      }
    }
    engines[static_cast<std::size_t>(s)]->RefreshAll();
    shipped += shippers[static_cast<std::size_t>(s)]->Ship(
        client_.FrameSink());
  }
  ASSERT_EQ(shipped, static_cast<std::size_t>(kSites) * 2);
  const Aggregator& agg = server_.aggregator();
  EXPECT_EQ(agg.frames_applied(), shipped);
  EXPECT_EQ(agg.merges(), shipped);
  EXPECT_EQ(agg.NumSites(), static_cast<std::size_t>(kSites));
  EXPECT_EQ(agg.NumKeys(), 2u);

  // Bit-identical check: replicate the aggregator's exact merge —
  // same models, ascending site order, same reduction mode and bucket
  // budget, compiled to the same arena — and compare with operator==.
  for (const char* key : kKeys) {
    std::vector<HistogramModel> models;
    for (int s = 0; s < kSites; ++s) {
      HistogramModel model =
          engines[static_cast<std::size_t>(s)]->Snapshot(key).model();
      ASSERT_FALSE(model.Empty());
      models.push_back(std::move(model));
    }
    SnapshotMerger merger;
    const HistogramModel merged = merger.MergeAndReduce(models, 64);
    const CompiledSnapshot compiled = CompiledSnapshot::Compile(merged);
    Rng rng(99);
    for (int q = 0; q < 300; ++q) {
      const std::int64_t lo = rng.UniformInt(0, kDomain - 1);
      const std::int64_t hi =
          std::min<std::int64_t>(kDomain - 1, lo + rng.UniformInt(0, 400));
      double over_the_wire = 0.0;
      ASSERT_TRUE(client_.Query(key, lo, hi, &over_the_wire));
      EXPECT_EQ(over_the_wire, compiled.EstimateRange(lo, hi))
          << key << " [" << lo << ", " << hi << "]";
    }
  }

  // Idempotence: force a re-ship of every frame already acknowledged.
  // Every ack must be "duplicate" and the merge counter must not move.
  const std::uint64_t merges_before = agg.merges();
  std::size_t reshipped = 0;
  for (int s = 0; s < kSites; ++s) {
    reshipped += shippers[static_cast<std::size_t>(s)]->Ship(
        [&](std::string_view frame) {
          Aggregator::IngestResult result =
              Aggregator::IngestResult::kRejected;
          EXPECT_TRUE(client_.ShipFrame(frame, &result));
          EXPECT_EQ(result, Aggregator::IngestResult::kDuplicate);
          return true;
        },
        /*force=*/true);
  }
  EXPECT_EQ(reshipped, shipped);
  EXPECT_EQ(agg.merges(), merges_before);
  EXPECT_EQ(agg.frames_duplicate(), shipped);

  // Queries after the duplicate storm still answer identically (the
  // published view was untouched).
  double estimate = 0.0;
  ASSERT_TRUE(client_.Query(kKeys[0], 0, kDomain - 1, &estimate));
  EXPECT_GT(estimate, 0.0);
}

// A sink that fails aborts the round, and the key whose frame it
// rejected stays pending with the keys after it: the next ordinary round
// ships them, and Ship counts accepted frames only.
TEST(SiteShipperTest, RejectedFrameStaysPendingForTheNextRound) {
  engine::HistogramEngine engine(SiteOptions());
  for (const char* key : {"a", "b", "c"}) {
    for (std::int64_t v = 0; v < 100; ++v) engine.Insert(key, v);
  }
  engine.RefreshAll();
  SiteShipper shipper(&engine, /*site_id=*/1);

  std::vector<std::string> accepted;
  std::size_t budget = 1;  // frames the sink takes before it fails
  const auto sink = [&](std::string_view frame) {
    if (budget == 0) return false;
    --budget;
    DecodedFrame decoded;
    EXPECT_EQ(DecodeFrame(frame, &decoded), FrameError::kOk);
    accepted.push_back(decoded.header.key);
    return true;
  };
  EXPECT_EQ(shipper.Ship(sink), 1u);  // takes "a", fails on "b"

  budget = 10;
  EXPECT_EQ(shipper.Ship(sink), 2u);  // not forced: "b" and "c"
  EXPECT_EQ(accepted, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(shipper.Ship(sink), 0u);  // nothing new
}

TEST_F(LoopbackTest, AdversarialFractionalBordersBitIdentical) {
  // Hand-built site models on thirds vs sevenths vs halves: the
  // superposition's borders interleave at fractions no double
  // represents exactly, the harshest case for "the wire answer equals
  // the in-process answer to the last bit".
  std::vector<HistogramModel> site_models;
  {
    std::vector<Piece> pieces;
    for (int i = 0; i < 21; ++i) {
      pieces.push_back({i * (1000.0 / 3.0) / 21.0,
                        (i + 1) * (1000.0 / 3.0) / 21.0, 10.0 + i * 0.25});
    }
    site_models.push_back(HistogramModel::FromSimpleBuckets(pieces));
  }
  {
    std::vector<Piece> pieces;
    for (int i = 0; i < 14; ++i) {
      pieces.push_back({50.0 + i * (2000.0 / 7.0) / 14.0,
                        50.0 + (i + 1) * (2000.0 / 7.0) / 14.0,
                        3.0 + (i % 5)});
    }
    site_models.push_back(HistogramModel::FromSimpleBuckets(pieces));
  }
  {
    std::vector<Piece> pieces;
    for (int i = 0; i < 9; ++i) {
      pieces.push_back({100.0 + i * 55.5, 100.0 + (i + 1) * 55.5,
                        7.5 + i});
    }
    site_models.push_back(HistogramModel::FromSimpleBuckets(pieces));
  }

  for (std::size_t s = 0; s < site_models.size(); ++s) {
    FrameHeader header;
    header.site_id = static_cast<std::uint32_t>(s + 1);
    header.key = "adversarial";
    header.epoch = 1;
    header.watermark = 1;
    Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
    ASSERT_TRUE(
        client_.ShipFrame(EncodeFrame(header, site_models[s]), &result));
    ASSERT_EQ(result, Aggregator::IngestResult::kApplied);
  }

  SnapshotMerger merger;
  const HistogramModel merged = merger.MergeAndReduce(site_models, 64);
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(merged);
  for (std::int64_t lo = 0; lo < 1000; lo += 13) {
    for (const std::int64_t width : {0, 7, 100, 555}) {
      double over_the_wire = 0.0;
      ASSERT_TRUE(
          client_.Query("adversarial", lo, lo + width, &over_the_wire));
      EXPECT_EQ(over_the_wire, compiled.EstimateRange(lo, lo + width))
          << "[" << lo << ", " << lo + width << "]";
    }
  }
}

TEST_F(LoopbackTest, StaleWatermarksAreDuplicatesNewOnesApply) {
  const HistogramModel model = HistogramModel::FromSimpleBuckets(
      {{0.0, 10.0, 100.0}, {10.0, 25.5, 40.0}});
  FrameHeader header;
  header.site_id = 9;
  header.key = "stale.check";
  header.epoch = 3;
  header.watermark = 5;

  auto ship = [&](std::uint64_t epoch, std::uint64_t watermark) {
    header.epoch = epoch;
    header.watermark = watermark;
    Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
    EXPECT_TRUE(client_.ShipFrame(EncodeFrame(header, model), &result));
    return result;
  };

  EXPECT_EQ(ship(3, 5), Aggregator::IngestResult::kApplied);
  // A reordered older frame: lower watermark, dropped.
  EXPECT_EQ(ship(2, 3), Aggregator::IngestResult::kDuplicate);
  // An exact re-send: equal watermark, dropped.
  EXPECT_EQ(ship(3, 5), Aggregator::IngestResult::kDuplicate);
  // Progress: higher watermark, applied.
  EXPECT_EQ(ship(4, 6), Aggregator::IngestResult::kApplied);
  EXPECT_EQ(server_.aggregator().frames_applied(), 2u);
  EXPECT_EQ(server_.aggregator().frames_duplicate(), 2u);
  EXPECT_EQ(server_.aggregator().merges(), 2u);
}

TEST_F(LoopbackTest, CorruptFramesRejectedWithTypedErrors) {
  FrameHeader header;
  header.site_id = 1;
  header.key = "corrupt.check";
  header.epoch = 1;
  header.watermark = 1;
  const std::string good = EncodeFrame(
      header,
      HistogramModel::FromSimpleBuckets({{0.0, 4.0, 8.0}, {4.0, 9.0, 2.0}}));

  // Bit-flipped payload: rejected as a checksum failure, counted, and
  // the merge path untouched.
  std::string bad = good;
  bad[kFrameHeaderBytes + 3] = static_cast<char>(bad[kFrameHeaderBytes + 3] ^ 0x10);
  Aggregator::IngestResult result = Aggregator::IngestResult::kApplied;
  FrameError frame_error = FrameError::kOk;
  ASSERT_TRUE(client_.ShipFrame(bad, &result, &frame_error));
  EXPECT_EQ(result, Aggregator::IngestResult::kRejected);
  EXPECT_EQ(frame_error, FrameError::kBadChecksum);

  // Truncated payload.
  ASSERT_TRUE(
      client_.ShipFrame(std::string_view(good).substr(0, 20), &result,
                        &frame_error));
  EXPECT_EQ(result, Aggregator::IngestResult::kRejected);
  EXPECT_EQ(frame_error, FrameError::kTruncated);

  const Aggregator& agg = server_.aggregator();
  EXPECT_EQ(agg.frames_rejected(), 2u);
  EXPECT_EQ(agg.merges(), 0u);
  EXPECT_EQ(agg.NumKeys(), 0u);

  // The connection survives rejected frames; the original applies.
  ASSERT_TRUE(client_.ShipFrame(good, &result, &frame_error));
  EXPECT_EQ(result, Aggregator::IngestResult::kApplied);
  EXPECT_EQ(frame_error, FrameError::kOk);
}

TEST_F(LoopbackTest, PipelinedBatchShipCountsOutcomes) {
  // ShipFrames writes the whole batch before reading any ack; the
  // server answers in order. Batch = two fresh frames + one duplicate.
  const HistogramModel model =
      HistogramModel::FromSimpleBuckets({{0.0, 5.0, 10.0}});
  FrameHeader header;
  header.key = "batch.check";
  std::vector<std::string> frames;
  header.site_id = 1;
  header.epoch = 1;
  header.watermark = 1;
  frames.push_back(EncodeFrame(header, model));
  header.site_id = 2;
  frames.push_back(EncodeFrame(header, model));
  frames.push_back(frames[0]);  // re-send of the first
  std::size_t applied = 0, duplicate = 0, rejected = 0;
  ASSERT_TRUE(client_.ShipFrames(frames, &applied, &duplicate, &rejected));
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(duplicate, 1u);
  EXPECT_EQ(rejected, 0u);
}

TEST_F(LoopbackTest, QueriesForUnshippedKeysCreateNothing) {
  // A remote query must not grow the aggregator: a key no site has
  // shipped answers 0, counts as an unknown query, and is not created.
  constexpr int kQueries = 100;
  for (int q = 0; q < kQueries; ++q) {
    double estimate = -1.0;
    ASSERT_TRUE(client_.Query("unshipped." + std::to_string(q), 0, 10,
                              &estimate));
    EXPECT_EQ(estimate, 0.0);
  }
  const engine::HistogramEngine& engine = server_.aggregator().engine();
  EXPECT_EQ(engine.Stats().keys, 0u);
  EXPECT_EQ(engine.Stats().unknown_queries,
            static_cast<std::uint64_t>(kQueries));

  // Once a site ships one of those keys, the same connection's next
  // query answers from the published view.
  FrameHeader header;
  header.site_id = 1;
  header.key = "unshipped.7";
  header.epoch = 1;
  header.watermark = 1;
  const HistogramModel model =
      HistogramModel::FromSimpleBuckets({{0.0, 8.0, 64.0}});
  Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
  ASSERT_TRUE(client_.ShipFrame(EncodeFrame(header, model), &result));
  ASSERT_EQ(result, Aggregator::IngestResult::kApplied);
  double estimate = 0.0;
  ASSERT_TRUE(client_.Query("unshipped.7", 0, 7, &estimate));
  EXPECT_EQ(estimate, CompiledSnapshot::Compile(model).EstimateRange(0, 7));
  EXPECT_EQ(engine.Stats().keys, 1u);
}

TEST_F(LoopbackTest, MetricsScrapeIsValidPrometheus) {
  // Ship something so per-site instruments exist, then scrape.
  FrameHeader header;
  header.site_id = 4;
  header.key = "metrics.check";
  header.epoch = 1;
  header.watermark = 1;
  Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
  ASSERT_TRUE(client_.ShipFrame(
      EncodeFrame(header,
                  HistogramModel::FromSimpleBuckets({{0.0, 2.0, 6.0}})),
      &result));
  ASSERT_EQ(result, Aggregator::IngestResult::kApplied);

  std::string text;
  ASSERT_TRUE(client_.FetchMetrics(&text));
  std::string error;
  EXPECT_TRUE(telemetry::SelfCheckPrometheus(text, &error)) << error;
  // Global counters, the per-site instruments (with the site label),
  // and the global-view engine's exposition all present.
  EXPECT_NE(text.find("dynhist_agg_merges_total"), std::string::npos);
  EXPECT_NE(text.find("dynhist_agg_frames_received_total{site=\"4\"}"),
            std::string::npos);
}

// Pins the server's whole scrape (aggregator series plus the global-view
// engine's) after two sites each ship a frame and its re-send, and one
// garbage frame arrives. The digest covers every family, HELP, TYPE,
// label set and value; change it only with a deliberate change to the
// exposition.
TEST(LoopbackExpositionTest, ServerScrapeIsPinned) {
  FrameServer server;
  Aggregator& agg = server.aggregator();
  FrameHeader header;
  header.key = "pinned.key";
  header.epoch = 1;
  for (const std::uint32_t site : {1u, 2u}) {
    header.site_id = site;
    header.watermark = 10 * site;
    const std::string frame = EncodeFrame(
        header, HistogramModel::FromSimpleBuckets(
                    {{0.0, 4.0 * site, 8.0}, {4.0 * site, 9.0 * site, 2.0}}));
    EXPECT_EQ(agg.Ingest(frame), Aggregator::IngestResult::kApplied);
    EXPECT_EQ(agg.Ingest(frame), Aggregator::IngestResult::kDuplicate);
  }
  EXPECT_EQ(agg.Ingest("not a frame"), Aggregator::IngestResult::kRejected);

  std::string text;
  server.WriteMetricsPrometheus(&text);
  std::string error;
  EXPECT_TRUE(telemetry::SelfCheckPrometheus(text, &error)) << error;
  const std::string normalized = testing::NormalizedExposition(text);
  for (const char* line : {
           "dynhist_agg_frames_applied_total{site=\"2\"} 1\n",
           "dynhist_agg_frames_duplicate_total{site=\"1\"} 1\n",
           "dynhist_agg_frames_rejected_total 1\n",
           "dynhist_agg_merges_total 2\n",
           "dynhist_agg_site_staleness_seconds{site=\"1\"} *\n",
           "dynhist_engine_publishes_total 2\n",
           "dynhist_key_snapshot_epoch{key=\"pinned.key\"} 2\n",
       }) {
    EXPECT_NE(normalized.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(testing::TextDigest(normalized), 0x8175104b30653c89ull)
      << normalized;
}

TEST_F(LoopbackTest, SecondClientSharesTheGlobalView) {
  // Frames from this client; queries from a second connection — the
  // published global view is connection-independent.
  FrameHeader header;
  header.site_id = 1;
  header.key = "shared.view";
  header.epoch = 1;
  header.watermark = 1;
  const HistogramModel model =
      HistogramModel::FromSimpleBuckets({{0.0, 8.0, 64.0}});
  Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
  ASSERT_TRUE(client_.ShipFrame(EncodeFrame(header, model), &result));
  ASSERT_EQ(result, Aggregator::IngestResult::kApplied);

  FrameClient other;
  std::string error;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_.port(), &error)) << error;
  const CompiledSnapshot compiled = CompiledSnapshot::Compile(model);
  double estimate = 0.0;
  ASSERT_TRUE(other.Query("shared.view", 0, 7, &estimate));
  EXPECT_EQ(estimate, compiled.EstimateRange(0, 7));
  EXPECT_EQ(server_.connections_accepted(), 2u);
}

}  // namespace
}  // namespace dynhist::distributed
