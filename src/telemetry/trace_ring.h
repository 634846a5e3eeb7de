// Bounded ring-buffer event tracer with a chrome://tracing JSON dump.
//
// The engine's interesting moments — publishes, merges, flushes, queue
// rejects — happen at publish frequency (every snapshot_every updates),
// not per update, so the tracer optimizes for bounded memory and a
// useful dump rather than for nanosecond record cost: events land in a
// fixed power-of-two ring under a mutex (tens of nanoseconds,
// irrelevant at publish cadence), the newest `capacity` events survive,
// and everything older is overwritten and counted as dropped.
//
// DumpChromeTracing() renders the surviving events as a complete-event
// ("ph":"X") trace that chrome://tracing and Perfetto load directly:
// one named slice per event with its key/epoch/trigger as args, laid
// out on the recording thread's track. Timestamps are microsecond
// offsets from the ring's creation.

#ifndef DYNHIST_TELEMETRY_TRACE_RING_H_
#define DYNHIST_TELEMETRY_TRACE_RING_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dynhist::telemetry {

/// What happened. Values index kTraceEventNames.
enum class TraceEventKind : std::uint8_t {
  kPublish = 0,  ///< whole publication: flush + merge + snapshot swap
  kMerge,        ///< the Superimpose + reduce portion of a publication
  kFlush,        ///< draining shard buffers into the shard histograms
  kReject,       ///< publish request refused: the workers were stopping
};

/// One traced event. `key` and `trigger` point at storage that outlives
/// the ring (the engine's interned key names / static strings).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kPublish;
  const char* key = "";      ///< histogram key the event concerns
  const char* trigger = "";  ///< "sync", "async", "refresh", "external",
                             ///< "manual" (explicit Flush/FlushAll)
  std::uint64_t epoch = 0;   ///< published epoch (0 when n/a)
  std::uint64_t start_ns = 0;     ///< offset from ring creation
  std::uint64_t duration_ns = 0;  ///< 0 for instant events (reject)
  std::uint32_t tid = 0;          ///< recording thread (small dense id)
};

/// Fixed-capacity event ring. Thread-safe; capacity 0 disables recording
/// entirely (Record becomes a no-op, enabled() is false).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 2) unless 0.
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }

  /// Current offset-from-creation clock, for building events.
  std::uint64_t NowNs() const;

  /// Records one event (fills `tid` from the calling thread). Oldest
  /// events are overwritten once the ring is full.
  void Record(TraceEvent event);

  /// Events ever recorded / overwritten-before-read.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// The surviving events, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Appends the chrome://tracing JSON document (traceEvents array plus
  /// dropped-count metadata) to `*out`.
  void DumpChromeTracing(std::string* out) const;

 private:
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> slots_;   // guarded by mu_
  std::uint64_t next_ = 0;          // guarded by mu_: total ever recorded
};

/// Human-readable event-kind names, indexed by TraceEventKind.
extern const char* const kTraceEventNames[4];

}  // namespace dynhist::telemetry

#endif  // DYNHIST_TELEMETRY_TRACE_RING_H_
