// FrameServer: the aggregator behind a real socket.
//
// A single-threaded epoll/nonblocking event loop (its own background
// thread) accepting site and query connections on a TCP port. Each
// connection carries length-prefixed protocol messages
// (wire_protocol.h); requests are answered in order, so clients may
// pipeline. Per-connection state is exactly the PR 8 design: a read
// buffer, a pending-write buffer (nonblocking sockets mean a reply can
// land in pieces — the EPOLLOUT machinery finishes it), and a cache of
// resolved KeyHandles, so a connection's Nth query for a key performs
// no registry lookup.
//
// Frames are applied synchronously in the loop before the ack is
// queued: a site that has its ack knows its snapshot is merged and
// visible to every query that arrives after — the ordering the
// end-to-end staleness series measures.

#ifndef DYNHIST_DISTRIBUTED_FRAME_SERVER_H_
#define DYNHIST_DISTRIBUTED_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/distributed/aggregator.h"

namespace dynhist::distributed {

class FrameServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral, see port()
    int backlog = 64;
    Aggregator::Options aggregator;
  };

  FrameServer();  // default Options
  explicit FrameServer(Options options);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread. False (with a
  /// diagnostic) if the socket could not be set up. Idempotent until
  /// Stop().
  bool Start(std::string* error = nullptr);

  /// Wakes the loop, joins the thread, closes every connection. Safe
  /// to call repeatedly; the destructor calls it.
  void Stop();

  /// The bound port (after Start(); meaningful with Options::port == 0).
  std::uint16_t port() const { return port_; }

  Aggregator& aggregator() { return aggregator_; }

  std::uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }
  std::uint64_t protocol_errors() const { return protocol_errors_.load(); }

  /// The exposition a metrics scrape ('M') returns: the aggregator's
  /// series and the global-view engine's, collected in one pass.
  void WriteMetricsPrometheus(std::string* out) const;

 private:
  struct Connection {
    int fd = -1;
    std::string in;           // bytes read, [in_pos, end) unconsumed
    std::size_t in_pos = 0;
    std::string out;          // queued replies, [out_pos, end) unsent
    std::size_t out_pos = 0;
    bool close_after_flush = false;  // protocol error: answer, then drop
    std::map<std::string, engine::KeyHandle, std::less<>> handles;
  };

  void RunLoop();
  void AcceptPending();
  void HandleReadable(Connection& conn);
  // Consumes complete envelopes from conn.in; queues replies.
  void ProcessBuffered(Connection& conn);
  void HandleMessage(Connection& conn, std::string_view payload);
  // Writes what the socket will take; returns false when the
  // connection should be torn down.
  bool FlushOut(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);

  const Options options_;
  Aggregator aggregator_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() kicks the loop
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::map<int, std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace dynhist::distributed

#endif  // DYNHIST_DISTRIBUTED_FRAME_SERVER_H_
