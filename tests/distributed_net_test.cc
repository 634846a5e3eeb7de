// Regression suite for the socket I/O bugfix (PR 9 satellite 1).
//
// The demo-era server used bare write()/read() calls, which silently
// drop bytes on short writes, EINTR, and EAGAIN. These tests drive the
// shared WriteAll/ReadAll loops through every one of those conditions
// deliberately: a socketpair with the kernel send buffer shrunk to its
// floor so multi-hundred-KB transfers MUST fragment, nonblocking mode
// so EAGAIN fires, a signal storm with SA_RESTART disabled so EINTR
// fires mid-transfer, and a slow byte-at-a-time reader so the writer
// stalls repeatedly. The payload is pattern-checked byte for byte at
// the far end — any dropped or duplicated chunk fails.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/distributed/net.h"

namespace dynhist::net {
namespace {

// A payload with position-dependent bytes: if any chunk is dropped,
// duplicated, or reordered the mismatch names the exact offset.
std::string PatternPayload(std::size_t size) {
  std::string payload(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<char>((i * 131 + (i >> 8) * 7 + 5) & 0xff);
  }
  return payload;
}

void ExpectPattern(const std::string& got, std::size_t size) {
  ASSERT_EQ(got.size(), size);
  const std::string want = PatternPayload(size);
  for (std::size_t i = 0; i < size; ++i) {
    ASSERT_EQ(got[i], want[i]) << "payload diverges at byte " << i;
  }
}

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(NetTest, WriteAllSurvivesTinySendBufferBlocking) {
  SocketPair sp;
  // The kernel clamps to its floor (a few KB) — far below the payload,
  // so write() cannot take it in one call and the loop must resume.
  ASSERT_TRUE(SetSendBufferSize(sp.a, 1));
  ASSERT_TRUE(SetRecvBufferSize(sp.b, 1));
  const std::size_t kSize = 512 * 1024;
  const std::string payload = PatternPayload(kSize);

  std::string got;
  std::thread reader([&] {
    // Small reads so the writer repeatedly fills the buffer and stalls.
    char chunk[1024];
    while (got.size() < kSize) {
      const ssize_t n = ::read(sp.b, chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      got.append(chunk, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(WriteAll(sp.a, payload));
  reader.join();
  ExpectPattern(got, kSize);
}

TEST(NetTest, WriteAllSurvivesTinySendBufferNonblocking) {
  // Same as above but the writing fd is nonblocking, so the loop also
  // has to handle EAGAIN (poll for writability, then resume).
  SocketPair sp;
  ASSERT_TRUE(SetSendBufferSize(sp.a, 1));
  ASSERT_TRUE(SetRecvBufferSize(sp.b, 1));
  ASSERT_TRUE(SetNonBlocking(sp.a));
  const std::size_t kSize = 512 * 1024;
  const std::string payload = PatternPayload(kSize);

  std::string got;
  std::thread reader([&] {
    char chunk[777];  // odd size: misaligned with any internal chunking
    while (got.size() < kSize) {
      const ssize_t n = ::read(sp.b, chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      got.append(chunk, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(WriteAll(sp.a, payload));
  reader.join();
  ExpectPattern(got, kSize);
}

TEST(NetTest, ReadAllReassemblesDribbledBytes) {
  SocketPair sp;
  const std::size_t kSize = 64 * 1024;
  const std::string payload = PatternPayload(kSize);
  std::thread writer([&] {
    // Dribble in prime-sized chunks so ReadAll sees many short reads.
    std::size_t sent = 0;
    while (sent < kSize) {
      const std::size_t n = std::min<std::size_t>(509, kSize - sent);
      ASSERT_TRUE(WriteAll(sp.a, payload.data() + sent, n));
      sent += n;
    }
  });
  std::string got(kSize, '\0');
  EXPECT_TRUE(ReadAll(sp.b, got.data(), kSize));
  writer.join();
  ExpectPattern(got, kSize);
}

TEST(NetTest, ReadAllNonblockingWaitsForData) {
  SocketPair sp;
  ASSERT_TRUE(SetNonBlocking(sp.b));
  const std::size_t kSize = 32 * 1024;
  const std::string payload = PatternPayload(kSize);
  std::thread writer([&] {
    // Let the reader hit EAGAIN on an empty socket first.
    usleep(20 * 1000);
    ASSERT_TRUE(WriteAll(sp.a, payload));
  });
  std::string got(kSize, '\0');
  EXPECT_TRUE(ReadAll(sp.b, got.data(), kSize));
  writer.join();
  ExpectPattern(got, kSize);
}

TEST(NetTest, ReadAllReportsEofAsFailure) {
  SocketPair sp;
  ASSERT_TRUE(WriteAll(sp.a, "abc"));
  ::close(sp.a);
  sp.a = -1;
  char buf[8];
  EXPECT_FALSE(ReadAll(sp.b, buf, sizeof(buf)));  // only 3 of 8 arrive
}

// ---- EINTR ----------------------------------------------------------

std::atomic<int> g_signals_seen{0};
void CountSignal(int) { g_signals_seen.fetch_add(1); }

TEST(NetTest, WriteAllSurvivesSignalStorm) {
  // Install a SIGUSR1 handler WITHOUT SA_RESTART, so every delivery
  // makes blocked syscalls fail with EINTR instead of auto-resuming —
  // the loop itself must retry.
  struct sigaction sa = {};
  sa.sa_handler = CountSignal;
  sa.sa_flags = 0;  // no SA_RESTART: the whole point
  struct sigaction old_sa;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);
  g_signals_seen.store(0);

  SocketPair sp;
  ASSERT_TRUE(SetSendBufferSize(sp.a, 1));
  const std::size_t kSize = 512 * 1024;
  const std::string payload = PatternPayload(kSize);

  std::atomic<bool> writer_done{false};
  std::atomic<bool> writer_ok{false};
  std::thread writer([&] {
    writer_ok.store(WriteAll(sp.a, payload));
    writer_done.store(true);
  });
  const pthread_t writer_thread = writer.native_handle();

  std::string got;
  char chunk[1024];
  int signals_sent = 0;
  while (got.size() < kSize) {
    // Interrupt the (frequently blocked-in-write()) writer...
    if (!writer_done.load()) {
      ::pthread_kill(writer_thread, SIGUSR1);
      ++signals_sent;
    }
    // ...while draining slowly enough that it stays blocked often.
    const ssize_t n = ::read(sp.b, chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    got.append(chunk, static_cast<std::size_t>(n));
  }
  writer.join();
  ::sigaction(SIGUSR1, &old_sa, nullptr);

  EXPECT_TRUE(writer_ok.load());
  EXPECT_GT(signals_sent, 100);  // the storm actually happened
  ExpectPattern(got, kSize);
}

// ---- message envelopes ----------------------------------------------

TEST(NetTest, MessageRoundTripThroughTinyBuffers) {
  SocketPair sp;
  ASSERT_TRUE(SetSendBufferSize(sp.a, 1));
  const std::string big = PatternPayload(300 * 1024);
  std::thread writer([&] {
    ASSERT_TRUE(SendMessage(sp.a, "hello"));
    ASSERT_TRUE(SendMessage(sp.a, ""));  // empty payload is legal
    ASSERT_TRUE(SendMessage(sp.a, big));
  });
  std::string got;
  ASSERT_TRUE(RecvMessage(sp.b, &got));
  EXPECT_EQ(got, "hello");
  ASSERT_TRUE(RecvMessage(sp.b, &got));
  EXPECT_EQ(got, "");
  ASSERT_TRUE(RecvMessage(sp.b, &got));
  writer.join();
  ExpectPattern(got, 300 * 1024);
}

TEST(NetTest, RecvMessageRejectsOversizedPrefix) {
  SocketPair sp;
  // A hostile 4-byte prefix claiming ~4 GB.
  const unsigned char evil[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(WriteAll(sp.a, evil, sizeof(evil)));
  std::string got;
  EXPECT_FALSE(RecvMessage(sp.b, &got, /*max_len=*/1 << 20));
}

TEST(NetTest, AppendEnvelopeMatchesSendMessageWireBytes) {
  SocketPair sp;
  std::string buffered;
  AppendEnvelope(&buffered, "payload!");
  std::thread writer([&] { ASSERT_TRUE(SendMessage(sp.a, "payload!")); });
  std::string wire(buffered.size(), '\0');
  ASSERT_TRUE(ReadAll(sp.b, wire.data(), wire.size()));
  writer.join();
  EXPECT_EQ(wire, buffered);
}

TEST(NetTest, ReadSomeWriteSomeReportWouldBlockDistinctly) {
  SocketPair sp;
  ASSERT_TRUE(SetNonBlocking(sp.a));
  ASSERT_TRUE(SetNonBlocking(sp.b));
  // Empty socket: ReadSome reports would-block (0), not error.
  std::string buf;
  EXPECT_EQ(ReadSome(sp.b, &buf), 0);
  EXPECT_TRUE(buf.empty());
  // After data arrives it moves bytes.
  ASSERT_TRUE(WriteAll(sp.a, "xyz"));
  EXPECT_EQ(ReadSome(sp.b, &buf), 3);
  EXPECT_EQ(buf, "xyz");
  // Peer closed: -1 (connection done), not would-block.
  ::close(sp.a);
  sp.a = -1;
  EXPECT_EQ(ReadSome(sp.b, &buf), -1);

  // WriteSome against a full send buffer eventually reports 0.
  SocketPair sp2;
  ASSERT_TRUE(SetSendBufferSize(sp2.a, 1));
  ASSERT_TRUE(SetNonBlocking(sp2.a));
  const std::string chunk(64 * 1024, 'w');
  bool saw_would_block = false;
  for (int i = 0; i < 64 && !saw_would_block; ++i) {
    const std::ptrdiff_t n = WriteSome(sp2.a, chunk.data(), chunk.size());
    ASSERT_GE(n, 0);
    if (n == 0) saw_would_block = true;
  }
  EXPECT_TRUE(saw_would_block);
}

}  // namespace
}  // namespace dynhist::net
