// Minimal POSIX socket plumbing for the distributed tier.
//
// The demo-era server wrote with bare write() calls — short writes,
// EINTR, and EAGAIN all silently dropped bytes. This header is the
// fix, shared by the frame server and the client so neither grows its
// own subtly-different loop:
//
//   WriteAll / ReadAll   transfer exactly N bytes or fail. They retry
//                        EINTR, resume after short transfers, and on
//                        EAGAIN/EWOULDBLOCK poll() for readiness — so
//                        they are correct on blocking AND nonblocking
//                        descriptors (the regression test drives them
//                        through a deliberately tiny SO_SNDBUF).
//   ReadSome / WriteSome single-shot nonblocking helpers for the epoll
//                        loop: move what the kernel will take now and
//                        report would-block distinctly from error/EOF.
//   SendMessage /        u32-LE length-prefixed envelopes over
//   RecvMessage          WriteAll/ReadAll — the transport under every
//                        protocol message (frames, queries, replies).
//   PutU32 / GetU32 ...  the little-endian integer codec every byte
//                        format of the tier shares.
//
// Everything returns false / -1 with errno left describing the failure;
// nothing throws and nothing aborts.

#ifndef DYNHIST_DISTRIBUTED_NET_H_
#define DYNHIST_DISTRIBUTED_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dynhist::net {

/// Ceiling on one length-prefixed message (64 MiB) — a corrupt or
/// hostile length prefix must not translate into an unbounded
/// allocation.
inline constexpr std::size_t kMaxMessageBytes = std::size_t{1} << 26;

/// Little-endian fixed-width integers: the byte order of envelope
/// prefixes, frames (frame.h) and protocol messages (wire_protocol.h).
/// Byte shifts, not a memcpy of the host representation, so the bytes
/// do not depend on the host.
inline void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

inline std::uint64_t GetU64(const char* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

/// Sets or clears O_NONBLOCK. Returns false on fcntl failure.
bool SetNonBlocking(int fd, bool nonblocking = true);

/// Shrinks/grows the kernel send/receive buffer (SO_SNDBUF/SO_RCVBUF).
/// The kernel clamps to its floor; used by tests to force short writes.
bool SetSendBufferSize(int fd, int bytes);
bool SetRecvBufferSize(int fd, int bytes);

/// Writes exactly `size` bytes. Retries EINTR and short writes; on
/// EAGAIN waits for writability with poll(). False on any hard error.
bool WriteAll(int fd, const void* data, std::size_t size);
inline bool WriteAll(int fd, std::string_view data) {
  return WriteAll(fd, data.data(), data.size());
}

/// Reads exactly `size` bytes. Retries EINTR and short reads; on EAGAIN
/// waits for readability with poll(). False on error or EOF before
/// `size` bytes arrived.
bool ReadAll(int fd, void* data, std::size_t size);

/// Nonblocking single-shot read: appends up to `chunk` bytes to `*buf`.
/// Returns bytes read (> 0), 0 when the read would block, -1 on error
/// or orderly EOF (either way the connection is done).
std::ptrdiff_t ReadSome(int fd, std::string* buf,
                        std::size_t chunk = 64 * 1024);

/// Nonblocking single-shot write of up to `size` bytes. Returns bytes
/// written (> 0), 0 when the write would block, -1 on error.
std::ptrdiff_t WriteSome(int fd, const char* data, std::size_t size);

/// Appends the u32-LE length prefix + `payload` to `*out` (the buffered
/// form of SendMessage, for the server's nonblocking write queue).
void AppendEnvelope(std::string* out, std::string_view payload);

/// Writes one length-prefixed message / reads one into `*payload`.
/// RecvMessage rejects prefixes above `max_len` (connection is then
/// unusable — framing is lost) and reports EOF as failure.
bool SendMessage(int fd, std::string_view payload);
bool RecvMessage(int fd, std::string* payload,
                 std::size_t max_len = kMaxMessageBytes);

/// Binds and listens on host:port (IPv4 dotted quad; port 0 picks an
/// ephemeral port, reported through *bound_port). Returns the listening
/// fd (nonblocking, SO_REUSEADDR) or -1 with a diagnostic in *error.
int ListenTcp(const std::string& host, std::uint16_t port, int backlog,
              std::uint16_t* bound_port, std::string* error);

/// Connects (blocking) to host:port. Returns the fd or -1 with a
/// diagnostic in *error.
int ConnectTcp(const std::string& host, std::uint16_t port,
               std::string* error);

}  // namespace dynhist::net

#endif  // DYNHIST_DISTRIBUTED_NET_H_
