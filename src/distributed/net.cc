#include "src/distributed/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

namespace dynhist::net {
namespace {

// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT), retrying
// EINTR. Infinite timeout: the exactly-N transfer loops own pacing.
bool PollFor(int fd, short events) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    const int rc = ::poll(&pfd, 1, -1);
    if (rc > 0) return true;
    if (rc < 0 && errno == EINTR) continue;
    return false;
  }
}

bool FillSockAddr(const std::string& host, std::uint16_t port,
                  struct sockaddr_in* addr, std::string* error) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address '" + host + "'";
    return false;
  }
  return true;
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + strerror(errno);
}

}  // namespace

bool SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool SetSendBufferSize(int fd, int bytes) {
  return ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) == 0;
}

bool SetRecvBufferSize(int fd, int bytes) {
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) == 0;
}

bool WriteAll(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, p + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!PollFor(fd, POLLOUT)) return false;
      continue;
    }
    return false;  // hard error (EPIPE, ECONNRESET, ...) or a 0 write
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;  // EOF mid-message
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!PollFor(fd, POLLIN)) return false;
      continue;
    }
    return false;
  }
  return true;
}

std::ptrdiff_t ReadSome(int fd, std::string* buf, std::size_t chunk) {
  const std::size_t old = buf->size();
  buf->resize(old + chunk);
  for (;;) {
    const ssize_t n = ::read(fd, buf->data() + old, chunk);
    if (n > 0) {
      buf->resize(old + static_cast<std::size_t>(n));
      return n;
    }
    buf->resize(old);
    if (n == 0) return -1;  // orderly EOF: connection done
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

std::ptrdiff_t WriteSome(int fd, const char* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::write(fd, data, size);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

void AppendEnvelope(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload);
}

bool SendMessage(int fd, std::string_view payload) {
  if (payload.size() > kMaxMessageBytes) return false;
  std::string wire;
  wire.reserve(4 + payload.size());
  AppendEnvelope(&wire, payload);
  return WriteAll(fd, wire);
}

bool RecvMessage(int fd, std::string* payload, std::size_t max_len) {
  char prefix[4];
  if (!ReadAll(fd, prefix, 4)) return false;
  const std::uint32_t len = GetU32(prefix);
  if (len > max_len) return false;
  payload->resize(len);
  return len == 0 || ReadAll(fd, payload->data(), len);
}

int ListenTcp(const std::string& host, std::uint16_t port, int backlog,
              std::uint16_t* bound_port, std::string* error) {
  struct sockaddr_in addr;
  if (!FillSockAddr(host, port, &addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoString("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0 || !SetNonBlocking(fd)) {
    if (error != nullptr) *error = ErrnoString("bind/listen");
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &len) != 0) {
      if (error != nullptr) *error = ErrnoString("getsockname");
      ::close(fd);
      return -1;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int ConnectTcp(const std::string& host, std::uint16_t port,
               std::string* error) {
  struct sockaddr_in addr;
  if (!FillSockAddr(host, port, &addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoString("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // A blocking connect interrupted by a signal keeps connecting in the
    // background — re-calling connect() yields EALREADY/EISCONN, not
    // success. Wait for writability and read the final SO_ERROR instead.
    if (errno != EINTR) {
      if (error != nullptr) *error = ErrnoString("connect");
      ::close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (!PollFor(fd, POLLOUT) ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (error != nullptr) {
        errno = so_error != 0 ? so_error : errno;
        *error = ErrnoString("connect");
      }
      ::close(fd);
      return -1;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace dynhist::net
