#include "src/distributed/frame_client.h"

#include <unistd.h>

#include <bit>

#include "src/distributed/net.h"
#include "src/distributed/wire_protocol.h"

namespace dynhist::distributed {

FrameClient::~FrameClient() { Close(); }

bool FrameClient::Connect(const std::string& host, std::uint16_t port,
                          std::string* error) {
  Close();
  fd_ = net::ConnectTcp(host, port, error);
  return fd_ >= 0;
}

void FrameClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FrameClient::ReadStatusReply(Aggregator::IngestResult* result,
                                  FrameError* frame_error) {
  std::string reply;
  if (!net::RecvMessage(fd_, &reply)) return false;
  if (reply.size() != 3 || reply[0] != wire::kReplyStatus) return false;
  const auto status = static_cast<unsigned char>(reply[1]);
  if (result != nullptr) {
    *result = status == wire::kStatusApplied
                  ? Aggregator::IngestResult::kApplied
                  : status == wire::kStatusDuplicate
                        ? Aggregator::IngestResult::kDuplicate
                        : Aggregator::IngestResult::kRejected;
  }
  if (frame_error != nullptr) {
    *frame_error =
        static_cast<FrameError>(static_cast<unsigned char>(reply[2]));
  }
  return true;
}

bool FrameClient::ShipFrame(std::string_view frame,
                            Aggregator::IngestResult* result,
                            FrameError* frame_error) {
  if (fd_ < 0) return false;
  std::string request;
  request.reserve(1 + frame.size());
  request.push_back(wire::kMsgFrame);
  request.append(frame);
  if (!net::SendMessage(fd_, request)) return false;
  return ReadStatusReply(result, frame_error);
}

bool FrameClient::ShipFrames(const std::vector<std::string>& frames,
                             std::size_t* applied, std::size_t* duplicate,
                             std::size_t* rejected) {
  if (fd_ < 0) return false;
  // One buffered write for the whole batch, then the acks in order —
  // the replies are tiny (7 bytes each), so the kernel buffers them
  // while we are still writing and no deadlock is possible.
  std::string wire_bytes;
  std::size_t total = 1;
  for (const std::string& f : frames) total += f.size() + 5;
  wire_bytes.reserve(total);
  for (const std::string& f : frames) {
    std::string request;
    request.reserve(1 + f.size());
    request.push_back(wire::kMsgFrame);
    request.append(f);
    net::AppendEnvelope(&wire_bytes, request);
  }
  if (!net::WriteAll(fd_, wire_bytes)) return false;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Aggregator::IngestResult result = Aggregator::IngestResult::kRejected;
    if (!ReadStatusReply(&result, nullptr)) return false;
    switch (result) {
      case Aggregator::IngestResult::kApplied:
        if (applied != nullptr) ++*applied;
        break;
      case Aggregator::IngestResult::kDuplicate:
        if (duplicate != nullptr) ++*duplicate;
        break;
      case Aggregator::IngestResult::kRejected:
        if (rejected != nullptr) ++*rejected;
        break;
    }
  }
  return true;
}

bool FrameClient::Query(std::string_view key, std::int64_t lo,
                        std::int64_t hi, double* estimate) {
  if (fd_ < 0) return false;
  std::string request;
  request.reserve(1 + 4 + key.size() + 16);
  request.push_back(wire::kMsgQuery);
  net::PutU32(&request, static_cast<std::uint32_t>(key.size()));
  request.append(key);
  net::PutU64(&request, static_cast<std::uint64_t>(lo));
  net::PutU64(&request, static_cast<std::uint64_t>(hi));
  if (!net::SendMessage(fd_, request)) return false;
  std::string reply;
  if (!net::RecvMessage(fd_, &reply)) return false;
  if (reply.size() != 9 || reply[0] != wire::kReplyEstimate) return false;
  if (estimate != nullptr) {
    *estimate = std::bit_cast<double>(net::GetU64(reply.data() + 1));
  }
  return true;
}

bool FrameClient::FetchMetrics(std::string* text) {
  if (fd_ < 0) return false;
  const char request = wire::kMsgMetrics;
  if (!net::SendMessage(fd_, std::string_view(&request, 1))) return false;
  std::string reply;
  if (!net::RecvMessage(fd_, &reply)) return false;
  if (reply.empty() || reply[0] != wire::kReplyMetrics) return false;
  if (text != nullptr) text->assign(reply, 1, std::string::npos);
  return true;
}

SiteShipper::Sink FrameClient::FrameSink() {
  return [this](std::string_view frame) { return ShipFrame(frame); };
}

}  // namespace dynhist::distributed
