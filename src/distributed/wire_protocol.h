// Message vocabulary of the site <-> aggregator protocol.
//
// Every message travels as one net.h envelope (u32-LE length prefix +
// payload); payload byte 0 is the type tag. Requests and replies pair
// one-to-one in order, so a client may pipeline requests and read the
// replies back in sequence.
//
//   request 'F' <frame bytes>                        ship one snapshot
//     reply 'a' <status u8> <frame_error u8>         frame (frame.h)
//   request 'Q' <key_len u32 LE> <key> <lo i64 LE> <hi i64 LE>
//     reply 'q' <estimate f64 LE>                    range estimate; 0 for
//                                                    a key no site has
//                                                    shipped (not created)
//   request 'M'
//     reply 'm' <Prometheus text>                    metrics scrape
//   reply   'e' <diagnostic text>                    protocol error;
//                                                    server closes after

#ifndef DYNHIST_DISTRIBUTED_WIRE_PROTOCOL_H_
#define DYNHIST_DISTRIBUTED_WIRE_PROTOCOL_H_

namespace dynhist::distributed::wire {

inline constexpr char kMsgFrame = 'F';
inline constexpr char kMsgQuery = 'Q';
inline constexpr char kMsgMetrics = 'M';

inline constexpr char kReplyStatus = 'a';
inline constexpr char kReplyEstimate = 'q';
inline constexpr char kReplyMetrics = 'm';
inline constexpr char kReplyError = 'e';

/// Status byte of a kReplyStatus reply (mirrors
/// Aggregator::IngestResult; the frame_error byte holds the FrameError
/// when the status is rejected).
inline constexpr unsigned char kStatusApplied = 0;
inline constexpr unsigned char kStatusDuplicate = 1;
inline constexpr unsigned char kStatusRejected = 2;

}  // namespace dynhist::distributed::wire

#endif  // DYNHIST_DISTRIBUTED_WIRE_PROTOCOL_H_
