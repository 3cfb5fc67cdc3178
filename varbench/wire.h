// A raw-socket wire client for the benchmark, built only on the codec in
// service/protocol.h: the Append*/Encode* writers, DecodeFrameView and the
// Decode* reply decoders. It deliberately avoids VarstreamClient,
// RunManyClients, DecodeFrame and DecodePushBatch so that refactors of the
// repository's clients and decode paths can neither break nor shift the
// benchmark's load.

#ifndef VARBENCH_WIRE_H_
#define VARBENCH_WIRE_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace varbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One loopback TCP connection speaking varstream frames. Counts every
/// byte in each direction so wire cost is measured, not modelled.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn() { Close(); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(uint16_t port, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Fail(error, "socket");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      return Fail(error, "connect");
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendRaw(const uint8_t* data, size_t size) {
    if (!varstream::SendAllBytes(fd_, data, size)) return false;
    bytes_sent_ += size;
    return true;
  }

  bool Send(varstream::FrameType type, std::span<const uint8_t> payload) {
    out_.clear();
    varstream::AppendFrame(&out_, type, payload);
    return SendRaw(out_.data(), out_.size());
  }

  /// Blocks until one complete frame is buffered and decodes it in place.
  /// The view aliases the receive buffer: valid until the next Read call.
  /// *frame_bytes (optional) is the frame's size on the wire.
  bool Read(varstream::FrameView* view, std::string* error,
            size_t* frame_bytes = nullptr) {
    for (;;) {
      int r = TryDecode(view, error, frame_bytes);
      if (r != 0) return r > 0;
      if (!Fill(/*block=*/true, error)) return false;
    }
  }

  /// Non-blocking variant: 1 = a frame was decoded, 0 = nothing complete
  /// yet, -1 = error or peer closed.
  int Poll(varstream::FrameView* view, std::string* error,
           size_t* frame_bytes = nullptr) {
    int r = TryDecode(view, error, frame_bytes);
    if (r != 0) return r;
    if (!Fill(/*block=*/false, error)) return -1;
    return TryDecode(view, error, frame_bytes);
  }

  /// Sends a Hello and waits for HelloAck (an Error frame fails loudly).
  bool Hello(const varstream::HelloFrame& hello, std::string* error) {
    if (!Send(varstream::FrameType::kHello, varstream::EncodeHello(hello)))
      return Fail(error, "send hello");
    varstream::FrameView view;
    if (!Read(&view, error)) return false;
    varstream::HelloAckFrame ack;
    if (view.type != varstream::FrameType::kHelloAck ||
        !varstream::DecodeHelloAck(view.payload, &ack)) {
      return Unexpected(view, "HelloAck", error);
    }
    return true;
  }

  /// One request/reply round trip; the reply must have `want` type.
  bool RoundTrip(varstream::FrameType type, std::span<const uint8_t> payload,
                 varstream::FrameType want, varstream::FrameView* reply,
                 std::string* error) {
    if (!Send(type, payload)) return Fail(error, "send");
    if (!Read(reply, error)) return false;
    if (reply->type != want) return Unexpected(*reply, "reply", error);
    return true;
  }

  static bool Unexpected(const varstream::FrameView& view, const char* what,
                         std::string* error) {
    varstream::ErrorFrame err;
    if (view.type == varstream::FrameType::kError &&
        varstream::DecodeError(view.payload, &err)) {
      *error = std::string("server error instead of ") + what + ": " +
               err.message;
    } else {
      *error = std::string("unexpected ") +
               varstream::FrameTypeName(view.type) + " instead of " + what;
    }
    return false;
  }

  int fd() const { return fd_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  static bool Fail(std::string* error, const char* what) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  int TryDecode(varstream::FrameView* view, std::string* error,
                size_t* frame_bytes) {
    if (consumed_ > 0 && consumed_ == in_.size()) {
      in_.clear();
      consumed_ = 0;
    }
    std::span<const uint8_t> rest(in_.data() + consumed_,
                                  in_.size() - consumed_);
    size_t used = 0;
    switch (varstream::DecodeFrameView(rest, view, &used, error)) {
      case varstream::DecodeStatus::kOk:
        consumed_ += used;
        bytes_received_ += used;
        if (frame_bytes != nullptr) *frame_bytes = used;
        return 1;
      case varstream::DecodeStatus::kNeedMore:
        return 0;
      case varstream::DecodeStatus::kMalformed:
        return -1;
    }
    return -1;
  }

  bool Fill(bool block, std::string* error) {
    if (consumed_ > 0) {  // compact before growing
      in_.erase(in_.begin(), in_.begin() + static_cast<long>(consumed_));
      consumed_ = 0;
    }
    uint8_t chunk[65536];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), block ? 0 : MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      if (n < 0 && !block && (errno == EAGAIN || errno == EWOULDBLOCK))
        return true;
      *error = n == 0 ? "peer closed the connection"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    in_.insert(in_.end(), chunk, chunk + n);
    return true;
  }

  int fd_ = -1;
  std::vector<uint8_t> in_;
  size_t consumed_ = 0;
  std::vector<uint8_t> out_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace varbench

#endif  // VARBENCH_WIRE_H_
