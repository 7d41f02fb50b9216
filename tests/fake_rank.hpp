// A bare-socket rank for the dist tests: it says hello like a RankComm,
// then sends and reads raw frames, so a test can play a peer that sends
// what a real rank never would (or, on an accepted connection, a
// coordinator).
#pragma once

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstdint>
#include <string>
#include <utility>

#include "dist/wire.hpp"
#include "net/frame.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::dist::test {

class FakeRank {
 public:
  FakeRank(uint16_t port, int rank, int ranks) : FakeRank(port, make_hello(rank, ranks)) {}

  /// The accepted end of a connection, for a test that plays the
  /// coordinator to a real member.
  explicit FakeRank(net::Fd fd) : fd_(std::move(fd)) {}

  /// Connect and send `handshake` first: a hello with extra fields, a
  /// join, or a reconnect.
  FakeRank(uint16_t port, const util::Json& handshake) : FakeRank(port) { send(handshake); }

  /// Connect and send nothing yet.
  explicit FakeRank(uint16_t port) {
    std::string err;
    fd_ = net::connect_tcp("127.0.0.1", port, err);
    EXPECT_TRUE(fd_.valid()) << err;
    if (fd_.valid()) net::set_nodelay(fd_.get());  // back-to-back frames, no Nagle stall
  }

  void send(const util::Json& frame) { EXPECT_TRUE(send_raw(frame.dump(0))); }

  /// Send any payload as one frame, JSON or not. Returns false once the
  /// other end has gone.
  bool send_raw(const std::string& payload) {
    std::string err;
    return net::write_all(fd_.get(), net::encode_frame(payload), err);
  }

  /// The next frame of this type (others are skipped), or null when the
  /// connection ends or nothing arrives within 30 s.
  util::Json await(const std::string& type) {
    std::string payload;
    for (;;) {
      while (decoder_.next(payload) == net::FrameDecoder::Result::kFrame) {
        util::Json j = util::Json::parse(payload);
        if (frame_type(j) == type) return j;
      }
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 30000) <= 0) return {};
      char buf[4096];
      const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
      if (n <= 0) return {};
      decoder_.feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  net::Fd fd_;
  net::FrameDecoder decoder_;
};

}  // namespace cas::dist::test
