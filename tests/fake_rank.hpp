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
  FakeRank(uint16_t port, const util::Json& handshake) {
    std::string err;
    fd_ = net::connect_tcp("127.0.0.1", port, err);
    EXPECT_TRUE(fd_.valid()) << err;
    send(handshake);
  }

  void send(const util::Json& frame) {
    std::string err;
    EXPECT_TRUE(net::write_all(fd_.get(), net::encode_frame(frame.dump(0)), err)) << err;
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

  /// The next msg frame carrying this tag, parsed.
  Message await_msg(int tag) {
    for (;;) {
      const util::Json j = await("msg");
      if (j.is_null()) return Message{-1, -1, {}};
      Message m = parse_msg(j);
      if (m.tag == tag) return m;
    }
  }

 private:
  net::Fd fd_;
  net::FrameDecoder decoder_;
};

}  // namespace cas::dist::test
