// Tests for the infrastructure substrates: XDR marshaling, the RPC layer,
// the simulated clock/network/disk, and interposition.
#include <gtest/gtest.h>

#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/network.h"
#include "src/xdr/xdr.h"

namespace {

using util::Bytes;
using util::BytesOf;

// --- XDR ---------------------------------------------------------------------

TEST(XdrTest, PrimitiveRoundTrip) {
  xdr::Encoder enc;
  enc.PutUint32(0xdeadbeef);
  enc.PutInt32(-42);
  enc.PutUint64(0x0123456789abcdefULL);
  enc.PutBool(true);
  enc.PutBool(false);
  xdr::Decoder dec(enc.Take());
  EXPECT_EQ(dec.GetUint32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetInt32().value(), -42);
  EXPECT_EQ(dec.GetUint64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.GetBool().value());
  EXPECT_FALSE(dec.GetBool().value());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, OpaquePaddingTo4Bytes) {
  for (size_t len : {0, 1, 2, 3, 4, 5, 7, 8}) {
    xdr::Encoder enc;
    enc.PutOpaque(Bytes(len, 0xaa));
    size_t expected = 4 + ((len + 3) & ~size_t{3});
    EXPECT_EQ(enc.data().size(), expected) << "len " << len;
    xdr::Decoder dec(enc.Take());
    EXPECT_EQ(dec.GetOpaque().value().size(), len);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(XdrTest, StringRoundTrip) {
  xdr::Encoder enc;
  enc.PutString("self-certifying");
  enc.PutString("");
  enc.PutString(std::string("embedded\0nul", 12));
  xdr::Decoder dec(enc.Take());
  EXPECT_EQ(dec.GetString().value(), "self-certifying");
  EXPECT_EQ(dec.GetString().value(), "");
  EXPECT_EQ(dec.GetString().value().size(), 12u);
}

TEST(XdrTest, FixedOpaqueHasNoLengthPrefix) {
  xdr::Encoder enc;
  enc.PutFixedOpaque(Bytes(5, 0x11));
  EXPECT_EQ(enc.data().size(), 8u);  // 5 + 3 padding.
  xdr::Decoder dec(enc.Take());
  EXPECT_EQ(dec.GetFixedOpaque(5).value(), Bytes(5, 0x11));
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, FixedOpaquePaddingIsPerItem) {
  // XDR pads each fixed opaque to a multiple of 4 of *its own length*,
  // never to the encoder's buffer position.  Regression test for a
  // latent mis-framing: padding to buffer alignment happens to agree
  // only because every public Put* keeps the buffer 4-aligned.
  size_t expected = 0;
  xdr::Encoder enc;
  for (size_t len = 1; len <= 9; ++len) {
    enc.PutFixedOpaque(Bytes(len, static_cast<uint8_t>(len)));
    expected += (len + 3) / 4 * 4;
    EXPECT_EQ(enc.data().size(), expected);
  }
  xdr::Decoder dec(enc.Take());
  for (size_t len = 1; len <= 9; ++len) {
    auto item = dec.GetFixedOpaque(static_cast<uint32_t>(len));
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(item.value(), Bytes(len, static_cast<uint8_t>(len)));
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, TruncationDetected) {
  xdr::Encoder enc;
  enc.PutUint64(7);
  Bytes full = enc.Take();
  for (size_t cut = 0; cut < 8; ++cut) {
    xdr::Decoder dec(Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    EXPECT_FALSE(dec.GetUint64().ok()) << "cut " << cut;
  }
}

TEST(XdrTest, OpaqueLengthLargerThanBufferRejected) {
  xdr::Encoder enc;
  enc.PutUint32(1000);  // Claims 1000 bytes...
  enc.PutUint32(0);     // ...but only 4 follow.
  xdr::Decoder dec(enc.Take());
  EXPECT_FALSE(dec.GetOpaque().ok());
}

TEST(XdrTest, HugeOpaqueLengthRejected) {
  xdr::Encoder enc;
  enc.PutUint32(0xffffffff);
  xdr::Decoder dec(enc.Take());
  EXPECT_FALSE(dec.GetOpaque().ok());
}

TEST(XdrTest, NonZeroPaddingRejected) {
  xdr::Encoder enc;
  enc.PutOpaque(BytesOf("a"));
  Bytes wire = enc.Take();
  wire[6] = 0x77;  // Corrupt a padding byte.
  xdr::Decoder dec(std::move(wire));
  EXPECT_FALSE(dec.GetOpaque().ok());
}

TEST(XdrTest, BoolRangeChecked) {
  xdr::Encoder enc;
  enc.PutUint32(2);
  xdr::Decoder dec(enc.Take());
  EXPECT_FALSE(dec.GetBool().ok());
}

TEST(XdrTest, TakeRemaining) {
  xdr::Encoder enc;
  enc.PutUint32(1);
  enc.PutString("rest of the message");
  xdr::Decoder dec(enc.Take());
  ASSERT_TRUE(dec.GetUint32().ok());
  Bytes rest = dec.TakeRemaining();
  EXPECT_TRUE(dec.AtEnd());
  xdr::Decoder dec2(std::move(rest));
  EXPECT_EQ(dec2.GetString().value(), "rest of the message");
}

// --- Clock / Stopwatch ---------------------------------------------------------

TEST(ClockTest, AdvanceAndStopwatch) {
  sim::Clock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.Advance(1'500'000'000);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 1.5);
  sim::Stopwatch watch(&clock);
  clock.Advance(250);
  EXPECT_EQ(watch.elapsed_ns(), 250u);
  watch.Reset();
  EXPECT_EQ(watch.elapsed_ns(), 0u);
}

// --- Disk model ----------------------------------------------------------------

TEST(DiskTest, SequentialReadsSkipSeek) {
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  disk.ChargeRead(1, 0, 8192);
  uint64_t first = clock.now_ns();
  EXPECT_GT(first, 6'000'000u);  // Paid the seek.
  disk.ChargeRead(1, 8192, 8192);
  uint64_t second = clock.now_ns() - first;
  EXPECT_LT(second, 1'000'000u);  // Transfer only.
  // A different file seeks again.
  uint64_t before = clock.now_ns();
  disk.ChargeRead(2, 0, 8192);
  EXPECT_GT(clock.now_ns() - before, 6'000'000u);
}

TEST(DiskTest, CommitChargesOnceForDirtyData) {
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  disk.BufferWrite(100 * 1024);
  EXPECT_EQ(clock.now_ns(), 0u);  // Buffered writes are free.
  disk.ChargeCommit();
  uint64_t cost = clock.now_ns();
  EXPECT_GT(cost, 6'000'000u);
  disk.ChargeCommit();  // Nothing dirty: free.
  EXPECT_EQ(clock.now_ns(), cost);
}

TEST(DiskTest, DiscardDirtyForgetsBufferedWrites) {
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  disk.BufferWrite(1 << 20);
  disk.DiscardDirty();
  disk.ChargeCommit();
  EXPECT_EQ(clock.now_ns(), 0u);
}

// --- Network link ----------------------------------------------------------------

class EchoService : public sim::Service {
 public:
  util::Result<Bytes> Handle(const Bytes& request) override {
    ++calls_;
    return request;
  }
  int calls_ = 0;
};

TEST(LinkTest, RoundtripChargesBothDirections) {
  sim::Clock clock;
  EchoService echo;
  sim::Link link(&clock, sim::LinkProfile::Udp(), &echo);
  auto reply = link.Roundtrip(Bytes(1000, 1));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->size(), 1000u);
  // 2 x (latency 45us + per-message 25us + 1000B/12.5MBps = 80us).
  EXPECT_NEAR(static_cast<double>(clock.now_ns()), 2 * (45'000 + 25'000 + 80'000), 2'000);
  EXPECT_EQ(link.messages_sent(), 2u);
  EXPECT_EQ(link.bytes_sent(), 2000u);
}

TEST(LinkTest, LocalProfileIsFree) {
  sim::Clock clock;
  EchoService echo;
  sim::Link link(&clock, sim::LinkProfile::Local(), &echo);
  ASSERT_TRUE(link.Roundtrip(Bytes(4096, 0)).ok());
  EXPECT_EQ(clock.now_ns(), 0u);
}

class DropInterposer : public sim::Interposer {
 public:
  util::Result<Bytes> OnRequest(Bytes request) override {
    (void)request;
    return util::Unavailable("packet lost");
  }
};

TEST(LinkTest, InterposerCanDropRequests) {
  sim::Clock clock;
  EchoService echo;
  sim::Link link(&clock, sim::LinkProfile::Udp(), &echo);
  DropInterposer dropper;
  link.set_interposer(&dropper);
  auto reply = link.Roundtrip(BytesOf("hello?"));
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(echo.calls_, 0);  // Never reached the server.
}

// --- RPC -------------------------------------------------------------------------

class RpcFixture : public ::testing::Test {
 protected:
  RpcFixture()
      : dispatcher_(&server_registry_),
        link_(&clock_, sim::LinkProfile::Local(), &dispatcher_),
        transport_(&link_) {
    dispatcher_.RegisterProgram(77, [this](uint32_t proc, const Bytes& args) {
      return Handler(proc, args);
    });
  }

  util::Result<Bytes> Handler(uint32_t proc, const Bytes& args) {
    if (proc == 1) {
      Bytes out = args;
      std::reverse(out.begin(), out.end());
      return out;
    }
    if (proc == 2) {
      return util::PermissionDenied("proc 2 says no");
    }
    return util::InvalidArgument("no such proc");
  }

  sim::Clock clock_;
  obs::Registry server_registry_;  // The dispatcher's metrics alone.
  rpc::Dispatcher dispatcher_;
  sim::Link link_;
  rpc::LinkTransport transport_;
};

TEST_F(RpcFixture, CallAndReply) {
  obs::Registry registry;  // The client's metrics alone.
  rpc::Client client(&transport_, 77, &registry);
  auto reply = client.Call(1, BytesOf("abc"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(util::StringOf(reply.value()), "cba");
  EXPECT_EQ(registry.CounterValue("rpc.client.PROG77.1.calls"), 1u);
}

TEST_F(RpcFixture, HandlerErrorsPropagateWithCode) {
  rpc::Client client(&transport_, 77);
  auto reply = client.Call(2, {});
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(reply.status().message(), "proc 2 says no");
}

TEST_F(RpcFixture, UnknownProgramRejected) {
  rpc::Client client(&transport_, 99);
  auto reply = client.Call(1, {});
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kNotFound);
}

TEST_F(RpcFixture, MalformedCallRejectedByDispatcher) {
  auto reply = dispatcher_.Handle(BytesOf("garbage"));
  EXPECT_FALSE(reply.ok());
}

// An interposer that rewrites the xid in replies: the client must treat
// each such reply as stale (discard and retransmit), then give up.
class XidRewriter : public sim::Interposer {
 public:
  util::Result<Bytes> OnResponse(Bytes response) override {
    if (response.size() >= 4) {
      response[3] ^= 0x01;
    }
    return response;
  }
};

TEST_F(RpcFixture, MismatchedXidDetected) {
  XidRewriter rewriter;
  link_.set_interposer(&rewriter);
  obs::Registry registry;  // The client's metrics alone.
  rpc::Client client(&transport_, 77, &registry);
  auto reply = client.Call(1, BytesOf("x"));
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kUnavailable);
  // Every reply was stale, so the client kept retransmitting; the
  // dispatcher answered the repeats from its duplicate-request cache.
  EXPECT_GT(registry.CounterValue("rpc.client.PROG77.1.retransmits"), 0u);
  EXPECT_GT(server_registry_.CounterValue("server.drc_hits"), 0u);
}

// --- Status / Result ---------------------------------------------------------------

TEST(StatusTest, ToStringAndCodes) {
  EXPECT_EQ(util::OkStatus().ToString(), "OK");
  EXPECT_EQ(util::SecurityError("mac failed").ToString(), "SECURITY_ERROR: mac failed");
  EXPECT_TRUE(util::OkStatus().ok());
  EXPECT_FALSE(util::NotFound("x").ok());
}

TEST(StatusTest, ResultValueAndStatus) {
  util::Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  util::Result<int> bad(util::InvalidArgument("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(StatusTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> util::Result<int> {
    if (fail) {
      return util::NotFound("inner");
    }
    return 5;
  };
  auto outer = [&](bool fail) -> util::Result<int> {
    ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(outer(false).value(), 10);
  EXPECT_EQ(outer(true).status().code(), util::ErrorCode::kNotFound);
}

}  // namespace
