// Pipelined RPC on a clean link: the sliding window must actually
// overlap round trips (the whole point of the feature), publish the
// occupancy/queue-wait metrics that prove it, and leave the exactly-once
// machinery invisible — zero retransmissions, zero unmatched replies.
// Also covers the CachingFs asynchronous read-ahead and batched prefetch
// paths against a scripted async backend, where delivery timing is under
// test control, and the secure channel's in-order reply hand-up under
// rpc::Client.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/auth/authserver.h"
#include "src/nfs/cache.h"
#include "src/nfs/memfs.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc.h"
#include "src/sfs/channel.h"
#include "src/sfs/client.h"
#include "src/sfs/proto.h"
#include "src/sfs/server.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/event.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/xdr/xdr.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

// --- Raw rpc::Client over a clean simulated link -----------------------------

struct RpcStack {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher;
  std::unique_ptr<sim::Link> link;
  std::unique_ptr<rpc::LinkTransport> transport;
  std::unique_ptr<rpc::Client> client;

  explicit RpcStack(uint32_t window) : dispatcher(&registry, &clock) {
    dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
      return util::Result<Bytes>(args);
    });
    link = std::make_unique<sim::Link>(&clock, sim::LinkProfile::Udp(), &dispatcher,
                                       &registry);
    transport = std::make_unique<rpc::LinkTransport>(link.get());
    client = std::make_unique<rpc::Client>(transport.get(), 9, &registry);
    client->set_window(window);
  }

  // Issues `n` echo calls and waits for all replies; returns the elapsed
  // virtual time.
  uint64_t Run(uint32_t n) {
    const uint64_t start = clock.now_ns();
    for (uint32_t i = 0; i < n; ++i) {
      Bytes payload = BytesOf("echo " + std::to_string(i));
      if (client->window() > 1) {
        client->CallAsync(1, payload, [payload](util::Result<Bytes> reply) {
          EXPECT_TRUE(reply.ok());
          if (reply.ok()) {
            EXPECT_EQ(reply.value(), payload);
          }
        });
      } else {
        auto reply = client->Call(1, payload);
        EXPECT_TRUE(reply.ok());
      }
    }
    client->Drain();
    return clock.now_ns() - start;
  }
};

TEST(PipelineTest, WindowEightIsAtLeastTwiceStopAndWait) {
  // The ISSUE acceptance bar: on the default latency profile, a window of
  // 8 must finish the same call batch at least twice as fast as
  // stop-and-wait.  The echo handler is nearly free, so the round trip
  // dominates and the window overlaps it.
  RpcStack stop_and_wait(1);
  RpcStack pipelined(8);
  const uint64_t t1 = stop_and_wait.Run(64);
  const uint64_t t8 = pipelined.Run(64);
  EXPECT_GE(t1, 2 * t8) << "window=8 took " << t8 << "ns vs " << t1
                        << "ns stop-and-wait";
}

TEST(PipelineTest, CleanWindowRunPublishesOccupancyAndQueueWait) {
  RpcStack stack(4);
  constexpr uint32_t kCalls = 64;
  stack.Run(kCalls);
  EXPECT_EQ(stack.client->in_flight(), 0u);
  EXPECT_EQ(stack.link->retransmissions(), 0u);
  EXPECT_EQ(stack.registry.CounterValue("rpc.client.unmatched_replies"), 0u);
  EXPECT_EQ(stack.registry.CounterValue("link.retransmissions"), 0u);

  // Occupancy is sampled once per submitted call; with 64 calls pushed
  // through a 4-slot window the mean occupancy must exceed one call.
  const uint64_t samples = stack.registry.CounterValue("rpc.client.window_samples");
  const uint64_t occupancy_sum =
      stack.registry.CounterValue("rpc.client.window_occupancy_sum");
  ASSERT_EQ(samples, kCalls);
  EXPECT_GT(occupancy_sum, samples);
  EXPECT_LE(occupancy_sum, static_cast<uint64_t>(samples) * 4u);

  // Every call records its wait for a window slot; once the window fills,
  // later calls genuinely waited.
  const obs::Histogram* wait = stack.registry.FindHistogram("rpc.client.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), kCalls);
  EXPECT_GT(wait->sum_ns(), 0u);
}

TEST(PipelineTest, WindowIsClampedToMaximum) {
  RpcStack stack(1);
  stack.client->set_window(1'000'000);
  EXPECT_EQ(stack.client->window(), rpc::kMaxSendWindow);
}

// --- CachingFs read-ahead / prefetch against a scripted async backend --------

// Queues every async request; Deliver() answers them from the MemFs in
// FIFO order.  This pins down the cache's re-validation behavior without
// a full simulated channel.
class ScriptedAsyncOps : public nfs::AsyncFileOps {
 public:
  explicit ScriptedAsyncOps(nfs::MemFs* fs) : fs_(fs) {}

  void ReadAsync(const FileHandle& fh, const Credentials& cred, uint64_t offset,
                 uint32_t count, ReadCallback done) override {
    ++reads_;
    pending_.push_back([this, fh, cred, offset, count, done = std::move(done)] {
      Bytes data;
      bool eof = false;
      Stat stat = fs_->Read(fh, cred, offset, count, &data, &eof);
      done(stat, std::move(data), eof);
    });
  }
  void LookupAsync(const FileHandle& dir, const std::string& name,
                   const Credentials& cred, LookupCallback done) override {
    ++lookups_;
    pending_.push_back([this, dir, name, cred, done = std::move(done)] {
      FileHandle fh;
      Fattr attr;
      Stat stat = fs_->Lookup(dir, name, cred, &fh, &attr);
      done(stat, fh, attr);
    });
  }
  void GetAttrAsync(const FileHandle& fh, AttrCallback done) override {
    ++getattrs_;
    pending_.push_back([this, fh, done = std::move(done)] {
      Fattr attr;
      Stat stat = fs_->GetAttr(fh, &attr);
      done(stat, attr);
    });
  }
  void WriteAsync(const FileHandle& fh, const Credentials& cred, uint64_t offset,
                  const Bytes& data, bool stable, WriteCallback done) override {
    ++writes_;
    pending_.push_back([this, fh, cred, offset, data, stable, done = std::move(done)] {
      Fattr attr;
      Stat stat = fs_->Write(fh, cred, offset, data, stable, &attr);
      done(stat, attr, fs_->WriteVerf());
    });
  }

  void Deliver() {
    std::vector<std::function<void()>> batch;
    batch.swap(pending_);
    for (auto& thunk : batch) {
      thunk();
    }
  }

  uint64_t reads() const { return reads_; }
  uint64_t lookups() const { return lookups_; }
  uint64_t getattrs() const { return getattrs_; }
  uint64_t writes() const { return writes_; }

 private:
  nfs::MemFs* fs_;
  std::vector<std::function<void()>> pending_;
  uint64_t reads_ = 0;
  uint64_t lookups_ = 0;
  uint64_t getattrs_ = 0;
  uint64_t writes_ = 0;
};

class ReadAheadTest : public ::testing::Test {
 protected:
  ReadAheadTest()
      : disk_(&clock_, sim::DiskProfile::Ibm18Es()),
        fs_(&clock_, &disk_, nfs::MemFs::Options{}),
        async_ops_(&fs_) {
    nfs::CacheOptions options;
    options.read_ahead_chunks = 2;
    cache_ = std::make_unique<nfs::CachingFs>(&fs_, &clock_, options);
    cache_->set_async_ops(&async_ops_);
  }

  FileHandle CreateFile(const std::string& name, const Bytes& content) {
    FileHandle fh;
    Fattr attr;
    EXPECT_EQ(fs_.Create(fs_.root_handle(), name, cred_, nfs::Sattr{}, &fh, &attr),
              Stat::kOk);
    EXPECT_EQ(fs_.Write(fh, cred_, 0, content, /*stable=*/true, &attr), Stat::kOk);
    return fh;
  }

  sim::Clock clock_;
  sim::Disk disk_;
  nfs::MemFs fs_;
  ScriptedAsyncOps async_ops_;
  std::unique_ptr<nfs::CachingFs> cache_;
  const Credentials cred_ = Credentials::User(0);
};

TEST_F(ReadAheadTest, SequentialMissPrefetchesFollowingChunks) {
  constexpr uint32_t kChunk = 16;
  Bytes content;
  for (int i = 0; i < 64; ++i) {
    content.push_back(static_cast<uint8_t>(i));
  }
  FileHandle fh = CreateFile("seq", content);
  // Read-ahead needs the cached size to know where the file ends, so warm
  // the attribute cache the way a real access pattern (lookup, then read)
  // would.
  Fattr warm;
  ASSERT_EQ(cache_->GetAttr(fh, &warm), Stat::kOk);

  // First chunk misses and schedules read-ahead for the next two.
  Bytes data;
  bool eof = false;
  ASSERT_EQ(cache_->Read(fh, cred_, 0, kChunk, &data, &eof), Stat::kOk);
  EXPECT_EQ(cache_->read_aheads_issued(), 2u);
  EXPECT_EQ(async_ops_.reads(), 2u);
  async_ops_.Deliver();
  EXPECT_EQ(cache_->read_ahead_fills(), 2u);

  // Chunks 2 and 3 are already cached: rewrite the backing file and the
  // cache must still serve the *original* bytes (hits, not refetches).
  const uint64_t hits_before = cache_->data_hits();
  Fattr attr;
  ASSERT_EQ(fs_.Write(fh, cred_, 0, Bytes(64, 0xff), /*stable=*/true, &attr), Stat::kOk);
  for (uint64_t offset : {uint64_t{kChunk}, uint64_t{2 * kChunk}}) {
    ASSERT_EQ(cache_->Read(fh, cred_, offset, kChunk, &data, &eof), Stat::kOk);
    EXPECT_EQ(data, Bytes(content.begin() + static_cast<long>(offset),
                          content.begin() + static_cast<long>(offset + kChunk)));
  }
  EXPECT_EQ(cache_->data_hits(), hits_before + 2);
}

TEST_F(ReadAheadTest, InvalidatedEntryDiscardsInFlightReadAhead) {
  constexpr uint32_t kChunk = 16;
  FileHandle fh = CreateFile("stale", Bytes(64, 0x11));
  Fattr warm;
  ASSERT_EQ(cache_->GetAttr(fh, &warm), Stat::kOk);

  Bytes data;
  bool eof = false;
  ASSERT_EQ(cache_->Read(fh, cred_, 0, kChunk, &data, &eof), Stat::kOk);
  ASSERT_EQ(cache_->read_aheads_issued(), 2u);

  // A server lease callback lands while the read-ahead replies are in
  // flight (paper §3.3): the completion must find the entry gone and
  // drop the bytes, not resurrect a cache the server just invalidated.
  cache_->InvalidateHandle(fh);
  async_ops_.Deliver();
  EXPECT_EQ(cache_->read_ahead_fills(), 0u);
}

TEST_F(ReadAheadTest, PrefetchLookupsWarmsNameCache) {
  FileHandle a = CreateFile("a", BytesOf("aaaa"));
  CreateFile("b", BytesOf("bbbb"));

  cache_->PrefetchLookups(fs_.root_handle(), {"a", "b"}, cred_);
  EXPECT_EQ(cache_->prefetches_issued(), 2u);
  EXPECT_EQ(async_ops_.lookups(), 2u);
  async_ops_.Deliver();

  // Fresh entries are not re-requested.
  cache_->PrefetchLookups(fs_.root_handle(), {"a", "b"}, cred_);
  EXPECT_EQ(async_ops_.lookups(), 2u);

  // The name cache is warm: remove "a" from the backend and the cached
  // binding still resolves (plain-NFS attribute-timeout semantics).
  ASSERT_EQ(fs_.Remove(fs_.root_handle(), "a", cred_), Stat::kOk);
  FileHandle fh;
  Fattr attr;
  EXPECT_EQ(cache_->Lookup(fs_.root_handle(), "a", cred_, &fh, &attr), Stat::kOk);
  EXPECT_EQ(fh, a);
}

TEST_F(ReadAheadTest, PrefetchAttrsSkipsFreshAndWarmsStale) {
  FileHandle fh = CreateFile("attrs", BytesOf("xxxx"));

  cache_->PrefetchAttrs({fh});
  EXPECT_EQ(async_ops_.getattrs(), 1u);
  async_ops_.Deliver();
  // Fresh now: a second prefetch issues nothing.
  cache_->PrefetchAttrs({fh});
  EXPECT_EQ(async_ops_.getattrs(), 1u);

  // Served from cache: the backend's file can grow without the cached
  // attributes noticing until the timeout.
  Fattr attr;
  ASSERT_EQ(fs_.Write(fh, cred_, 0, Bytes(100, 0x33), /*stable=*/true, &attr), Stat::kOk);
  Fattr cached;
  ASSERT_EQ(cache_->GetAttr(fh, &cached), Stat::kOk);
  EXPECT_EQ(cached.size, 4u);
}

// --- SFS channel: clean pipelined mounts ------------------------------------

TEST(SfsPipelineTest, CleanPipelinedWorkloadLeavesNoRetryResidue) {
  // Window 1 is the same engine with one call in flight.
  for (uint32_t window : {1u, 2u, 8u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    sim::Clock clock;
    sim::CostModel costs;
    auth::AuthServer authserver;
    SfsServer::Options so;
    so.location = "pipeline.example.org";
    so.key_bits = 512;
    obs::Registry server_registry;
    so.registry = &server_registry;
    sfs::SfsServer server(&clock, &costs, so, &authserver);
    Fattr attr;
    nfs::Sattr chmod;
    chmod.mode = 0777;
    ASSERT_EQ(server.fs()->SetAttr(server.fs()->root_handle(), Credentials::User(0),
                                   chmod, &attr),
              Stat::kOk);
    sfs::SfsClient::Options co;
    co.ephemeral_key_bits = 512;
    co.window = window;
    obs::Registry client_registry;
    co.registry = &client_registry;
    sfs::SfsClient client(&clock, &costs, [&](const std::string&) { return &server; }, co);

    auto mount = client.Mount(server.Path());
    ASSERT_TRUE(mount.ok()) << mount.status().ToString();
    EXPECT_EQ((*mount)->window(), window);

    nfs::FileSystemApi* fs = (*mount)->fs();
    const Credentials cred = Credentials::User(0);
    for (int i = 0; i < 8; ++i) {
      FileHandle fh;
      std::string name = "clean-" + std::to_string(i);
      ASSERT_EQ(fs->Create((*mount)->root_fh(), name, cred, nfs::Sattr{}, &fh, &attr),
                Stat::kOk);
      ASSERT_EQ(fs->Write(fh, cred, 0, BytesOf(name), /*stable=*/true, &attr), Stat::kOk);
      Bytes data;
      bool eof = false;
      ASSERT_EQ(fs->Read(fh, cred, 0, 4096, &data, &eof), Stat::kOk);
      EXPECT_EQ(data, BytesOf(name));
    }
    (*mount)->Drain();

    // The retry/dedup machinery stayed invisible on the clean path.
    EXPECT_EQ((*mount)->in_flight(), 0u);
    EXPECT_EQ(client_registry.CounterValue("rpc.client.unmatched_replies"), 0u);
    EXPECT_EQ(clock.events()->size(), 0u) << "no event outlives the workload";
    EXPECT_EQ((*mount)->link()->retransmissions(), 0u);
    EXPECT_EQ(server_registry.CounterValue("server.drc_hits"), 0u);
    EXPECT_EQ(server.fs()->creates_applied(), 8u);
  }
}

// --- The secure channel under rpc::Client -------------------------------------

// Cleartext channel endpoint: answers each Encrypted frame with a reply
// echoing the call's args, framed as a server would frame it.
class EchoChannelService : public sim::Service {
 public:
  util::Result<Bytes> Handle(const Bytes& request) override {
    ASSIGN_OR_RETURN(Bytes payload, sfs::Unframe(sfs::kMsgEncrypted, request));
    xdr::Decoder frame(payload);
    ASSIGN_OR_RETURN(uint32_t seqno, frame.GetUint32());
    ASSIGN_OR_RETURN(Bytes body, frame.GetOpaque());
    xdr::Decoder call(body);
    ASSIGN_OR_RETURN(uint32_t xid, call.GetUint32());
    ASSIGN_OR_RETURN(uint32_t prog, call.GetUint32());
    ASSIGN_OR_RETURN(uint32_t proc, call.GetUint32());
    ASSIGN_OR_RETURN(Bytes args, call.GetOpaque());
    (void)prog;
    (void)proc;
    xdr::Encoder reply;
    reply.PutUint32(xid);
    reply.PutUint32(0);
    reply.PutOpaque(args);
    xdr::Encoder reply_frame;
    reply_frame.PutUint32(seqno);
    reply_frame.PutOpaque(reply.Take());
    return sfs::FrameMessage(sfs::kMsgEncrypted, reply_frame.Take());
  }
};

// Drops the first response only: its call's successor arrives first and
// must wait in the reorder buffer until the retransmitted reply fills
// the gap.
class DropFirstResponse : public sim::Interposer {
 public:
  util::Result<Bytes> OnResponse(Bytes response) override {
    if (!dropped_) {
      dropped_ = true;
      return util::Unavailable("dropped");
    }
    return response;
  }

 private:
  bool dropped_ = false;
};

TEST(ChannelTransportTest, RepliesCompleteInSeqnoOrderPulledOrPushed) {
  for (bool event_driven : {false, true}) {
    SCOPED_TRACE(event_driven ? "delivery sink" : "AwaitNext");
    sim::Clock clock;
    sim::CostModel costs;
    obs::Registry registry;
    EchoChannelService service;
    sim::Link link(&clock, sim::LinkProfile::Tcp(), &service, &registry);
    DropFirstResponse drop;
    link.set_interposer(&drop);
    sfs::ChannelTransport channel(&link, &costs, &registry.spans());
    rpc::Client client(&channel, sfs::kSfsCtlProgram, &registry, "SFSCTL");
    client.set_window(4);
    if (event_driven) {
      client.EnableEventDriven();
    }

    std::vector<std::string> completed;
    for (const char* name : {"first", "second", "third"}) {
      client.CallAsync(1, BytesOf(name), [&completed](util::Result<Bytes> result) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        completed.push_back(util::StringOf(result.value()));
      });
    }
    client.Drain();
    // The first reply was lost and resent; the later two opened only
    // after it, in issue order, and none was refused.
    EXPECT_EQ(completed, (std::vector<std::string>{"first", "second", "third"}));
    EXPECT_EQ(registry.CounterValue("rpc.client.SFSCTL.1.retransmits"), 1u);
    EXPECT_EQ(registry.CounterValue("rpc.client.unmatched_replies"), 0u);
    EXPECT_EQ(clock.events()->size(), 0u);
  }
}

}  // namespace
