// The discrete-event core and the timing bugs it was built to kill.
//
// Layer one pins the EventQueue itself: deterministic FIFO among equal
// timestamps and cancellation that neither runs nor charges.  Layer two
// pins the Host admission pipeline (bounded queue, shedding, retransmit
// recovery) and the sim::Link regressions fixed alongside it: error
// verdicts that used to skip the downlink leg, duplicate deliveries that
// used to ride the server for free, link spans of dropped or shed copies,
// and reorder-held responses that used to vanish from the accounting at
// end of run.  A differential test checks stop-and-wait traffic on the
// event core against a closed form computed from the LinkProfile — same
// timeline, same ledger, to the nanosecond — and every scenario
// re-checks the ledger invariant: the per-category totals sum exactly to
// now_ns().
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/event.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace {

using obs::TimeCategory;
using util::Bytes;

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// The ledger invariant under test everywhere: every charged nanosecond
// lands in exactly one category, so the totals reconstruct the clock.
void ExpectLedgerBalanced(const sim::Clock& clock) {
  const sim::Clock::CategorySnapshot snapshot = clock.categories();
  uint64_t total = 0;
  for (uint64_t ns : snapshot.ns) {
    total += ns;
  }
  EXPECT_EQ(total, clock.now_ns()) << "ledger does not sum to now_ns";
}

// --- EventQueue ------------------------------------------------------------

TEST(EventQueueTest, EqualTimestampsDispatchInScheduleOrder) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  std::vector<int> order;
  // Three events at the same instant, plus one earlier and one later,
  // scheduled in shuffled order: dispatch must be (time, schedule order).
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(2); });
  events->Schedule(50, TimeCategory::kWait, [&] { order.push_back(1); });
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(3); });
  events->Schedule(200, TimeCategory::kWait, [&] { order.push_back(5); });
  events->Schedule(100, TimeCategory::kWait, [&] { order.push_back(4); });
  while (events->RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(clock.now_ns(), 200u);
  EXPECT_EQ(events->dispatched(), 5u);
  ExpectLedgerBalanced(clock);
}

TEST(EventQueueTest, CancelledEventNeitherRunsNorCharges) {
  sim::Clock clock;
  sim::EventQueue* events = clock.events();
  bool cancelled_ran = false;
  bool live_ran = false;
  // The cancelled timer is the *earlier* one: popping it must not drag
  // the clock to t=50 or charge its kWait gap — the next live event's
  // attribution covers the whole bridge to t=100.
  const sim::EventQueue::EventId timer =
      events->Schedule(50, TimeCategory::kWait, [&] { cancelled_ran = true; });
  events->Schedule(100, TimeCategory::kCpu, [&] { live_ran = true; });
  EXPECT_TRUE(events->Cancel(timer));
  EXPECT_FALSE(events->Cancel(timer)) << "double-cancel must report dead";
  while (events->RunOne()) {
  }
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(live_ran);
  EXPECT_EQ(events->cancelled(), 1u);
  EXPECT_EQ(events->dispatched(), 1u);
  EXPECT_EQ(clock.now_ns(), 100u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kWait), 0u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kCpu), 100u);
  ExpectLedgerBalanced(clock);
}

// --- Host admission queue --------------------------------------------------

TEST(HostTest, BoundedQueueShedsAndRetransmissionRecovers) {
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  uint64_t executions = 0;
  dispatcher.RegisterProgram(9, [&](uint32_t, const Bytes& args) {
    ++executions;
    clock.Advance(500'000, TimeCategory::kCpu);  // 500 us of service.
    return util::Result<Bytes>(args);
  });
  // One service slot, one queue slot: a window of four nearly
  // simultaneous arrivals must shed at least one.
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 1;
  sim::Host host(&clock, &dispatcher, &registry, options);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(4);

  constexpr uint64_t kCalls = 16;
  uint64_t completions = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const std::string payload = "op " + std::to_string(i);
    client.CallAsync(1, BytesOf(payload),
                     [payload, &completions](util::Result<Bytes> reply) {
                       ASSERT_TRUE(reply.ok()) << payload << ": "
                                               << reply.status().ToString();
                       EXPECT_EQ(reply.value(), BytesOf(payload)) << payload;
                       ++completions;
                     });
  }
  client.Drain();

  // Shedding happened, produced no reply (only the retransmission timer
  // recovers a shed request), and every call still completed.
  EXPECT_GT(host.shed_count(), 0u);
  EXPECT_GE(link.retransmissions(), host.shed_count());
  EXPECT_EQ(completions, kCalls);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_EQ(registry.CounterValue("server.shed"), host.shed_count());
  // The DRC absorbed retransmissions of requests that did get through.
  EXPECT_GE(executions, kCalls);
  EXPECT_EQ(host.queue_length(), 0u);
  EXPECT_EQ(host.in_service(), 0u);
  ExpectLedgerBalanced(clock);
}

// --- Differential: event core vs the closed-form link model ---------------

// A fixed-cost echo: the same kCpu charge for every request, measured in
// a frame at its service-start event.
class FixedCostEcho : public sim::Service {
 public:
  FixedCostEcho(sim::Clock* clock, uint64_t service_ns)
      : clock_(clock), service_ns_(service_ns) {}
  util::Result<Bytes> Handle(const Bytes& request) override {
    clock_->Advance(service_ns_, TimeCategory::kCpu);
    return util::Result<Bytes>(request);
  }

 private:
  sim::Clock* clock_;
  uint64_t service_ns_;
};

// One wire leg of `bytes` on an idle link: propagation, per-message
// overhead and serialization — LinkProfile arithmetic, nothing else.
uint64_t LegNs(const sim::LinkProfile& profile, size_t bytes) {
  return profile.latency_ns + profile.per_message_ns +
         static_cast<uint64_t>(bytes) * 1'000'000'000 / profile.bytes_per_sec;
}

// XDR opaque: 4-byte length plus the body padded to a 4-byte boundary.
size_t XdrOpaqueSize(size_t bytes) { return 4 + (bytes + 3) / 4 * 4; }

TEST(DifferentialTest, EventCoreMatchesWatermarkModelAtWindowOne) {
  // Stop-and-wait on a loss-free link: each exchange is uplink leg, then
  // service, then downlink leg, with nothing overlapping.  The event core
  // must reproduce that closed form exactly: same elapsed time and same
  // per-category ledger after every call.
  constexpr uint64_t kServiceNs = 70'000;
  constexpr int kCalls = 8;
  const sim::LinkProfile profile = sim::LinkProfile::Udp();

  sim::Clock clock;
  obs::Registry registry;
  FixedCostEcho echo(&clock, kServiceNs);
  sim::Link link(&clock, profile, &echo, &registry);

  uint64_t expect_now = 0;
  uint64_t expect_link = 0;
  uint64_t expect_cpu = 0;
  uint64_t expect_bytes = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Bytes payload = BytesOf("differential " + std::string(i * 97, 'x'));

    const uint64_t token = link.Submit(payload);
    auto delivery = link.AwaitNext(UINT64_MAX);
    ASSERT_TRUE(delivery.has_value());
    EXPECT_EQ(delivery->token, token);
    ASSERT_TRUE(delivery->status.ok());
    EXPECT_EQ(delivery->response, payload);

    const uint64_t legs = 2 * LegNs(profile, payload.size());
    expect_link += legs;
    expect_cpu += kServiceNs;
    expect_now += legs + kServiceNs;
    expect_bytes += 2 * payload.size();
    EXPECT_EQ(clock.now_ns(), expect_now) << "timelines diverged at call " << i;
    EXPECT_EQ(clock.charged_ns(TimeCategory::kLink), expect_link) << "call " << i;
    EXPECT_EQ(clock.charged_ns(TimeCategory::kCpu), expect_cpu) << "call " << i;
  }

  const sim::Clock::CategorySnapshot ledger = clock.categories();
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    const auto category = static_cast<TimeCategory>(i);
    const uint64_t expected = category == TimeCategory::kLink  ? expect_link
                              : category == TimeCategory::kCpu ? expect_cpu
                                                               : 0;
    EXPECT_EQ(ledger.ns[i], expected) << "category " << obs::TimeCategoryName(category);
  }
  EXPECT_EQ(link.messages_sent(), 2u * kCalls);
  EXPECT_EQ(link.bytes_sent(), expect_bytes);
  ExpectLedgerBalanced(clock);
}

TEST(DifferentialTest, RpcClientAtWindowOneMatchesTheClosedForm) {
  // The same closed form one layer up: rpc::Client::Call at its default
  // window of 1 is the event engine with one call in flight.  The wire
  // carries the XDR call (xid, seqno, prog, proc, opaque args) and reply
  // (xid, status, opaque results).
  constexpr uint64_t kServiceNs = 70'000;
  constexpr int kCalls = 8;
  const sim::LinkProfile profile = sim::LinkProfile::Udp();

  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
    clock.Advance(kServiceNs, TimeCategory::kCpu);
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, profile, &dispatcher, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  ASSERT_EQ(client.window(), 1u);

  uint64_t expect_now = 0;
  uint64_t expect_link = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Bytes args = BytesOf("rpc differential " + std::string(i * 131, 'y'));
    auto reply = client.Call(1, args);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value(), args);

    const uint64_t legs = LegNs(profile, 16 + XdrOpaqueSize(args.size())) +
                          LegNs(profile, 8 + XdrOpaqueSize(args.size()));
    expect_link += legs;
    expect_now += legs + kServiceNs;
    EXPECT_EQ(clock.now_ns(), expect_now) << "timelines diverged at call " << i;
    EXPECT_EQ(clock.charged_ns(TimeCategory::kLink), expect_link) << "call " << i;
    EXPECT_EQ(clock.charged_ns(TimeCategory::kCpu), kServiceNs * (i + 1)) << "call " << i;
    EXPECT_EQ(clock.charged_ns(TimeCategory::kWait), 0u) << "call " << i;
  }
  EXPECT_EQ(link.messages_sent(), 2u * kCalls);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_EQ(clock.events()->size(), 0u) << "a finished exchange leaves no event behind";
  ExpectLedgerBalanced(clock);
}

// --- Link timing regressions ----------------------------------------------

// Success with an empty body, or an error verdict, depending on the
// request — both replies have zero payload bytes on the wire.
class VerdictService : public sim::Service {
 public:
  explicit VerdictService(sim::Clock* clock) : clock_(clock) {}
  util::Result<Bytes> Handle(const Bytes& request) override {
    clock_->Advance(100'000, TimeCategory::kCpu);
    if (util::StringOf(request) == "fail") {
      return util::Unavailable("connection torn down");
    }
    return util::Result<Bytes>(Bytes{});
  }

 private:
  sim::Clock* clock_;
};

TEST(LinkTimingTest, ErrorVerdictTakesTheFullDownlinkLeg) {
  // Regression: error verdicts used to surface instantly, skipping the
  // downlink and the wire-message count — an error was cheaper than the
  // empty success reply carrying the same zero-byte body.  Timed on two
  // fresh links, the verdicts must be indistinguishable on the wire.
  auto timed_delivery = [](const std::string& request, bool expect_ok) {
    sim::Clock clock;
    obs::Registry registry;
    VerdictService service(&clock);
    sim::Link link(&clock, sim::LinkProfile::Udp(), &service, &registry);
    link.Submit(BytesOf(request));
    auto delivery = link.AwaitNext(UINT64_MAX);
    EXPECT_TRUE(delivery.has_value());
    EXPECT_EQ(delivery->status.ok(), expect_ok);
    EXPECT_EQ(link.messages_sent(), 2u) << "request + reply, success or not";
    ExpectLedgerBalanced(clock);
    return clock.now_ns();
  };
  const uint64_t success_ns = timed_delivery("pass", /*expect_ok=*/true);
  const uint64_t error_ns = timed_delivery("fail", /*expect_ok=*/false);
  EXPECT_EQ(error_ns, success_ns)
      << "error verdicts must ride the same downlink as success replies";
}

// Duplicates exactly the first request it sees.
class DuplicateFirstRequest : public sim::Interposer {
 public:
  bool DuplicateRequest() override {
    if (fired_) {
      return false;
    }
    fired_ = true;
    return true;
  }

 private:
  bool fired_ = false;
};

TEST(LinkTimingTest, DuplicateDeliveryOccupiesTheSerialServer) {
  // Regression: a network-duplicated request used to be answered without
  // occupying the server, so overload experiments undercounted offered
  // load.  With a serial host and no dedup layer, the duplicate of A
  // must push B's completion back by one full service time.
  constexpr uint64_t kServiceNs = 500'000;
  auto run = [&](sim::Interposer* interposer) {
    sim::Clock clock;
    obs::Registry registry;
    FixedCostEcho echo(&clock, kServiceNs);
    sim::Link link(&clock, sim::LinkProfile::Udp(), &echo, &registry);
    link.set_interposer(interposer);
    link.Submit(BytesOf("request A"));
    link.Submit(BytesOf("request B"));
    for (int deliveries = 0; deliveries < 2; ++deliveries) {
      auto delivery = link.AwaitNext(UINT64_MAX);
      EXPECT_TRUE(delivery.has_value());
      EXPECT_TRUE(delivery->status.ok());
    }
    ExpectLedgerBalanced(clock);
    struct Outcome {
      uint64_t elapsed_ns;
      uint64_t messages;
      uint64_t duplicates;
      uint64_t arrivals;
    };
    return Outcome{clock.now_ns(), link.messages_sent(),
                   link.duplicates_delivered(), link.host()->arrivals()};
  };

  const auto plain = run(nullptr);
  DuplicateFirstRequest interposer;
  const auto duplicated = run(&interposer);

  EXPECT_EQ(duplicated.duplicates, 1u);
  EXPECT_EQ(duplicated.arrivals, plain.arrivals + 1)
      << "the duplicate is an ordinary arrival at the host";
  EXPECT_EQ(duplicated.messages, plain.messages + 1)
      << "the duplicate occupies the uplink as a real wire message";
  EXPECT_EQ(duplicated.elapsed_ns, plain.elapsed_ns + kServiceNs)
      << "the duplicate must hold the serial server for a full service time";
}

// --- Retransmission timers: loss and congestion, not slowness ---------------

TEST(RetransmitTimerTest, SlowExchangesOnALossFreeLinkNeverRetransmit) {
  // A 700 ms service (a long commit) and a 4 MB request (335 ms on the
  // 100 Mbit wire) both outlast the 200 ms RTO.  Their deadlines pass
  // while the exchange is in progress, so the timers re-arm instead of
  // resending, and the ledger keeps the time where it was spent.
  constexpr uint64_t kServiceNs = 700'000'000;
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
    clock.Advance(kServiceNs, TimeCategory::kDisk);
    return util::Result<Bytes>(Bytes(args.size() > 16 ? 16 : args.size(), 0));
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);

  ASSERT_TRUE(client.Call(1, BytesOf("commit")).ok());
  ASSERT_TRUE(client.Call(1, Bytes(4 << 20, 7)).ok());
  EXPECT_EQ(link.retransmissions(), 0u);
  EXPECT_EQ(registry.CounterValue("rpc.client.PROG9.1.retransmits"), 0u);
  EXPECT_EQ(link.messages_sent(), 4u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kDisk), 2 * kServiceNs);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kWait), 0u);

  // The stop-and-wait helper for non-RPC framings follows the same rule.
  FixedCostEcho slow_echo(&clock, kServiceNs);
  sim::Link helper_link(&clock, sim::LinkProfile::Tcp(), &slow_echo, &registry);
  auto reply = helper_link.Roundtrip(Bytes(4 << 20, 1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->size(), 4u << 20);
  EXPECT_EQ(helper_link.retransmissions(), 0u);
  EXPECT_EQ(helper_link.messages_sent(), 2u);
  EXPECT_EQ(clock.charged_ns(TimeCategory::kWait), 0u);
  ExpectLedgerBalanced(clock);
}

TEST(RetransmitTimerTest, RequestsQueuedBehindASlowServerStillRetransmit) {
  // Congestion is not progress: a request waiting in the admission queue
  // behind a 700 ms job is resent when its timer expires (the server's
  // DRC answers the copy), while the job being served is not.
  sim::Clock clock;
  obs::Registry registry;
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t proc, const Bytes& args) {
    clock.Advance(proc == 1 ? 700'000'000 : 10'000, TimeCategory::kCpu);
    return util::Result<Bytes>(args);
  });
  sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(2);

  int completions = 0;
  auto done = [&completions](util::Result<Bytes> reply) {
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    ++completions;
  };
  client.CallAsync(1, BytesOf("slow"), done);
  client.CallAsync(2, BytesOf("queued"), done);
  client.Drain();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(registry.CounterValue("rpc.client.PROG9.1.retransmits"), 0u);
  EXPECT_GT(registry.CounterValue("rpc.client.PROG9.2.retransmits"), 0u);
  EXPECT_GT(registry.CounterValue("server.drc_hits"), 0u);
  ExpectLedgerBalanced(clock);
}

// --- Link leg spans ---------------------------------------------------------

// Drops the first `n` requests on the floor.
class DropFirstRequests : public sim::Interposer {
 public:
  explicit DropFirstRequests(int n) : left_(n) {}
  util::Result<Bytes> OnRequest(Bytes request) override {
    if (left_ > 0) {
      --left_;
      return util::Unavailable("black hole");
    }
    return request;
  }

 private:
  int left_;
};

TEST(LinkSpanTest, LegSpansAreMeasuredAndNeverOrphaned) {
  // Each wire leg is a measured span: all of its time is kLink, and it
  // parents under the call that submitted it — also for copies the
  // interposer dropped (no span at all) or the host shed (a send leg
  // whose call still completes through its retransmission).
  sim::Clock clock;
  obs::Registry registry;
  registry.spans().Enable(
      [&clock] { return clock.now_ns(); },
      [&clock](uint64_t out[obs::kTimeCategoryCount]) {
        const sim::Clock::CategorySnapshot charged = clock.categories();
        for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
          out[i] = charged.ns[i];
        }
      });
  rpc::Dispatcher dispatcher(&registry, &clock);
  dispatcher.RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
    clock.Advance(500'000, TimeCategory::kCpu);
    return util::Result<Bytes>(args);
  });
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 0;  // No queue: anything beyond the slot is shed.
  sim::Host host(&clock, &dispatcher, &registry, options);
  sim::Link link(&clock, sim::LinkProfile::Udp(), &host, &registry);
  DropFirstRequests drop_first(2);
  link.set_interposer(&drop_first);
  rpc::LinkTransport transport(&link);
  rpc::Client client(&transport, 9, &registry);
  client.set_window(4);

  constexpr int kCalls = 6;
  int completions = 0;
  for (int i = 0; i < kCalls; ++i) {
    client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                     [&completions](util::Result<Bytes> reply) {
                       EXPECT_TRUE(reply.ok()) << reply.status().ToString();
                       ++completions;
                     });
  }
  client.Drain();
  clock.events()->RunUntil(UINT64_MAX);
  EXPECT_EQ(completions, kCalls);
  EXPECT_EQ(link.drops_observed(), 2u);
  EXPECT_GT(host.shed_count(), 0u);

  const std::vector<obs::Span> spans = registry.spans().TakeFinished();
  std::map<uint64_t, const obs::Span*> by_id;
  for (const obs::Span& span : spans) {
    by_id[span.id] = &span;
  }
  size_t sends = 0;
  size_t recvs = 0;
  for (const obs::Span& span : spans) {
    if (std::string(span.layer) != "sim.link") {
      continue;
    }
    SCOPED_TRACE(span.name);
    sends += span.name == "link.send";
    recvs += span.name == "link.recv";
    EXPECT_GT(span.duration_ns(), 0u);
    EXPECT_EQ(span.cat_ns[static_cast<size_t>(TimeCategory::kLink)], span.duration_ns());
    auto parent = by_id.find(span.parent_id);
    ASSERT_NE(parent, by_id.end()) << "orphaned link span";
    EXPECT_EQ(parent->second->name, "rpc.call.1");
  }
  // Every copy that reached the host had a send leg; drops had none.
  EXPECT_EQ(sends, host.arrivals());
  EXPECT_EQ(recvs, static_cast<size_t>(kCalls));
  ExpectLedgerBalanced(clock);
}

// --- LossyInterposer held-response reconciliation ---------------------------

TEST(LossyTest, FlushHeldReclassifiesTheHeldResponseAsADrop) {
  // reorder=1.0 makes the hold deterministic: the first response is held
  // back, and every later one is swapped for the one in the hold slot —
  // the receiver always sees the previous (stale) message, and exactly
  // one response is still held when the run ends.
  sim::LossyInterposer lossy(/*seed=*/7, {.reorder = 1.0});
  auto r1 = lossy.OnResponse(BytesOf("reply 1"));
  EXPECT_FALSE(r1.ok()) << "first response is held, not delivered";
  EXPECT_TRUE(lossy.has_held());
  auto r2 = lossy.OnResponse(BytesOf("reply 2"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), BytesOf("reply 1")) << "stale delivery in place of fresh";
  auto r3 = lossy.OnResponse(BytesOf("reply 3"));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value(), BytesOf("reply 2")) << "the hold slot always lags by one";
  ASSERT_TRUE(lossy.has_held());

  // End of run: the held message never reached anyone.  Flushing books
  // it as a drop so sent = delivered + dropped balances.
  EXPECT_EQ(lossy.responses_dropped(), 0u);
  EXPECT_EQ(lossy.FlushHeld(), 1u);
  EXPECT_FALSE(lossy.has_held());
  EXPECT_EQ(lossy.responses_dropped(), 1u);
  EXPECT_EQ(lossy.held_flushed(), 1u);
  EXPECT_EQ(lossy.FlushHeld(), 0u) << "nothing held, nothing to flush";
  EXPECT_EQ(lossy.held_flushed(), 1u);
}

// Counts responses through a LossyInterposer so the end-of-run balance
// can be checked: everything the server sent was either delivered or is
// in a drop counter — nothing vanishes.
class CountingLossy : public sim::Interposer {
 public:
  CountingLossy(uint64_t seed, sim::LossyInterposer::Profile profile)
      : inner_(seed, profile) {}

  util::Result<Bytes> OnRequest(Bytes request) override {
    return inner_.OnRequest(std::move(request));
  }
  util::Result<Bytes> OnResponse(Bytes response) override {
    ++responses_in_;
    auto result = inner_.OnResponse(std::move(response));
    if (result.ok()) {
      ++responses_out_;
    }
    return result;
  }
  bool DuplicateRequest() override { return inner_.DuplicateRequest(); }

  sim::LossyInterposer* inner() { return &inner_; }
  uint64_t responses_in() const { return responses_in_; }
  uint64_t responses_out() const { return responses_out_; }

 private:
  sim::LossyInterposer inner_;
  uint64_t responses_in_ = 0;
  uint64_t responses_out_ = 0;
};

TEST(LossyTest, SeededLossyRunReconcilesAfterFlush) {
  // Sweep seeds until a run ends with a response still held back for
  // reordering (most reordering runs do), then check the books: before
  // the flush the held message is missing from both the delivered and
  // the dropped column; after it, sent = delivered + dropped exactly.
  bool found_held_run = false;
  for (uint64_t seed = 1; seed <= 32 && !found_held_run; ++seed) {
    sim::Clock clock;
    obs::Registry registry;
    rpc::Dispatcher dispatcher(&registry, &clock);
    dispatcher.RegisterProgram(9, [](uint32_t, const Bytes& args) {
      return util::Result<Bytes>(args);
    });
    sim::Link link(&clock, sim::LinkProfile::Udp(), &dispatcher, &registry);
    CountingLossy lossy(seed, {.drop = 0.05, .duplicate = 0.05, .reorder = 0.25});
    link.set_interposer(&lossy);
    rpc::LinkTransport transport(&link);
    rpc::Client client(&transport, 9, &registry);
    client.set_window(2);

    constexpr uint64_t kCalls = 40;
    uint64_t completions = 0;
    for (uint64_t i = 0; i < kCalls; ++i) {
      client.CallAsync(1, BytesOf("op " + std::to_string(i)),
                       [&completions](util::Result<Bytes> reply) {
                         EXPECT_TRUE(reply.ok()) << reply.status().ToString();
                         ++completions;
                       });
    }
    client.Drain();
    EXPECT_EQ(completions, kCalls);
    ExpectLedgerBalanced(clock);

    sim::LossyInterposer* inner = lossy.inner();
    const uint64_t imbalance =
        lossy.responses_in() - lossy.responses_out() - inner->responses_dropped();
    if (inner->has_held()) {
      found_held_run = true;
      EXPECT_EQ(imbalance, 1u) << "exactly the held message is unaccounted";
      EXPECT_EQ(inner->FlushHeld(), 1u);
      EXPECT_EQ(inner->held_flushed(), 1u);
    } else {
      EXPECT_EQ(imbalance, 0u);
    }
    // After reconciliation every response the server sent is either
    // delivered or counted as dropped.
    EXPECT_EQ(lossy.responses_in(),
              lossy.responses_out() + inner->responses_dropped());
  }
  EXPECT_TRUE(found_held_run)
      << "no seed in [1,32] left a held response; weaken the sweep";
}

// --- Ledger at fleet scale -------------------------------------------------

TEST(LedgerTest, MultiClientEventDrivenRunSumsExactlyToNow) {
  // Many event-driven clients over one shared serial host, driven by a
  // single top-level event loop — the fleet_scaling topology in
  // miniature.  However the gaps interleave (transit, service frames,
  // queue waits, retransmission timers), every nanosecond lands in
  // exactly one category.
  sim::Clock clock;
  obs::Registry registry;
  sim::Host::Options options;
  options.concurrency = 1;
  options.queue_depth = 8;
  sim::Host host(&clock, /*service=*/nullptr, &registry, options);

  constexpr int kClients = 24;
  constexpr uint64_t kOpsPerClient = 8;
  struct ClientStack {
    std::unique_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<sim::Link> link;
    std::unique_ptr<rpc::LinkTransport> transport;
    std::unique_ptr<rpc::Client> client;
  };
  std::vector<ClientStack> stacks;
  uint64_t completions = 0;
  for (int i = 0; i < kClients; ++i) {
    ClientStack stack;
    // Per-connection dispatcher: the duplicate-request cache is keyed by
    // this connection's seqnos (see src/sim/network.h, Host::Arrive).
    stack.dispatcher = std::make_unique<rpc::Dispatcher>(&registry, &clock);
    stack.dispatcher->RegisterProgram(9, [&clock](uint32_t, const Bytes& args) {
      clock.Advance(70'000, TimeCategory::kCpu);
      return util::Result<Bytes>(args);
    });
    stack.link = std::make_unique<sim::Link>(&clock, sim::LinkProfile::Udp(),
                                             &host, &registry,
                                             stack.dispatcher.get());
    stack.transport = std::make_unique<rpc::LinkTransport>(stack.link.get());
    stack.client = std::make_unique<rpc::Client>(stack.transport.get(), 9, &registry);
    stack.client->set_window(4);
    stack.client->EnableEventDriven();
    stacks.push_back(std::move(stack));
  }
  for (int i = 0; i < kClients; ++i) {
    for (uint64_t op = 0; op < kOpsPerClient; ++op) {
      const std::string payload =
          "client " + std::to_string(i) + " op " + std::to_string(op);
      stacks[i].client->CallAsync(
          1, BytesOf(payload), [payload, &completions](util::Result<Bytes> reply) {
            EXPECT_TRUE(reply.ok()) << payload << ": " << reply.status().ToString();
            ++completions;
          });
    }
  }
  while (completions < static_cast<uint64_t>(kClients) * kOpsPerClient) {
    ASSERT_TRUE(clock.events()->RunOne()) << "event queue drained early";
  }
  clock.events()->RunUntil(UINT64_MAX);

  EXPECT_GT(clock.now_ns(), 0u);
  // The acceptance criterion: the clock ledger sums exactly to now_ns
  // at multi-client, event-driven scale.
  const sim::Clock::CategorySnapshot snapshot = clock.categories();
  uint64_t total = 0;
  for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
    total += snapshot.ns[i];
  }
  ASSERT_EQ(total, clock.now_ns());
  // The serial server occupied the timeline for a full 70 us per
  // executed op, so the run cannot be faster than ops * service.  (The
  // kCpu *category* can total less: a service frame's charge covers only
  // the gap to its completion event, and link-transit events landing
  // inside that gap take their slice as kLink — overlap never
  // double-charges the shared timeline.)
  EXPECT_GE(clock.now_ns(),
            static_cast<uint64_t>(kClients) * kOpsPerClient * 70'000u);
  EXPECT_GT(snapshot.ns[static_cast<size_t>(TimeCategory::kCpu)], 0u);
}

}  // namespace
