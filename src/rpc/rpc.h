// Minimal Sun-RPC-style call/reply layer over simulated links.
//
// Mirrors the paper's implementation structure (§3.2): programs
// communicate via RPC with XDR-described messages, and the library can
// pretty-print traffic for debugging (each call and dispatch is a span
// carrying its xid, seqno and wire bytes; obs::FormatSpanTree prints
// them).  A Client issues calls through a Transport: a sim::Link directly
// (LinkTransport, plain NFS), or the SFS secure channel
// (sfs::ChannelTransport, which seals each call into one channel frame).  One Client may carry several programs (an SFS mount's
// NFS3 and SFSCTL) on one window and one xid and seqno stream.
//
// One dispatch step serves both transports.  DecodeCall decodes a call
// (and its trace context) and Dispatcher::Dispatch runs it: the dispatch
// span, the per-procedure server.* metrics and the reply encoding.  As
// the sim::Service of a plain connection, a Dispatcher's Handle is
// decode -> reply cache -> Dispatch with the registered handler.  The SFS server (sfs::ServerConnection) runs the
// same steps around its cipher: unframe -> reply cache -> open -> decode
// (the frame supplies the seqno) -> Dispatch with the connection's
// handler -> seal -> frame.  A Naming value names either end's spans:
// "rpc." / "rpc" for plain RPC, "sfs." / "sfs.chan" on the channel.
//
// Wire format (XDR):
//   call:  uint32 xid, uint32 seqno, uint32 prog, uint32 proc, opaque args
//          [, uint64 trace_id, uint64 parent_span_id]  — optional trace
//          context, appended only while span tracing is enabled (the
//          server parents its dispatch span under the client's call span;
//          see docs/OBSERVABILITY.md §"Spans")
//   reply: uint32 xid, uint32 status (0 = accepted), on error: uint32
//          code + string message, else opaque results
//
// At-most-once semantics: the link retransmits lost messages, so each
// server connection keeps a duplicate-request cache (DRC, a ReplyCache)
// keyed by the call's wire sequence number — a redelivered request
// replays the cached reply instead of re-executing a possibly
// non-idempotent handler (Dispatcher::RecordDrcHit records it).  The Client
// matches replies to outstanding calls by xid; a reply matching no
// outstanding call (a late duplicate from network reordering) is counted
// and discarded, and each call retransmits on its own timer until the
// matching reply arrives or the retry budget runs out.  A reply the
// transport refuses (sim::Delivery::rejected: a stale channel seqno, a
// bad MAC) is counted and discarded the same way; a call whose budget
// runs out after such a refusal fails with it (kSecurityError for
// persistent tampering), not with kUnavailable.
//
// One call engine: every call is submitted through the transport and
// completed by its delivery event (sim::Link's discrete-event core).
// set_window(n) lets the Client keep up to n calls in flight, overlapping
// their round trips; the default window of 1 is stop-and-wait — the same
// engine with one call in flight.  Replies may arrive out of order (the
// xid map reassociates them); each in-flight call carries its own
// backed-off retransmission timer and resends the identical wire bytes,
// so the server-side DRC semantics are the same at any window size.
#ifndef SFS_SRC_RPC_RPC_H_
#define SFS_SRC_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace rpc {

// How many recent replies a duplicate-request cache retains.  A
// retransmitted request older than this gets an error instead of a
// replay (with a synchronous client it would have to be ancient).
inline constexpr uint32_t kDrcWindow = 64;

// Largest send window a pipelined client may use.  Kept well under
// kDrcWindow so every in-flight seqno (and a margin of recently
// completed ones) still has a cached reply a retransmit can hit.
inline constexpr uint32_t kMaxSendWindow = 32;

// Duplicate-request cache: the reply recorded for each recent request
// seqno, so a retransmitted request replays it instead of re-executing a
// possibly non-idempotent handler.  Keeps the kDrcWindow newest seqnos.
// An entry may carry the trace context of the request that produced it,
// for callers that cannot reread the context from a duplicate (a sealed
// channel frame must not be opened twice).
class ReplyCache {
 public:
  struct Entry {
    util::Bytes reply;
    obs::SpanContext ctx;
  };

  // The entry recorded for `seqno`, or nullptr.
  const Entry* Find(uint32_t seqno) const {
    auto it = entries_.find(seqno);
    return it == entries_.end() ? nullptr : &it->second;
  }
  // True when `seqno` is older than anything the cache retains: its
  // reply is gone, and re-executing would break at-most-once.
  bool BelowWindow(uint32_t seqno) const {
    return max_seqno_ != 0 && seqno + kDrcWindow <= max_seqno_;
  }
  void Insert(uint32_t seqno, util::Bytes reply, obs::SpanContext ctx = {});

 private:
  std::map<uint32_t, Entry> entries_;
  uint32_t max_seqno_ = 0;
};

// Where one end of a connection records its work, so the plain link and
// the SFS channel report through one call engine and one dispatch step
// under their own names: the client's call spans are
// "<span_prefix>call.<PROC>" in span layer `layer`; the server's are
// "<span_prefix>dispatch.<PROC>" and "<span_prefix>drc_hit" in layer
// "server".
struct Naming {
  const char* layer;
  const char* span_prefix;
};
inline constexpr Naming kPlainNaming{"rpc", "rpc."};

// One decoded call message.
struct Call {
  uint32_t xid = 0;
  uint32_t seqno = 0;
  uint32_t prog = 0;
  uint32_t proc = 0;
  util::Bytes args;
  obs::SpanContext ctx;     // The caller's call span; invalid when none was sent.
  uint64_t wire_bytes = 0;  // Size of the decoded message.
};

// The decode step: parses a call message and its optional trace context.
// Without `seqno` the message carries its own seqno word (the wire format
// above); with it, the message has none — the SFS channel's plaintext,
// whose seqno travels in the frame around it (docs/PROTOCOL.md §5).
util::Result<Call> DecodeCall(const util::Bytes& message,
                              std::optional<uint32_t> seqno = std::nullopt);

// Server-side handler for one RPC program.
using ProgramHandler =
    std::function<util::Result<util::Bytes>(uint32_t proc, const util::Bytes& args)>;

// Handler a caller of Dispatcher::Dispatch supplies for one call.
using CallHandler = std::function<util::Result<util::Bytes>(const Call& call)>;

// Optional proc-name resolver, used for metric and span names.
using ProcNamer = std::function<std::string(uint32_t proc)>;

class Dispatcher : public sim::Service {
 public:
  // `registry` receives the server.* counters, per-procedure ops metrics
  // and spans; nullptr selects obs::Registry::Default().  `clock`
  // (optional) timestamps spans and feeds per-procedure handler latency
  // histograms.  `naming` names the spans.
  explicit Dispatcher(obs::Registry* registry = nullptr, const sim::Clock* clock = nullptr,
                      Naming naming = kPlainNaming);

  // `name` labels this program's server-side metrics
  // ("server.<name>.<PROC>.*"); empty derives "PROG<prog>".  A program
  // registered without a handler is served only through Dispatch with a
  // caller-supplied one.
  void RegisterProgram(uint32_t prog, ProgramHandler handler, ProcNamer namer = nullptr,
                       std::string name = "");
  bool Serves(uint32_t prog) const { return programs_.count(prog) != 0; }

  // sim::Service for a plain-RPC connection: decode, answer a duplicate
  // from this dispatcher's reply cache, else Dispatch with the program's
  // registered handler and cache the reply.
  util::Result<util::Bytes> Handle(const util::Bytes& request) override;

  // The dispatch step: runs one decoded call under its
  // "<span_prefix>dispatch.<PROC>" span, with the per-procedure server.*
  // metrics, and returns the encoded reply.  `handler` runs the call
  // (default: the program's registered handler).  A call naming an
  // unregistered program gets a kNotFound error reply and runs nothing.
  util::Bytes Dispatch(const Call& call, const CallHandler& handler = nullptr);

  // Records one request answered from a reply cache without running its
  // handler: the server.drc_hits counter and a zero-length
  // "<span_prefix>drc_hit" span parented at `call.ctx` (else the ambient
  // span).  `call` holds whatever of the request is readable (a sealed
  // channel frame yields only its seqno).
  void RecordDrcHit(const Call& call, uint64_t reply_bytes);

 private:
  struct Program {
    ProgramHandler handler;
    ProcNamer namer;
    std::string name;
    obs::ProcMetricsTable metrics;
  };

  uint64_t NowNs() const;

  const Naming naming_;
  std::map<uint32_t, Program> programs_;

  // Duplicate-request cache: wire seqno -> complete reply message.
  ReplyCache drc_;

  obs::Registry* registry_;
  const sim::Clock* clock_;
  obs::SpanCollector* spans_;
  obs::Counter* m_drc_hits_;
};

// Transport abstraction for the client: anything that puts requests on
// a wire and hands back their deliveries, with the semantics of
// sim::Link's Submit / AwaitNext / InProgress / set_delivery_sink.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual uint64_t Submit(util::Bytes request) = 0;
  virtual std::optional<sim::Delivery> AwaitNext(uint64_t deadline_ns) = 0;
  virtual bool InProgress(uint64_t token) const = 0;
  virtual void NoteRetransmission() = 0;
  // Event-driven surface: deliveries are pushed to `sink` at their
  // delivery event instead of being pulled via AwaitNext.  Fleet-scale
  // harnesses run one top-level event loop over thousands of clients;
  // nested per-client pumping would recurse.
  virtual void SetDeliverySink(std::function<void(sim::Delivery)> sink) = 0;
  // The clock and retry policy governing this transport.
  virtual sim::Clock* clock() = 0;
  virtual const sim::RetryPolicy& retry_policy() const = 0;
  // Where a Client over this transport records its calls.
  virtual Naming naming() const = 0;
};

// Adapts sim::Link to Transport.
class LinkTransport : public Transport {
 public:
  explicit LinkTransport(sim::Link* link) : link_(link) {}
  uint64_t Submit(util::Bytes request) override {
    return link_->Submit(std::move(request));
  }
  std::optional<sim::Delivery> AwaitNext(uint64_t deadline_ns) override {
    return link_->AwaitNext(deadline_ns);
  }
  bool InProgress(uint64_t token) const override { return link_->InProgress(token); }
  void NoteRetransmission() override { link_->NoteRetransmission(); }
  void SetDeliverySink(std::function<void(sim::Delivery)> sink) override {
    link_->set_delivery_sink(std::move(sink));
  }
  sim::Clock* clock() override { return link_->clock(); }
  const sim::RetryPolicy& retry_policy() const override { return link_->retry_policy(); }
  Naming naming() const override { return kPlainNaming; }

 private:
  sim::Link* link_;
};

class Client {
 public:
  // `registry` receives the rpc.client.* counters, the per-procedure
  // metric family ("rpc.client.<prog_name>.<PROC>.*") and the call
  // spans; nullptr selects obs::Registry::Default().  `prog_name` labels
  // the metric names (empty derives "PROG<prog>"); `namer` resolves
  // procedure numbers for metric and span names.
  Client(Transport* transport, uint32_t prog, obs::Registry* registry = nullptr,
         std::string prog_name = "", ProcNamer namer = nullptr);
  ~Client();

  // Adds another program to this client, named like the constructor's
  // (metrics "rpc.client.<name>.<PROC>.*").  Every program shares the
  // one window, xid stream and seqno stream, as the programs a
  // Dispatcher serves share one connection.
  void RegisterProgram(uint32_t prog, std::string name = "", ProcNamer namer = nullptr);

  // Synchronous call.  Errors from the transport (kUnavailable,
  // kSecurityError) and from the remote handler both surface as Status.
  // Submits through CallAsync and pumps deliveries until this call
  // completes — earlier async calls' replies are processed (and their
  // callbacks run) along the way.  Without `prog`, calls the program
  // named at construction.
  util::Result<util::Bytes> Call(uint32_t prog, uint32_t proc, const util::Bytes& args);
  util::Result<util::Bytes> Call(uint32_t proc, const util::Bytes& args) {
    return Call(prog_, proc, args);
  }

  // Completion for an asynchronous call: the decoded results, or the
  // transport/handler error.  Runs inside a later Call/CallAsync/Drain.
  using Callback = std::function<void(util::Result<util::Bytes>)>;

  // Starts a call without waiting for its reply.  If the window is full,
  // blocks (pumping deliveries) until a slot frees; the wait is recorded
  // in the rpc.client.queue_wait_ns histogram.
  void CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args, Callback done);
  void CallAsync(uint32_t proc, const util::Bytes& args, Callback done) {
    CallAsync(prog_, proc, args, std::move(done));
  }

  // Pumps until every outstanding async call has completed.
  void Drain();

  // Switches this client to event-driven completion: deliveries arrive
  // through the transport's sink at their delivery event, and each
  // in-flight call arms a cancellable retransmission timer on the
  // clock's EventQueue instead of being polled by AwaitNext.  Call/
  // CallAsync/Drain keep working (they pump the shared event loop), but
  // a fleet harness can equally run the loop itself and let completions
  // flow through callbacks.
  void EnableEventDriven();
  bool event_driven() const { return event_driven_; }

  // Sliding send window: 1 (default) is stop-and-wait, one call in
  // flight; larger values pipeline up to `window` concurrent calls.
  // Clamped to kMaxSendWindow.
  void set_window(uint32_t window);
  uint32_t window() const { return window_; }
  uint64_t in_flight() const { return pending_.size(); }

 private:
  struct Program {
    ProcNamer namer;
    obs::ProcMetricsTable metrics;
  };

  struct PendingCall {
    uint32_t xid = 0;
    uint32_t seqno = 0;
    util::Bytes wire;  // Encoded once; retransmissions resend these bytes.
    uint64_t t_call_ns = 0;
    uint64_t deadline_ns = 0;
    uint64_t rto_ns = 0;
    uint64_t timer_id = 0;  // Event-driven retransmission timer; 0 = none.
    uint32_t attempt = 0;
    // Why the transport last refused a reply to this call (e.g. a bad
    // MAC); surfaced if the retry budget runs out.
    util::Status rejection = util::OkStatus();
    uint64_t span_id = 0;  // Open call span; 0 = tracing off.
    obs::ProcMetrics* pm = nullptr;
    Callback done;
  };

  // Sends (or resends) a pending call and arms its timer.
  void Transmit(PendingCall* call);
  // Waits for the next delivery or the earliest retransmission deadline;
  // processes whichever fires.  Returns after at most one event.
  void PumpOnce();
  // Handles one delivered message: match by xid, complete or count.
  void OnDelivery(sim::Delivery delivery);
  // Retransmission deadline of `call` passed: re-arm it if a copy is
  // still in progress (sim::Link::InProgress), else resend or give up.
  void OnDeadline(PendingCall* call);
  void ArmTimer(PendingCall* call);
  // Removes the call from the window and runs its callback.
  void Complete(uint32_t xid, util::Result<util::Bytes> result);

  Transport* transport_;
  sim::Clock* clock_;
  const Naming naming_;
  uint32_t prog_;  // The constructor's program: Call/CallAsync without one.
  std::map<uint32_t, Program> programs_;
  uint32_t next_xid_ = 1;
  uint32_t next_seqno_ = 1;
  uint32_t window_ = 1;
  bool event_driven_ = false;

  // Outstanding calls by xid, plus the submission-token map used to
  // attribute service-level error deliveries and to ask the transport
  // whether any copy of a call is still in progress.
  std::map<uint32_t, PendingCall> pending_;
  std::map<uint64_t, uint32_t> token_to_xid_;

  obs::Registry* registry_;
  obs::SpanCollector* spans_;
  // Replies that matched no outstanding call (late duplicates from
  // reordering) or that the transport refused.
  obs::Counter* m_unmatched_replies_;
  obs::Counter* m_window_occupancy_sum_;
  obs::Counter* m_window_samples_;
  // In-flight calls across all clients on the registry, for timeline
  // gauge tracks (client window occupancy over virtual time).
  obs::Gauge* g_in_flight_;
  obs::Histogram* m_queue_wait_;
};

}  // namespace rpc

#endif  // SFS_SRC_RPC_RPC_H_
