#include "src/rpc/rpc.h"

#include <algorithm>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/event.h"
#include "src/util/log.h"
#include "src/xdr/xdr.h"

namespace rpc {
namespace {

constexpr uint32_t kReplyAccepted = 0;
constexpr uint32_t kReplyError = 1;

}  // namespace

void ReplyCache::Insert(uint32_t seqno, util::Bytes reply, obs::SpanContext ctx) {
  entries_[seqno] = Entry{std::move(reply), ctx};
  max_seqno_ = std::max(max_seqno_, seqno);
  while (!entries_.empty() && entries_.begin()->first + kDrcWindow <= max_seqno_) {
    entries_.erase(entries_.begin());
  }
}

util::Result<Call> DecodeCall(const util::Bytes& message, std::optional<uint32_t> seqno) {
  xdr::Decoder dec(message);
  Call call;
  call.wire_bytes = message.size();
  auto xid = dec.GetUint32();
  auto wire_seqno = seqno.has_value() ? util::Result<uint32_t>(*seqno) : dec.GetUint32();
  auto prog = dec.GetUint32();
  auto proc = dec.GetUint32();
  auto args = dec.GetOpaque();
  if (!xid.ok() || !wire_seqno.ok() || !prog.ok() || !proc.ok() || !args.ok()) {
    return util::InvalidArgument("RPC: malformed call message");
  }
  call.xid = xid.value();
  call.seqno = wire_seqno.value();
  call.prog = prog.value();
  call.proc = proc.value();
  call.args = std::move(args).value();
  // Optional trailing trace context, present only while the caller's span
  // collector is enabled (docs/OBSERVABILITY.md §"Spans").  Retransmits
  // resend identical bytes, so a duplicate carries its original context.
  if (!dec.AtEnd()) {
    auto trace_id = dec.GetUint64();
    auto parent_span = dec.GetUint64();
    if (!trace_id.ok() || !parent_span.ok()) {
      return util::InvalidArgument("RPC: malformed call message");
    }
    call.ctx = obs::SpanContext{trace_id.value(), parent_span.value()};
  }
  if (!dec.AtEnd()) {
    return util::InvalidArgument("RPC: malformed call message");
  }
  return call;
}

Dispatcher::Dispatcher(obs::Registry* registry, const sim::Clock* clock, Naming naming)
    : naming_(naming),
      registry_(registry != nullptr ? registry : obs::Registry::Default()),
      clock_(clock),
      tracer_(&registry_->tracer()),
      spans_(&registry_->spans()),
      m_drc_hits_(registry_->GetCounter("server.drc_hits")) {}

void Dispatcher::RegisterProgram(uint32_t prog, ProgramHandler handler, ProcNamer namer,
                                 std::string name) {
  if (name.empty()) {
    name = "PROG" + std::to_string(prog);
  }
  Program& program = programs_[prog];
  program.handler = std::move(handler);
  program.namer = std::move(namer);
  program.name = std::move(name);
  program.metrics.Init(registry_, "server." + program.name);
}

std::string Dispatcher::ProcNameFor(const Program* program, uint32_t proc) const {
  if (program == nullptr) {
    return "";
  }
  return program->namer ? program->namer(proc) : std::to_string(proc);
}

uint64_t Dispatcher::NowNs() const { return clock_ != nullptr ? clock_->now_ns() : 0; }

void Dispatcher::Emit(obs::TraceEvent::Kind kind, const Call& call, const std::string& proc_name,
                      uint64_t wire_bytes, uint64_t t_send_ns, const std::string& note) {
  if (!tracer_->active()) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.layer = naming_.layer;
  event.prog = call.prog;
  event.proc = call.proc;
  event.proc_name = proc_name;
  event.xid = call.xid;
  event.seqno = call.seqno;
  event.wire_bytes = wire_bytes;
  event.t_send_ns = t_send_ns;
  event.t_recv_ns = NowNs();
  event.drc_hit = kind == obs::TraceEvent::Kind::kServerDrcHit;
  event.note = note;
  tracer_->Emit(event);
}

util::Result<util::Bytes> Dispatcher::Handle(const util::Bytes& request) {
  auto call = DecodeCall(request);
  if (!call.ok()) {
    return call.status();
  }
  // Duplicate-request cache: a retransmitted call must not re-execute a
  // non-idempotent handler.  Replay the reply recorded the first time.
  if (const ReplyCache::Entry* cached = drc_.Find(call->seqno)) {
    RecordDrcHit(*call, cached->reply.size());
    return cached->reply;
  }
  if (drc_.BelowWindow(call->seqno)) {
    // Older than anything the cache retains; the reply is long gone and
    // re-executing would break at-most-once.
    return util::InvalidArgument("RPC: request seqno below duplicate-cache window");
  }
  util::Bytes reply = Dispatch(*call);
  // Cache every reply — including handler errors, which a duplicate must
  // see verbatim rather than triggering a second execution attempt.
  drc_.Insert(call->seqno, reply);
  return reply;
}

util::Bytes Dispatcher::Dispatch(const Call& call, const CallHandler& handler) {
  xdr::Encoder reply;
  reply.PutUint32(call.xid);
  auto put_error = [&reply](const util::Status& status) {
    reply.PutUint32(kReplyError);
    reply.PutUint32(static_cast<uint32_t>(status.code()));
    reply.PutString(status.message());
  };
  auto it = programs_.find(call.prog);
  if (it == programs_.end()) {
    put_error(util::NotFound("no such program"));
    return reply.Take();
  }
  Program& program = it->second;
  const uint64_t now_ns = NowNs();
  const std::string proc_name = ProcNameFor(&program, call.proc);
  if (util::GetLogLevel() <= util::LogLevel::kDebug) {
    SFS_LOG(kDebug) << naming_.layer << " call prog=" << call.prog << " proc=" << proc_name
                    << " args=" << call.args.size() << "B";
  }
  Emit(obs::TraceEvent::Kind::kServerDispatch, call, proc_name, call.wire_bytes, now_ns, "");

  obs::ProcMetrics* pm = program.metrics.Get(call.proc, proc_name);
  pm->calls->Increment();
  pm->bytes_received->Increment(call.wire_bytes);

  // Dispatch span: explicit wire-context parent when the caller sent one
  // (correct even for a retransmitted copy raced by the original),
  // ambient otherwise.  Pushed so handler-side spans (disk charges, the
  // audit record) nest under it.
  uint64_t dispatch_span = 0;
  if (spans_->enabled()) {
    dispatch_span = spans_->Begin(std::string(naming_.span_prefix) + "dispatch." + proc_name,
                                  "server", call.ctx);
    if (obs::Span* s = spans_->Find(dispatch_span)) {
      s->xid = call.xid;
      s->seqno = call.seqno;
      s->wire_bytes = call.wire_bytes;
    }
    spans_->Push(dispatch_span);
  }
  auto result = handler ? handler(call) : program.handler(call.proc, call.args);
  if (dispatch_span != 0) {
    if (obs::Span* s = spans_->Find(dispatch_span)) {
      s->error = !result.ok();
    }
    spans_->Pop(dispatch_span);
    spans_->End(dispatch_span);
  }
  if (clock_ != nullptr) {
    // Handler execution time (server CPU + disk, by the cost model).
    pm->latency->Record(clock_->now_ns() - now_ns);
  }
  if (!result.ok()) {
    pm->errors->Increment();
    put_error(result.status());
  } else {
    reply.PutUint32(kReplyAccepted);
    reply.PutOpaque(result.value());
  }
  util::Bytes reply_bytes = reply.Take();
  pm->bytes_sent->Increment(reply_bytes.size());
  Emit(obs::TraceEvent::Kind::kServerReply, call, proc_name, reply_bytes.size(), now_ns,
       result.status().message());
  return reply_bytes;
}

void Dispatcher::RecordDrcHit(const Call& call, uint64_t reply_bytes) {
  m_drc_hits_->Increment();
  const uint64_t now_ns = NowNs();
  auto it = programs_.find(call.prog);
  Emit(obs::TraceEvent::Kind::kServerDrcHit, call,
       ProcNameFor(it == programs_.end() ? nullptr : &it->second, call.proc), reply_bytes,
       now_ns, "replayed cached reply");
  if (spans_->enabled()) {
    // Zero-duration marker: the retransmitted copy was answered from the
    // cache, parented into the original call's trace.
    obs::Span span;
    span.name = std::string(naming_.span_prefix) + "drc_hit";
    span.layer = "server";
    span.start_ns = now_ns;
    span.end_ns = now_ns;
    span.xid = call.xid;
    span.seqno = call.seqno;
    span.wire_bytes = reply_bytes;
    span.drc_hit = true;
    spans_->RecordClosed(std::move(span), call.ctx.valid() ? call.ctx : spans_->current());
  }
}

Client::Client(Transport* transport, uint32_t prog, obs::Registry* registry,
               std::string prog_name, ProcNamer namer)
    : transport_(transport),
      clock_(transport->clock()),
      naming_(transport->naming()),
      prog_(prog),
      registry_(registry != nullptr ? registry : obs::Registry::Default()),
      tracer_(&registry_->tracer()),
      spans_(&registry_->spans()),
      m_unmatched_replies_(registry_->GetCounter("rpc.client.unmatched_replies")),
      m_window_occupancy_sum_(registry_->GetCounter("rpc.client.window_occupancy_sum")),
      m_window_samples_(registry_->GetCounter("rpc.client.window_samples")),
      g_in_flight_(registry_->GetGauge("rpc.client.in_flight")),
      m_queue_wait_(registry_->GetHistogram("rpc.client.queue_wait_ns")) {
  RegisterProgram(prog, std::move(prog_name), std::move(namer));
}

void Client::RegisterProgram(uint32_t prog, std::string name, ProcNamer namer) {
  if (name.empty()) {
    name = "PROG" + std::to_string(prog);
  }
  Program& program = programs_[prog];
  program.namer = std::move(namer);
  program.metrics.Init(registry_, "rpc.client." + name);
}

Client::~Client() {
  // Disarm event-driven retransmission timers: the clock (and its event
  // queue) outlives the client, and a fired timer would touch freed
  // state.
  for (auto& [xid, call] : pending_) {
    if (call.timer_id != 0) {
      clock_->events()->Cancel(call.timer_id);
    }
  }
  // Calls abandoned in-flight are no longer occupying the window.
  g_in_flight_->Add(-static_cast<int64_t>(pending_.size()));
}

void Client::set_window(uint32_t window) {
  window_ = std::clamp<uint32_t>(window, 1, kMaxSendWindow);
}

void Client::EnableEventDriven() {
  if (event_driven_) {
    return;
  }
  event_driven_ = true;
  transport_->SetDeliverySink(
      [this](sim::Delivery delivery) { OnDelivery(std::move(delivery)); });
}

util::Result<util::Bytes> Client::Call(uint32_t prog, uint32_t proc,
                                       const util::Bytes& args) {
  // Submit through the window and pump until this call's reply lands;
  // earlier async calls complete (and run their callbacks) on the way.
  std::optional<util::Result<util::Bytes>> out;
  CallAsync(prog, proc, args,
            [&out](util::Result<util::Bytes> result) { out = std::move(result); });
  while (!out.has_value()) {
    PumpOnce();
  }
  return std::move(*out);
}

void Client::EmitEvent(obs::TraceEvent::Kind kind, const PendingCall& call,
                       uint64_t wire_bytes, const std::string& note) {
  if (!tracer_->active()) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.layer = naming_.layer;
  event.prog = call.prog;
  event.proc = call.proc;
  event.proc_name = call.proc_name;
  event.xid = call.xid;
  event.seqno = call.seqno;
  event.wire_bytes = wire_bytes;
  event.t_send_ns = call.t_call_ns;
  event.t_recv_ns = clock_->now_ns();
  event.attempt = call.attempt;
  event.note = note;
  tracer_->Emit(event);
}

void Client::Transmit(PendingCall* call) {
  call->pm->bytes_sent->Increment(call->wire.size());
  // The call span is ambient across Submit so the link's leg spans (and
  // the server-side dispatch, which executes under the submitter's
  // context) parent under it (Push(0) no-ops).
  spans_->Push(call->span_id);
  const uint64_t token = transport_->Submit(call->wire);
  spans_->Pop(call->span_id);
  token_to_xid_[token] = call->xid;
  ArmTimer(call);
}

void Client::ArmTimer(PendingCall* call) {
  call->deadline_ns = clock_->now_ns() + call->rto_ns;
  if (event_driven_) {
    // Cancellable engine timer instead of the AwaitNext deadline poll.
    // The timer fires only if nothing completed the call first; the gap
    // it bridges is charged as the next live event would charge it
    // (idle waiting out a lost message is kWait, same as the pull path).
    const uint32_t xid = call->xid;
    call->timer_id = clock_->events()->Schedule(
        call->deadline_ns, sim::GapAttribution::SplitNext(), [this, xid] {
          auto it = pending_.find(xid);
          if (it != pending_.end()) {
            it->second.timer_id = 0;  // This timer just fired.
            OnDeadline(&it->second);
          }
        });
  }
}

void Client::CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args,
                       Callback done) {
  // A new call may enter only when (a) a window slot is free and (b) its
  // seqno would stay within the server's duplicate-request window of the
  // oldest outstanding call.  (b) matters because completions arrive out
  // of order: while the oldest call waits out its retransmission timer,
  // newer calls keep completing and freeing slots, so the send window
  // alone does not bound the seqno spread — without this hold, the DRC
  // can slide past the stuck seqno and reject its retransmission.
  // pending_ is keyed by xid, and xids and seqnos advance together, so
  // the first entry is the oldest seqno.  kDrcWindow/2 leaves the server
  // margin for retransmitted copies and matches kMaxSendWindow, so the
  // hold only ever engages when completions have outrun the oldest call
  // by more than a full window.
  auto may_issue = [this] {
    return pending_.size() < window_ &&
           (pending_.empty() ||
            next_seqno_ - pending_.begin()->second.seqno < kDrcWindow / 2);
  };
  if (!may_issue()) {
    // Pump until the call may enter.  The wait is real queueing delay the
    // caller experiences, so record it.
    const uint64_t wait_start = clock_->now_ns();
    while (!may_issue()) {
      PumpOnce();
    }
    m_queue_wait_->Record(clock_->now_ns() - wait_start);
  } else {
    m_queue_wait_->Record(0);
  }

  uint32_t xid = next_xid_++;
  uint32_t seqno = next_seqno_++;
  ++calls_made_;
  auto program = programs_.find(prog);
  if (program == programs_.end()) {
    RegisterProgram(prog);
    program = programs_.find(prog);
  }
  const ProcNamer& namer = program->second.namer;
  const std::string proc_name = namer ? namer(proc) : std::to_string(proc);

  // Async call span: parented to the ambient span at submission (the
  // initiating operation), ended when the reply completes the call.
  // Initiators that must satisfy the nesting invariant drain their async
  // calls before closing their own span.
  uint64_t span_id = 0;
  if (spans_->enabled()) {
    span_id = spans_->Begin(std::string(naming_.span_prefix) + "call." + proc_name,
                            naming_.layer);
  }

  xdr::Encoder enc;
  enc.PutUint32(xid);
  enc.PutUint32(seqno);
  enc.PutUint32(prog);
  enc.PutUint32(proc);
  enc.PutOpaque(args);
  if (obs::Span* s = spans_->Find(span_id)) {
    enc.PutUint64(s->trace_id);
    enc.PutUint64(s->id);
    s->xid = xid;
    s->seqno = seqno;
  }

  PendingCall call;
  call.xid = xid;
  call.seqno = seqno;
  call.prog = prog;
  call.proc = proc;
  call.proc_name = proc_name;
  call.span_id = span_id;
  call.wire = enc.Take();
  if (obs::Span* s = spans_->Find(span_id)) {
    s->wire_bytes = call.wire.size();
  }
  call.t_call_ns = clock_->now_ns();
  call.rto_ns = transport_->retry_policy().initial_rto_ns;
  call.pm = program->second.metrics.Get(proc, call.proc_name);
  call.pm->calls->Increment();
  call.done = std::move(done);

  auto [it, inserted] = pending_.emplace(xid, std::move(call));
  (void)inserted;
  g_in_flight_->Add(1);
  EmitEvent(obs::TraceEvent::Kind::kClientCall, it->second, it->second.wire.size(), "");
  Transmit(&it->second);
  m_window_occupancy_sum_->Increment(pending_.size());
  m_window_samples_->Increment();
}

void Client::Drain() {
  while (!pending_.empty()) {
    PumpOnce();
  }
}

void Client::PumpOnce() {
  if (pending_.empty()) {
    return;
  }
  if (event_driven_) {
    // Deliveries and retransmission timers are all engine events; with a
    // call pending there is always at least one scheduled (its timer),
    // so one dispatch always makes progress.
    clock_->events()->RunOne();
    return;
  }
  uint64_t deadline = pending_.begin()->second.deadline_ns;
  for (const auto& [xid, call] : pending_) {
    deadline = std::min(deadline, call.deadline_ns);
  }
  auto delivery = transport_->AwaitNext(deadline);
  if (delivery.has_value()) {
    OnDelivery(std::move(*delivery));
    return;
  }

  // The earliest retransmission deadline passed with no delivery: handle
  // every expired call.
  const uint64_t now = clock_->now_ns();
  std::vector<uint32_t> expired;
  for (const auto& [xid, call] : pending_) {
    if (call.deadline_ns <= now) {
      expired.push_back(xid);
    }
  }
  for (uint32_t xid : expired) {
    auto it = pending_.find(xid);
    if (it != pending_.end()) {
      OnDeadline(&it->second);
    }
  }
}

void Client::OnDeadline(PendingCall* call) {
  for (const auto& [token, xid] : token_to_xid_) {
    if (xid == call->xid && transport_->InProgress(token)) {
      ArmTimer(call);  // Slow, not lost: a copy is still in progress.
      return;
    }
  }
  const sim::RetryPolicy& policy = transport_->retry_policy();
  const uint32_t attempts = policy.max_transmissions == 0 ? 1 : policy.max_transmissions;
  if (call->attempt + 1 >= attempts) {
    // A reply the transport kept refusing is a verdict, not silence:
    // persistent tampering surfaces as the refusal (kSecurityError).
    Complete(call->xid,
             !call->rejection.ok()
                 ? call->rejection
                 : util::Unavailable("RPC: retry budget exhausted waiting for reply"));
    return;
  }
  ++call->attempt;
  call->rto_ns = std::min(call->rto_ns * policy.backoff_factor, policy.max_rto_ns);
  // Timer resends count as link retransmissions (we cannot tell loss
  // from reordering here).
  ++retransmissions_;
  transport_->NoteRetransmission();
  call->pm->retransmits->Increment();
  if (obs::Span* s = spans_->Find(call->span_id)) {
    ++s->retransmits;
  }
  EmitEvent(obs::TraceEvent::Kind::kClientRetransmit, *call, call->wire.size(),
            "retransmission timer expired");
  Transmit(call);
}

void Client::OnDelivery(sim::Delivery delivery) {
  // Attribute service-level verdicts through the submission token (the
  // response bytes, if any, are not a parseable reply).
  uint32_t token_xid = 0;
  if (auto tok = token_to_xid_.find(delivery.token); tok != token_to_xid_.end()) {
    token_xid = tok->second;
    token_to_xid_.erase(tok);
  }
  auto count_unmatched = [&](uint32_t xid, const std::string& note) {
    ++unmatched_replies_;
    m_unmatched_replies_->Increment();
    if (tracer_->active()) {
      obs::TraceEvent event;
      event.kind = obs::TraceEvent::Kind::kClientStaleReply;
      event.layer = naming_.layer;
      event.prog = prog_;
      event.xid = xid;
      event.wire_bytes = delivery.response.size();
      event.t_recv_ns = clock_->now_ns();
      event.note = note;
      tracer_->Emit(event);
    }
  };
  if (delivery.rejected) {
    // The transport refused the reply (stale seqno, bad MAC): discard it
    // and let the timer resend; the call remembers why, in case no
    // acceptable reply ever arrives.
    count_unmatched(token_xid, delivery.status.message());
    if (auto it = pending_.find(token_xid); it != pending_.end()) {
      it->second.rejection = delivery.status;
    }
    return;
  }
  if (!delivery.status.ok()) {
    if (pending_.count(token_xid) != 0) {
      Complete(token_xid, delivery.status);
    }
    return;
  }

  xdr::Decoder dec(std::move(delivery.response));
  auto reply_xid = dec.GetUint32();
  if (!reply_xid.ok()) {
    count_unmatched(0, "truncated reply header");
    return;
  }
  auto it = pending_.find(reply_xid.value());
  if (it == pending_.end()) {
    // No outstanding call wants this xid: a late duplicate of an already
    // completed call (retransmit raced the reply).  Counted, not silent.
    count_unmatched(reply_xid.value(), "no outstanding call for xid");
    return;
  }

  auto status_word = dec.GetUint32();
  if (!status_word.ok()) {
    // Matched but unparseable: discard and let the timer resend; the
    // server DRC replays the intact reply.
    count_unmatched(reply_xid.value(), "truncated reply body");
    return;
  }
  if (status_word.value() == kReplyAccepted) {
    auto results = dec.GetOpaque();
    if (!results.ok() || !dec.AtEnd()) {
      count_unmatched(reply_xid.value(), "malformed accepted reply");
      return;
    }
    Complete(reply_xid.value(), std::move(results).value());
    return;
  }
  auto code = dec.GetUint32();
  auto message = dec.GetString();
  if (!code.ok() || !message.ok()) {
    count_unmatched(reply_xid.value(), "malformed error reply");
    return;
  }
  uint32_t clamped = code.value();
  if (clamped == 0 || clamped > static_cast<uint32_t>(util::ErrorCode::kInternal)) {
    clamped = static_cast<uint32_t>(util::ErrorCode::kInternal);
  }
  Complete(reply_xid.value(),
           util::Status(static_cast<util::ErrorCode>(clamped), message.value()));
}

void Client::Complete(uint32_t xid, util::Result<util::Bytes> result) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) {
    return;
  }
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  g_in_flight_->Add(-1);
  if (call.timer_id != 0) {
    // Event-driven mode: the reply beat the retransmission timer; cancel
    // it so it neither fires nor holds the event queue open.
    clock_->events()->Cancel(call.timer_id);
  }
  // Retire every submission token still pointing at this call (dropped
  // copies never produced a delivery to clean themselves up).
  for (auto tok = token_to_xid_.begin(); tok != token_to_xid_.end();) {
    tok = tok->second == xid ? token_to_xid_.erase(tok) : std::next(tok);
  }
  if (result.ok()) {
    call.pm->bytes_received->Increment(result.value().size());
    EmitEvent(obs::TraceEvent::Kind::kClientReply, call, result.value().size(), "");
  } else {
    call.pm->errors->Increment();
  }
  // Wall-clock latency of the whole call.  Its per-category split is the
  // rpc.call.<proc> span's cat_ns; a registry counter diffed across
  // overlapping calls would double-charge shared time.
  call.pm->latency->Record(clock_->now_ns() - call.t_call_ns);
  if (call.span_id != 0) {
    if (obs::Span* s = spans_->Find(call.span_id)) {
      s->error = !result.ok();
    }
    spans_->End(call.span_id);
  }
  if (call.done) {
    call.done(std::move(result));
  }
}

}  // namespace rpc
