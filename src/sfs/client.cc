#include "src/sfs/client.h"

#include <algorithm>
#include <vector>

#include "src/obs/span.h"
#include "src/sfs/idmap.h"
#include "src/util/log.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

// Records one already-elapsed all-kCrypto interval (a seal or open of the
// channel cipher) as a child of `parent`.
void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, uint64_t start_ns,
                      uint64_t end_ns, uint64_t bytes, obs::SpanContext parent) {
  if (spans == nullptr || !spans->enabled() || end_ns == start_ns) {
    return;
  }
  obs::Span span;
  span.name = name;
  span.layer = "sfs.chan";
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.cat_ns[static_cast<size_t>(obs::TimeCategory::kCrypto)] = end_ns - start_ns;
  span.wire_bytes = bytes;
  spans->RecordClosed(std::move(span), parent);
}

util::Bytes FrameMessage(uint32_t type, const util::Bytes& payload) {
  xdr::Encoder enc;
  enc.PutUint32(type);
  enc.PutOpaque(payload);
  return enc.Take();
}

// Unframes a reply, checking the echoed message type.
util::Result<util::Bytes> Unframe(uint32_t expected_type, const util::Bytes& message) {
  xdr::Decoder dec(message);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes payload, dec.GetOpaque());
  if (type != expected_type || !dec.AtEnd()) {
    return util::SecurityError("unexpected reply framing");
  }
  return payload;
}

// One handshake roundtrip with stale-reply tolerance: the link masks
// transit loss, and a reply with unexpected framing (a reordered, stale
// message) is discarded and the request retransmitted — the server
// recognizes the redelivered handshake bytes and replays its reply.
util::Result<util::Bytes> HandshakeRoundtrip(sim::Link* link, uint32_t type,
                                             const util::Bytes& payload) {
  const util::Bytes request = FrameMessage(type, payload);
  const sim::RetryPolicy& policy = link->retry_policy();
  uint32_t attempts = policy.max_transmissions == 0 ? 1 : policy.max_transmissions;
  util::Status last_error = util::Unavailable("no valid handshake reply");
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      link->clock()->Advance(policy.initial_rto_ns, obs::TimeCategory::kWait);
    }
    auto raw = link->Roundtrip(request);
    if (!raw.ok()) {
      return raw.status();
    }
    auto reply = Unframe(type, raw.value());
    if (reply.ok()) {
      return reply;
    }
    last_error = reply.status();
  }
  return last_error;
}

}  // namespace

SfsClient::SfsClient(sim::Clock* clock, const sim::CostModel* costs, Dialer dialer,
                     Options options)
    : clock_(clock),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::Registry::Default()),
      costs_(costs),
      dialer_(std::move(dialer)),
      options_(options),
      prng_(options.prng_seed),
      ephemeral_key_(crypto::RabinPrivateKey::Generate(&prng_, options.ephemeral_key_bits)) {}

SfsClient::~SfsClient() {
  for (auto& [name, mount] : mounts_) {
    if (mount->server_ != nullptr) {
      mount->server_->UnregisterCacheCallback(mount->connection_id_);
    }
  }
}

void SfsClient::RotateEphemeralKey() {
  ephemeral_key_ = crypto::RabinPrivateKey::Generate(&prng_, options_.ephemeral_key_bits);
}

util::Status SfsClient::SubmitRevocation(const PathRevokeCert& cert) {
  RETURN_IF_ERROR(cert.Verify());
  if (!cert.is_revocation()) {
    return util::InvalidArgument("forwarding pointer is not a revocation");
  }
  SelfCertifyingPath revoked = cert.RevokedPath();
  revocations_[util::StringOf(revoked.host_id)] = cert;
  // Tear down any existing mount of the revoked path.
  auto it = mounts_.find(revoked.FullPath());
  if (it != mounts_.end()) {
    if (it->second->server_ != nullptr) {
      it->second->server_->UnregisterCacheCallback(it->second->connection_id_);
    }
    mounts_.erase(it);
  }
  return util::OkStatus();
}

bool SfsClient::IsRevoked(const SelfCertifyingPath& path) const {
  return revocations_.count(util::StringOf(path.host_id)) != 0;
}

util::Result<SfsClient::MountPoint*> SfsClient::Mount(const SelfCertifyingPath& path) {
  if (IsRevoked(path)) {
    return util::SecurityError("HostID has been revoked: " + path.ComponentName());
  }
  auto existing = mounts_.find(path.FullPath());
  if (existing != mounts_.end()) {
    return existing->second.get();
  }

  SfsServer* server = dialer_(path.location);
  if (server == nullptr) {
    return util::Unavailable("cannot reach host: " + path.location);
  }

  auto mount = std::make_unique<MountPoint>();
  mount->client_ = this;
  mount->path_ = path;
  mount->server_ = server;
  SfsServer::Accepted accepted = server->CreateConnection();
  mount->connection_ = std::move(accepted.connection);
  mount->connection_id_ = accepted.connection_id;
  mount->link_ = std::make_unique<sim::Link>(clock_, options_.profile,
                                             mount->connection_.get(), registry_);
  if (interposer_ != nullptr) {
    mount->link_->set_interposer(interposer_);
  }
  mount->tracer_ = &registry_->tracer();
  mount->spans_ = &registry_->spans();
  mount->m_unmatched_replies_ = registry_->GetCounter("rpc.client.unmatched_replies");
  mount->m_window_occupancy_sum_ = registry_->GetCounter("rpc.client.window_occupancy_sum");
  mount->m_window_samples_ = registry_->GetCounter("rpc.client.window_samples");
  mount->g_in_flight_ = registry_->GetGauge("rpc.client.in_flight");
  mount->m_queue_wait_ = registry_->GetHistogram("rpc.client.queue_wait_ns");
  mount->window_ = std::clamp(options_.window, 1u, rpc::kMaxSendWindow);
  mount->nfs_metrics_.Init(registry_, "rpc.client.NFS3");
  mount->ctl_metrics_.Init(registry_, "rpc.client.SFSCTL");

  // --- Step 1-2: connect; obtain and certify the server's public key. ---
  xdr::Encoder hello;
  hello.PutUint32(static_cast<uint32_t>(ServiceType::kFileServer));
  hello.PutString(path.location);
  hello.PutOpaque(path.host_id);
  hello.PutString("");  // Extensions.
  ASSIGN_OR_RETURN(util::Bytes hello_reply,
                   HandshakeRoundtrip(mount->link_.get(), kMsgConnect, hello.Take()));
  xdr::Decoder hello_dec(hello_reply);
  ASSIGN_OR_RETURN(uint32_t connect_result, hello_dec.GetUint32());
  if (connect_result == kConnectRevoked) {
    ASSIGN_OR_RETURN(util::Bytes cert_bytes, hello_dec.GetOpaque());
    ASSIGN_OR_RETURN(PathRevokeCert cert, PathRevokeCert::Deserialize(cert_bytes));
    // Only honor the certificate if it verifies *and* actually names this
    // HostID; otherwise it is an attack and we just fail the mount.
    if (cert.Verify().ok() && cert.is_revocation() &&
        cert.RevokedPath().host_id == path.host_id) {
      revocations_[util::StringOf(path.host_id)] = cert;
      return util::SecurityError("server presented a valid revocation certificate");
    }
    return util::SecurityError("server presented an invalid revocation certificate");
  }
  if (connect_result != kConnectOk) {
    return util::NotFound("server does not serve " + path.ComponentName());
  }
  ASSIGN_OR_RETURN(util::Bytes server_key_bytes, hello_dec.GetOpaque());
  ASSIGN_OR_RETURN(crypto::RabinPublicKey server_key,
                   crypto::RabinPublicKey::Deserialize(server_key_bytes));
  if (!path.Certifies(server_key)) {
    return util::SecurityError("server public key does not match HostID (impostor?)");
  }
  ASSIGN_OR_RETURN(uint32_t dialect, hello_dec.GetUint32());

  if (dialect == kDialectReadOnly) {
    // Dialect hand-off: this HostID is a signed, public, read-only file
    // system.  No key negotiation — ReadOnlyClient::Connect verifies the
    // offline signature against the same HostID.
    MountPoint* mp = mount.get();
    mp->ro_client_ = std::make_unique<readonly::ReadOnlyClient>(
        mp->link_.get(), path, readonly::kDefaultVerifiedCacheCap, registry_);
    RETURN_IF_ERROR(mp->ro_client_->Connect());
    mp->root_fh_ = mp->ro_client_->root_fh();
    nfs::CacheOptions cache_options;
    cache_options.use_leases = true;  // Content-addressed data: cache hard.
    cache_options.registry = registry_;
    mp->cache_ =
        std::make_unique<nfs::CachingFs>(mp->ro_client_.get(), clock_, cache_options);
    ++mounts_created_;
    auto [it, inserted] = mounts_.emplace(path.FullPath(), std::move(mount));
    (void)inserted;
    return it->second.get();
  }
  if (dialect != kDialectReadWrite) {
    return util::InvalidArgument("server speaks an unknown dialect");
  }

  // --- Step 3-4: key negotiation (Figure 3). ---
  clock_->Advance(costs_->pk_encrypt_ns * 2, obs::TimeCategory::kCrypto);
  ClientNegotiation negotiation;
  negotiation.ephemeral_key = ephemeral_key_;
  negotiation.kc1 = prng_.RandomBytes(20);
  negotiation.kc2 = prng_.RandomBytes(20);
  ASSIGN_OR_RETURN(negotiation.enc_kc1, server_key.Encrypt(negotiation.kc1, &prng_));
  ASSIGN_OR_RETURN(negotiation.enc_kc2, server_key.Encrypt(negotiation.kc2, &prng_));

  xdr::Encoder neg;
  neg.PutOpaque(ephemeral_key_.public_key().Serialize());
  neg.PutOpaque(negotiation.enc_kc1);
  neg.PutOpaque(negotiation.enc_kc2);
  neg.PutBool(!options_.encrypt);
  ASSIGN_OR_RETURN(util::Bytes neg_reply,
                   HandshakeRoundtrip(mount->link_.get(), kMsgNegotiate, neg.Take()));
  xdr::Decoder neg_dec(neg_reply);
  ASSIGN_OR_RETURN(bool cleartext, neg_dec.GetBool());
  ASSIGN_OR_RETURN(util::Bytes enc_ks1, neg_dec.GetOpaque());
  ASSIGN_OR_RETURN(util::Bytes enc_ks2, neg_dec.GetOpaque());
  clock_->Advance(costs_->pk_decrypt_ns * 2, obs::TimeCategory::kCrypto);
  ASSIGN_OR_RETURN(SessionKeys keys, negotiation.Finish(server_key, enc_ks1, enc_ks2));

  mount->cleartext_ = cleartext;
  if (!cleartext) {
    mount->cipher_out_ = std::make_unique<ChannelCipher>(keys.kcs);
    mount->cipher_in_ = std::make_unique<ChannelCipher>(keys.ksc);
  } else if (options_.encrypt) {
    return util::SecurityError("server refused to encrypt the channel");
  }
  mount->session_id_ = keys.SessionId();

  // --- Fetch the root handle and build the client stack. ---
  MountPoint* mp = mount.get();
  xdr::Encoder empty;
  ASSIGN_OR_RETURN(util::Bytes root_reply, mp->Call(kSfsCtlProgram, kCtlGetRoot, empty.Take()));
  xdr::Decoder root_dec(root_reply);
  ASSIGN_OR_RETURN(mp->root_fh_, root_dec.GetOpaque());

  mp->nfs_client_ = std::make_unique<nfs::NfsClient>(
      [mp](uint32_t proc, const util::Bytes& args) {
        return mp->Call(nfs::kNfsProgram, proc, args);
      },
      // SFS dialect: requests carry the session's authno for the calling
      // user; anonymous users get authno 0.
      [mp](xdr::Encoder* enc, const nfs::Credentials& cred) {
        enc->PutUint32(mp->AuthnoFor(cred.uid));
      });

  nfs::CacheOptions cache_options;
  cache_options.use_leases = options_.enhanced_caching;
  cache_options.attr_timeout_ns = options_.attr_timeout_ns;
  cache_options.registry = registry_;
  if (options_.write_behind) {
    cache_options.write_behind = true;
    cache_options.close_to_open = true;
  }
  if (mp->window_ > 1) {
    // Pipelined channel: overlap sequential read misses with read-ahead.
    mp->nfs_client_->set_async_call(
        [mp](uint32_t proc, const util::Bytes& args, nfs::AsyncReplyFn done) {
          mp->CallAsync(nfs::kNfsProgram, proc, args, std::move(done));
        });
    cache_options.read_ahead_chunks = 2;
  }
  mp->cache_ = std::make_unique<nfs::CachingFs>(mp->nfs_client_.get(), clock_, cache_options);
  if (mp->window_ > 1) {
    mp->cache_->set_async_ops(mp->nfs_client_.get());
  }

  if (options_.enhanced_caching) {
    nfs::CachingFs* cache = mp->cache_.get();
    server->RegisterCacheCallback(mp->connection_id_,
                                  [cache](const nfs::FileHandle& fh) {
                                    cache->InvalidateHandle(fh);
                                  });
  }

  ++mounts_created_;
  auto [it, inserted] = mounts_.emplace(path.FullPath(), std::move(mount));
  (void)inserted;
  return it->second.get();
}

util::Result<util::Bytes> SfsClient::MountPoint::Call(uint32_t prog, uint32_t proc,
                                                      const util::Bytes& args) {
  std::optional<util::Result<util::Bytes>> out;
  CallAsync(prog, proc, args,
            [&out](util::Result<util::Bytes> result) { out = std::move(result); });
  while (!out.has_value()) {
    PumpOnce();
  }
  return std::move(*out);
}

void SfsClient::MountPoint::EmitChannelEvent(obs::TraceEvent::Kind kind,
                                             const PendingChannelCall& call,
                                             uint64_t wire_bytes, const std::string& note) {
  if (!tracer_->active()) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.layer = "sfs.chan";
  event.prog = call.prog;
  event.proc = call.proc;
  event.proc_name = call.proc_name;
  event.xid = call.xid;
  event.seqno = call.wire_seqno;
  event.wire_bytes = wire_bytes;
  event.t_send_ns = call.t_call_ns;
  event.t_recv_ns = client_->clock_->now_ns();
  event.attempt = call.attempt;
  event.note = note;
  tracer_->Emit(event);
}

void SfsClient::MountPoint::CountUnmatched(uint32_t seqno, uint64_t wire_bytes,
                                           const std::string& note) {
  ++unmatched_replies_;
  m_unmatched_replies_->Increment();
  if (!tracer_->active()) {
    return;
  }
  obs::TraceEvent event;
  event.kind = obs::TraceEvent::Kind::kClientStaleReply;
  event.layer = "sfs.chan";
  event.seqno = seqno;
  event.wire_bytes = wire_bytes;
  event.t_send_ns = client_->clock_->now_ns();
  event.t_recv_ns = client_->clock_->now_ns();
  event.note = note;
  tracer_->Emit(event);
}

void SfsClient::MountPoint::Transmit(PendingChannelCall* call) {
  call->pm->bytes_sent->Increment(call->wire.size());
  // Ambient across Submit so the link's leg spans and the server's
  // handler (run under the submitter's context) parent under this call
  // (Push(0) no-ops).
  spans_->Push(call->span_id);
  const uint64_t token = link_->Submit(call->wire);
  spans_->Pop(call->span_id);
  token_to_seqno_[token] = call->wire_seqno;
  call->deadline_ns = client_->clock_->now_ns() + call->rto_ns;
}

void SfsClient::MountPoint::CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args,
                                      std::function<void(util::Result<util::Bytes>)> done) {
  sim::Clock* clock = client_->clock_;
  if (pending_.size() >= window_) {
    const uint64_t wait_start = clock->now_ns();
    while (pending_.size() >= window_) {
      PumpOnce();
    }
    m_queue_wait_->Record(clock->now_ns() - wait_start);
  } else {
    m_queue_wait_->Record(0);
  }

  uint32_t xid = next_xid_++;
  const bool is_nfs = prog == nfs::kNfsProgram;
  const std::string proc_name =
      is_nfs ? nfs::ProcName(proc)
             : (prog == kSfsCtlProgram ? CtlProcName(proc) : std::to_string(proc));

  // Channel call span, parented to the ambient span at submission and
  // ended when the in-order opener completes the call.  It covers seal,
  // transit, server work, open, and any retransmission waits.
  uint64_t span_id = 0;
  if (spans_->enabled()) {
    span_id = spans_->Begin("sfs.call." + proc_name, "sfs.chan");
  }

  xdr::Encoder call_enc;
  call_enc.PutUint32(xid);
  call_enc.PutUint32(prog);
  call_enc.PutUint32(proc);
  call_enc.PutOpaque(args);
  if (obs::Span* s = spans_->Find(span_id)) {
    // The trace context travels *inside* the sealed body (the server
    // parents its dispatch span after opening); only the wire seqno is
    // cleartext (docs/PROTOCOL.md §10).
    call_enc.PutUint64(s->trace_id);
    call_enc.PutUint64(s->id);
    s->xid = xid;
  }
  util::Bytes rpc_message = call_enc.Take();

  PendingChannelCall call;
  call.xid = xid;
  call.prog = prog;
  call.proc = proc;
  call.span_id = span_id;
  call.proc_name = proc_name;
  call.pm = is_nfs ? nfs_metrics_.Get(proc, call.proc_name)
                   : ctl_metrics_.Get(proc, call.proc_name);
  call.pm->calls->Increment();
  call.t_call_ns = clock->now_ns();
  call.done = std::move(done);

  // User-level client daemon: two kernel crossings, then seal — exactly
  // once.  Timer retransmissions resend these identical bytes, so the
  // send keystream advances once per request no matter how many copies
  // the network loses, and the wire seqno outside the sealed body lets
  // the server's DRC match duplicates without opening them.
  client_->costs_->ChargeCrossing(client_->clock_, 2);
  util::Bytes sealed;
  if (cleartext_) {
    client_->costs_->ChargeCopy(client_->clock_, rpc_message.size());
    sealed = rpc_message;
  } else {
    const uint64_t seal_start_ns = clock->now_ns();
    sealed = cipher_out_->Seal(rpc_message);
    client_->costs_->ChargeCrypto(client_->clock_, sealed.size());
    obs::Span* s = spans_->Find(span_id);
    RecordCryptoSpan(spans_, "sfs.seal", seal_start_ns, clock->now_ns(), sealed.size(),
                     s != nullptr ? s->context() : obs::SpanContext{});
  }
  call.wire_seqno = next_wire_seqno_++;
  xdr::Encoder frame;
  frame.PutUint32(call.wire_seqno);
  frame.PutOpaque(sealed);
  call.wire = FrameMessage(kMsgEncrypted, frame.Take());
  call.rto_ns = link_->retry_policy().initial_rto_ns;
  if (obs::Span* s = spans_->Find(span_id)) {
    s->seqno = call.wire_seqno;
    s->wire_bytes = call.wire.size();
  }

  auto [it, inserted] = pending_.emplace(call.wire_seqno, std::move(call));
  (void)inserted;
  g_in_flight_->Add(1);
  EmitChannelEvent(obs::TraceEvent::Kind::kClientCall, it->second, it->second.wire.size(), "");
  Transmit(&it->second);
  m_window_occupancy_sum_->Increment(pending_.size());
  m_window_samples_->Increment();
}

void SfsClient::MountPoint::Drain() {
  while (!pending_.empty()) {
    PumpOnce();
  }
}

void SfsClient::MountPoint::PumpOnce() {
  if (pending_.empty()) {
    return;
  }
  uint64_t deadline = UINT64_MAX;
  for (const auto& [seqno, call] : pending_) {
    deadline = std::min(deadline, call.deadline_ns);
  }
  auto delivery = link_->AwaitNext(deadline);
  if (delivery.has_value()) {
    OnChannelDelivery(std::move(*delivery));
    return;
  }

  const uint64_t now = client_->clock_->now_ns();
  std::vector<uint32_t> expired;
  for (const auto& [seqno, call] : pending_) {
    if (call.deadline_ns <= now) {
      expired.push_back(seqno);
    }
  }
  for (uint32_t seqno : expired) {
    auto it = pending_.find(seqno);
    if (it != pending_.end()) {
      OnDeadline(&it->second);
    }
  }
}

void SfsClient::MountPoint::OnDeadline(PendingChannelCall* call) {
  for (const auto& [token, seqno] : token_to_seqno_) {
    if (seqno == call->wire_seqno && link_->InProgress(token)) {
      // Slow, not lost: a copy is still in progress.
      call->deadline_ns = client_->clock_->now_ns() + call->rto_ns;
      return;
    }
  }
  const sim::RetryPolicy& policy = link_->retry_policy();
  const uint32_t attempts = policy.max_transmissions == 0 ? 1 : policy.max_transmissions;
  if (call->attempt + 1 >= attempts) {
    // A reply that kept failing its MAC is a security verdict, not
    // silence: persistent tampering surfaces as such.
    CompleteChannelCall(
        call->wire_seqno,
        !call->open_error.ok()
            ? call->open_error
            : util::Unavailable("channel retry budget exhausted waiting for reply"));
    return;
  }
  ++call->attempt;
  call->rto_ns = std::min(call->rto_ns * policy.backoff_factor, policy.max_rto_ns);
  link_->NoteRetransmission();
  call->pm->retransmits->Increment();
  if (obs::Span* s = spans_->Find(call->span_id)) {
    ++s->retransmits;
  }
  EmitChannelEvent(obs::TraceEvent::Kind::kClientRetransmit, *call, call->wire.size(),
                   "retransmission timer expired");
  Transmit(call);
}

void SfsClient::MountPoint::OnChannelDelivery(sim::Delivery delivery) {
  uint32_t token_seqno = 0;
  auto tok = token_to_seqno_.find(delivery.token);
  if (tok != token_to_seqno_.end()) {
    token_seqno = tok->second;
    token_to_seqno_.erase(tok);
  }
  if (!delivery.status.ok()) {
    // A verdict from the connection itself (dead channel, malformed
    // message): retrying the same bytes cannot help the call whose copy
    // provoked it.
    if (pending_.count(token_seqno) != 0) {
      CompleteChannelCall(token_seqno, delivery.status);
    }
    return;
  }
  auto frame_payload = Unframe(kMsgEncrypted, delivery.response);
  if (!frame_payload.ok()) {
    CountUnmatched(token_seqno, delivery.response.size(), frame_payload.status().message());
    return;
  }
  xdr::Decoder frame_dec(frame_payload.value());
  auto echo_seqno = frame_dec.GetUint32();
  auto sealed = frame_dec.GetOpaque();
  if (!echo_seqno.ok() || !sealed.ok() || !frame_dec.AtEnd()) {
    CountUnmatched(token_seqno, delivery.response.size(), "malformed encrypted reply frame");
    return;
  }
  const uint32_t seqno = echo_seqno.value();
  if (seqno < next_open_seqno_ || pending_.count(seqno) == 0) {
    // A duplicate of an already-opened reply, or a seqno we never sent.
    CountUnmatched(seqno, delivery.response.size(), "no outstanding call for seqno");
    return;
  }
  // Stash the sealed body and open as far as the in-order cursor allows.
  // A duplicate overwrites with identical bytes (the server's DRC
  // replays the frame verbatim), so the overwrite is harmless.
  reorder_[seqno] = std::move(sealed).value();
  TryOpenInOrder();
}

void SfsClient::MountPoint::TryOpenInOrder() {
  while (true) {
    auto stash = reorder_.find(next_open_seqno_);
    if (stash == reorder_.end()) {
      return;
    }
    util::Bytes sealed = std::move(stash->second);
    reorder_.erase(stash);
    auto it = pending_.find(next_open_seqno_);
    if (it == pending_.end()) {
      // The call gave up (retry budget) before its reply arrived; the
      // keystream position cannot be recovered.
      CountUnmatched(next_open_seqno_, sealed.size(), "reply for abandoned call");
      return;
    }
    PendingChannelCall& call = it->second;

    util::Bytes reply;
    if (cleartext_) {
      client_->costs_->ChargeCopy(client_->clock_, sealed.size());
      reply = std::move(sealed);
    } else {
      const uint64_t open_start_ns = client_->clock_->now_ns();
      client_->costs_->ChargeCrypto(client_->clock_, sealed.size());
      if (obs::Span* s = spans_->Find(call.span_id)) {
        RecordCryptoSpan(spans_, "sfs.open", open_start_ns, client_->clock_->now_ns(),
                         sealed.size(), s->context());
      }
      auto opened = cipher_in_->Open(sealed);
      if (!opened.ok()) {
        // Tampered or corrupt at the expected keystream position.  Open
        // left the stream untouched; the call's timer resends, and the
        // server's DRC replays the genuine sealed bytes for this seqno.
        call.open_error = opened.status();
        CountUnmatched(next_open_seqno_, sealed.size(), opened.status().message());
        return;
      }
      reply = std::move(opened).value();
    }
    ++next_open_seqno_;

    xdr::Decoder dec(reply);
    auto reply_xid = dec.GetUint32();
    if (!reply_xid.ok() || reply_xid.value() != call.xid) {
      // The MAC (or, in cleartext mode, nothing) vouched for this reply,
      // yet it names the wrong call: a server bug, not a network one.
      CompleteChannelCall(call.wire_seqno,
                          util::SecurityError("channel reply xid does not match call"));
      continue;
    }
    auto status_word = dec.GetUint32();
    if (!status_word.ok()) {
      CompleteChannelCall(call.wire_seqno, util::InvalidArgument("truncated RPC reply"));
      continue;
    }
    if (status_word.value() == 0) {
      auto results = dec.GetOpaque();
      if (results.ok()) {
        EmitChannelEvent(obs::TraceEvent::Kind::kClientReply, call, results->size(), "");
      }
      CompleteChannelCall(call.wire_seqno, std::move(results));
      continue;
    }
    auto code = dec.GetUint32();
    auto message = dec.GetString();
    uint32_t code_value =
        code.ok() ? code.value() : static_cast<uint32_t>(util::ErrorCode::kInternal);
    if (code_value == 0 || code_value > static_cast<uint32_t>(util::ErrorCode::kInternal)) {
      code_value = static_cast<uint32_t>(util::ErrorCode::kInternal);
    }
    CompleteChannelCall(call.wire_seqno,
                        util::Status(static_cast<util::ErrorCode>(code_value),
                                     message.ok() ? message.value() : std::string()));
  }
}

void SfsClient::MountPoint::CompleteChannelCall(uint32_t wire_seqno,
                                                util::Result<util::Bytes> result) {
  auto it = pending_.find(wire_seqno);
  if (it == pending_.end()) {
    return;
  }
  PendingChannelCall call = std::move(it->second);
  pending_.erase(it);
  g_in_flight_->Add(-1);
  for (auto tok = token_to_seqno_.begin(); tok != token_to_seqno_.end();) {
    tok = tok->second == wire_seqno ? token_to_seqno_.erase(tok) : std::next(tok);
  }
  if (!result.ok()) {
    call.pm->errors->Increment();
  } else {
    call.pm->bytes_received->Increment(result->size());
  }
  // The call's per-category split is its sfs.call.<proc> span's cat_ns;
  // a registry counter diffed across overlapping calls would double-
  // count shared time.
  call.pm->latency->Record(client_->clock_->now_ns() - call.t_call_ns);
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

util::Status SfsClient::MountPoint::Authenticate(uint32_t uid, const AuthSigner& signer) {
  if (read_only()) {
    // Public file system: everyone is anonymous, nothing to prove.
    authnos_[uid] = kAnonymousAuthno;
    return util::OkStatus();
  }
  util::Bytes auth_info = MakeAuthInfo(path_, session_id_);
  uint32_t seqno = next_seqno_++;
  std::optional<util::Bytes> auth_msg = signer(auth_info, seqno);
  if (!auth_msg.has_value()) {
    // Agent declined: anonymous access (paper §2.5).
    authnos_[uid] = kAnonymousAuthno;
    return util::OkStatus();
  }
  client_->clock_->Advance(client_->costs_->pk_sign_ns,
                           obs::TimeCategory::kCrypto);  // Agent signed the request.

  xdr::Encoder args;
  args.PutUint32(seqno);
  args.PutOpaque(*auth_msg);
  auto reply = Call(kSfsCtlProgram, kCtlLogin, args.Take());
  if (!reply.ok()) {
    authnos_[uid] = kAnonymousAuthno;
    SFS_LOG(kInfo) << "login failed for uid " << uid << ": " << reply.status().ToString();
    return reply.status();
  }
  xdr::Decoder dec(std::move(reply).value());
  ASSIGN_OR_RETURN(uint32_t authno, dec.GetUint32());
  authnos_[uid] = authno;
  return util::OkStatus();
}

uint32_t SfsClient::MountPoint::AuthnoFor(uint32_t uid) const {
  auto it = authnos_.find(uid);
  return it == authnos_.end() ? kAnonymousAuthno : it->second;
}

std::optional<std::string> SfsClient::MountPoint::RemoteUserName(uint32_t uid) {
  xdr::Encoder args;
  args.PutUint32(uid);
  auto reply = Call(kSfsCtlProgram, kCtlIdToName, args.Take());
  if (!reply.ok()) {
    return std::nullopt;
  }
  xdr::Decoder dec(std::move(reply).value());
  auto found = dec.GetBool();
  if (!found.ok() || !found.value()) {
    return std::nullopt;
  }
  auto name = dec.GetString();
  if (!name.ok()) {
    return std::nullopt;
  }
  return std::move(name).value();
}

std::optional<uint32_t> SfsClient::MountPoint::RemoteUid(const std::string& name) {
  xdr::Encoder args;
  args.PutString(name);
  auto reply = Call(kSfsCtlProgram, kCtlNameToId, args.Take());
  if (!reply.ok()) {
    return std::nullopt;
  }
  xdr::Decoder dec(std::move(reply).value());
  auto found = dec.GetBool();
  if (!found.ok() || !found.value()) {
    return std::nullopt;
  }
  auto uid = dec.GetUint32();
  if (!uid.ok()) {
    return std::nullopt;
  }
  return uid.value();
}

}  // namespace sfs
