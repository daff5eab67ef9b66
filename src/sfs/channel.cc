#include "src/sfs/channel.h"

#include "src/sfs/proto.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

// Big-endian XDR word at `offset`.
uint32_t WordAt(const util::Bytes& bytes, size_t offset) {
  return static_cast<uint32_t>(bytes[offset]) << 24 |
         static_cast<uint32_t>(bytes[offset + 1]) << 16 |
         static_cast<uint32_t>(bytes[offset + 2]) << 8 | bytes[offset + 3];
}

}  // namespace

util::Bytes FrameMessage(uint32_t type, const util::Bytes& payload) {
  xdr::Encoder enc;
  enc.PutUint32(type);
  enc.PutOpaque(payload);
  return enc.Take();
}

util::Result<util::Bytes> Unframe(uint32_t expected_type, const util::Bytes& message) {
  xdr::Decoder dec(message);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes payload, dec.GetOpaque());
  if (type != expected_type || !dec.AtEnd()) {
    return util::SecurityError("unexpected reply framing");
  }
  return payload;
}

void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, const char* layer,
                      uint64_t start_ns, uint64_t end_ns, uint64_t bytes,
                      obs::SpanContext parent) {
  if (spans == nullptr || !spans->enabled() || end_ns == start_ns) {
    return;
  }
  obs::Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.cat_ns[static_cast<size_t>(obs::TimeCategory::kCrypto)] = end_ns - start_ns;
  span.wire_bytes = bytes;
  spans->RecordClosed(std::move(span), parent);
}

ChannelTransport::ChannelTransport(sim::Link* link, const sim::CostModel* costs,
                                   obs::SpanCollector* spans)
    : link_(link), costs_(costs), spans_(spans) {}

void ChannelTransport::set_ciphers(std::unique_ptr<ChannelCipher> seal,
                                   std::unique_ptr<ChannelCipher> open) {
  seal_ = std::move(seal);
  open_ = std::move(open);
}

uint64_t ChannelTransport::Submit(util::Bytes request) {
  // rpc::Client's call header opens with xid, seqno.
  const uint32_t seqno = WordAt(request, 4);
  auto sent = sent_.find(seqno);
  if (sent == sent_.end()) {
    sent = Seal(seqno, std::move(request));
  }
  return link_->Submit(sent->second.frame);
}

std::map<uint32_t, ChannelTransport::Sent>::iterator ChannelTransport::Seal(
    uint32_t seqno, util::Bytes request) {
  sim::Clock* clock = link_->clock();
  Sent sent;
  sent.xid = WordAt(request, 0);
  // rpc::Client submits with the call span ambient.
  if (spans_->enabled()) {
    sent.ctx = spans_->current();
  }
  // The seqno rides outside the seal; the rest of the call is plaintext.
  request.erase(request.begin() + 4, request.begin() + 8);

  // User-level client daemon: two kernel crossings, then seal.
  costs_->ChargeCrossing(clock, 2);
  util::Bytes sealed;
  if (seal_ == nullptr) {
    costs_->ChargeCopy(clock, request.size());
    sealed = std::move(request);
  } else {
    const uint64_t seal_start_ns = clock->now_ns();
    sealed = seal_->Seal(request);
    costs_->ChargeCrypto(clock, sealed.size());
    RecordCryptoSpan(spans_, "sfs.seal", "sfs.chan", seal_start_ns, clock->now_ns(),
                     sealed.size(), sent.ctx);
  }
  xdr::Encoder frame;
  frame.PutUint32(seqno);
  frame.PutOpaque(sealed);
  sent.frame = FrameMessage(kMsgEncrypted, frame.Take());
  // The call span's wire size is what goes on the wire: the frame.
  if (obs::Span* s = spans_->Find(sent.ctx.span_id)) {
    s->wire_bytes = sent.frame.size();
  }

  // The client never retransmits a seqno this far behind its newest
  // (rpc::Client holds new calls at kDrcWindow/2), so only a call that
  // gave up can leave an entry here.
  while (!sent_.empty() && sent_.begin()->first + rpc::kDrcWindow <= seqno) {
    sent_.erase(sent_.begin());
  }
  return sent_.emplace(seqno, std::move(sent)).first;
}

void ChannelTransport::SetDeliverySink(std::function<void(sim::Delivery)> sink) {
  sink_ = std::move(sink);
  link_->set_delivery_sink(
      [this](sim::Delivery delivery) { OnLinkDelivery(std::move(delivery)); });
}

std::optional<sim::Delivery> ChannelTransport::AwaitNext(uint64_t deadline_ns) {
  while (ready_.empty()) {
    auto delivery = link_->AwaitNext(deadline_ns);
    if (!delivery.has_value()) {
      return std::nullopt;
    }
    OnLinkDelivery(std::move(*delivery));
  }
  sim::Delivery next = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return next;
}

void ChannelTransport::HandUp(sim::Delivery delivery) {
  if (sink_) {
    sink_(std::move(delivery));
  } else {
    ready_.push_back(std::move(delivery));
  }
}

void ChannelTransport::Reject(uint64_t token, util::Status why, util::Bytes response) {
  sim::Delivery delivery;
  delivery.token = token;
  delivery.status = std::move(why);
  delivery.response = std::move(response);
  delivery.rejected = true;
  HandUp(std::move(delivery));
}

void ChannelTransport::OnLinkDelivery(sim::Delivery delivery) {
  if (!delivery.status.ok()) {
    // A verdict from the connection itself (dead channel, malformed
    // message): it ends the call whose copy provoked it.
    HandUp(std::move(delivery));
    return;
  }
  // Rejections before the cursor are not attributed to any call (token
  // 0): a stale frame says nothing about the call whose copy carried it.
  auto payload = Unframe(kMsgEncrypted, delivery.response);
  if (!payload.ok()) {
    Reject(0, payload.status(), std::move(delivery.response));
    return;
  }
  xdr::Decoder frame(std::move(payload).value());
  auto seqno = frame.GetUint32();
  auto sealed = frame.GetOpaque();
  if (!seqno.ok() || !sealed.ok() || !frame.AtEnd()) {
    Reject(0, util::SecurityError("malformed encrypted reply frame"),
           std::move(delivery.response));
    return;
  }
  if (seqno.value() < next_open_seqno_ || sent_.count(seqno.value()) == 0) {
    // A duplicate of an already-opened reply, or a seqno never sent.
    Reject(0, util::SecurityError("no outstanding call for seqno"),
           std::move(delivery.response));
    return;
  }
  // A duplicate overwrites with identical bytes (the server's DRC
  // replays the frame verbatim), so the overwrite is harmless.
  reorder_[seqno.value()] = Stashed{delivery.token, std::move(sealed).value()};
  OpenInOrder();
}

void ChannelTransport::OpenInOrder() {
  sim::Clock* clock = link_->clock();
  for (auto stash = reorder_.find(next_open_seqno_); stash != reorder_.end();
       stash = reorder_.find(next_open_seqno_)) {
    Stashed stashed = std::move(stash->second);
    reorder_.erase(stash);
    auto sent = sent_.find(next_open_seqno_);
    if (sent == sent_.end()) {
      // Its call gave up long ago and the frame cache moved on; the
      // keystream position cannot be recovered.
      Reject(0, util::SecurityError("reply for abandoned call"), std::move(stashed.sealed));
      return;
    }

    util::Bytes reply;
    if (open_ == nullptr) {
      costs_->ChargeCopy(clock, stashed.sealed.size());
      reply = std::move(stashed.sealed);
    } else {
      const uint64_t open_start_ns = clock->now_ns();
      costs_->ChargeCrypto(clock, stashed.sealed.size());
      RecordCryptoSpan(spans_, "sfs.open", "sfs.chan", open_start_ns, clock->now_ns(),
                       stashed.sealed.size(), sent->second.ctx);
      auto opened = open_->Open(stashed.sealed);
      if (!opened.ok()) {
        // Tampered or corrupt at the expected keystream position.  Open
        // left the stream untouched; the call's timer resends, and the
        // server's DRC replays the genuine sealed bytes for this seqno.
        Reject(stashed.token, opened.status(), std::move(stashed.sealed));
        return;
      }
      reply = std::move(opened).value();
    }
    ++next_open_seqno_;
    const uint32_t xid = sent->second.xid;
    sent_.erase(sent);

    sim::Delivery delivery;
    delivery.token = stashed.token;
    if (reply.size() < 4 || WordAt(reply, 0) != xid) {
      // The MAC (or, in cleartext mode, nothing) vouched for this reply,
      // yet it names another call: a server fault, not a network one.
      // Only the call it answers fails; the xid never reaches the client,
      // which would match it to the wrong call.
      delivery.status = util::SecurityError("channel reply xid does not match call");
    } else {
      delivery.response = std::move(reply);
    }
    HandUp(std::move(delivery));
  }
}

}  // namespace sfs
