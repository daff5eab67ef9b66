// The SFS secure channel as an RPC transport (paper §3.1.3, Figure 2:
// program -> kernel -> sfscd -> secure channel -> sfssd).
//
// A mount's NFS3 and SFSCTL calls go through one rpc::Client, exactly as
// plain NFS does; ChannelTransport sits between that client and the
// mount's sim::Link and turns each RPC call into one kMsgEncrypted frame:
//
//   call (rpc::Client):  xid, seqno, prog, proc, args [, trace context]
//   frame (on the wire): kMsgEncrypted, {seqno, Seal(xid, prog, proc,
//                        args [, trace context])}
//
// The seqno stays in cleartext so the server's duplicate-request cache
// can match a retransmission without opening it.  Sealing happens once
// per seqno: a retransmitted call resends the cached frame, so the send
// keystream advances once per request however many copies the network
// loses.  Replies echo the seqno; because the receive keystream is
// positional, they open strictly in seqno order, and out-of-order
// arrivals wait in a reorder buffer until the gap fills (the gap's call
// retransmits and the server's cache replays the original sealed reply).
//
// What the channel refuses never reaches the RPC layer as a reply: a
// stale or unknown seqno, a malformed frame, or a reply that fails its
// MAC is handed up as a rejected sim::Delivery, which the client counts
// and waits past.  A reply that opens but names the wrong xid is a
// server fault, and fails only the call it answers with kSecurityError.
#ifndef SFS_SRC_SFS_CHANNEL_H_
#define SFS_SRC_SFS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/obs/span.h"
#include "src/rpc/rpc.h"
#include "src/sfs/session.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace sfs {

// The channel's span and trace-event names at both ends: the client's
// "sfs.call.<PROC>" and the server's "sfs.dispatch.<PROC>" and
// "sfs.drc_hit", with trace events in layer "sfs.chan".
inline constexpr rpc::Naming kChannelNaming{"sfs.chan", "sfs."};

// Frames one connection message: {type, opaque payload}.
util::Bytes FrameMessage(uint32_t type, const util::Bytes& payload);

// Unframes a message, checking its type (kSecurityError otherwise).
util::Result<util::Bytes> Unframe(uint32_t expected_type, const util::Bytes& message);

// Records one already-elapsed all-kCrypto interval (a seal or an open)
// in `layer`, as a child of `parent`.
void RecordCryptoSpan(obs::SpanCollector* spans, const char* name, const char* layer,
                      uint64_t start_ns, uint64_t end_ns, uint64_t bytes,
                      obs::SpanContext parent);

class ChannelTransport : public rpc::Transport {
 public:
  // `costs` charges the client daemon's kernel crossings and crypto to
  // the link's clock; `spans` receives the sfs.seal/sfs.open spans.
  ChannelTransport(sim::Link* link, const sim::CostModel* costs, obs::SpanCollector* spans);

  // Keys the channel once negotiation has finished: `seal` for requests,
  // `open` for replies.  A channel never keyed runs in cleartext (the
  // benchmark-only "no encryption" negotiation), charging copies.
  void set_ciphers(std::unique_ptr<ChannelCipher> seal, std::unique_ptr<ChannelCipher> open);

  uint64_t Submit(util::Bytes request) override;
  std::optional<sim::Delivery> AwaitNext(uint64_t deadline_ns) override;
  bool InProgress(uint64_t token) const override { return link_->InProgress(token); }
  void NoteRetransmission() override { link_->NoteRetransmission(); }
  void SetDeliverySink(std::function<void(sim::Delivery)> sink) override;
  sim::Clock* clock() override { return link_->clock(); }
  const sim::RetryPolicy& retry_policy() const override { return link_->retry_policy(); }
  rpc::Naming naming() const override { return kChannelNaming; }

 private:
  // A call sealed once: its frame, resent verbatim on retransmission.
  struct Sent {
    uint32_t xid = 0;
    obs::SpanContext ctx;  // The call's span, parent of sfs.seal/sfs.open.
    util::Bytes frame;
  };
  // A sealed reply waiting for its turn to open.
  struct Stashed {
    uint64_t token = 0;
    util::Bytes sealed;
  };

  // Charges the crossings, seals `request` minus its seqno word, and
  // caches the frame under `seqno`.
  std::map<uint32_t, Sent>::iterator Seal(uint32_t seqno, util::Bytes request);
  // Unframes one link delivery and opens whatever its arrival unblocks.
  void OnLinkDelivery(sim::Delivery delivery);
  // Opens stashed replies in seqno order from next_open_seqno_.
  void OpenInOrder();
  void Reject(uint64_t token, util::Status why, util::Bytes response);
  // Passes a delivery up: to the sink in event-driven mode, else queued
  // for AwaitNext.
  void HandUp(sim::Delivery delivery);

  sim::Link* link_;
  const sim::CostModel* costs_;
  obs::SpanCollector* spans_;
  std::unique_ptr<ChannelCipher> seal_;
  std::unique_ptr<ChannelCipher> open_;
  std::map<uint32_t, Sent> sent_;         // By seqno, until the reply opens.
  std::map<uint32_t, Stashed> reorder_;   // By seqno, awaiting the cursor.
  uint32_t next_open_seqno_ = 1;
  std::vector<sim::Delivery> ready_;  // Opened in order, not yet awaited.
  std::function<void(sim::Delivery)> sink_;
};

}  // namespace sfs

#endif  // SFS_SRC_SFS_CHANNEL_H_
