// The SFS client daemon: sfscd + the read-write protocol client.
//
// Given nothing but a self-certifying pathname, Mount():
//   1. dials the Location (the Dialer is this simulation's DNS+TCP),
//   2. asks the server for its public key and *verifies it against the
//      HostID* — the certification step that replaces key management,
//   3. runs the Figure 3 key negotiation with a short-lived client key
//      (forward secrecy),
//   4. fetches the encrypted root file handle and stacks the lease-based
//      attribute/access/name/data caches over the secure channel.
//
// Mounts are shared: two users naming the same self-certifying path reach
// the same cache ("they are asking for a server with the same public
// key"), while different HostIDs for the same Location never alias — the
// cache-sharing property AFS cannot offer (§5.1).
//
// Per-user authentication (Figure 4) goes through an agent-supplied
// signer, keeping the file system ignorant of user-authentication
// protocols.
#ifndef SFS_SRC_SFS_CLIENT_H_
#define SFS_SRC_SFS_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/crypto/prng.h"
#include "src/nfs/cache.h"
#include "src/nfs/client.h"
#include "src/readonly/readonly.h"
#include "src/rpc/rpc.h"
#include "src/sfs/pathname.h"
#include "src/sfs/revocation.h"
#include "src/sfs/server.h"
#include "src/sfs/session.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"

namespace sfs {

class SfsClient {
 public:
  struct Options {
    bool enhanced_caching = true;  // Leases + callbacks; false = plain timeouts.
    bool encrypt = true;           // Channel crypto (ablations disable).
    size_t ephemeral_key_bits = 512;
    sim::LinkProfile profile = sim::LinkProfile::Tcp();
    uint64_t attr_timeout_ns = 5'000'000'000;
    uint64_t prng_seed = 2;
    // Sliding send window for channel RPCs: 1 (default) is stop-and-
    // wait, one call in flight; larger values pipeline up to `window`
    // concurrent calls over the secure channel (clamped to
    // rpc::kMaxSendWindow) and enable read-ahead in the cache layer.
    uint32_t window = 1;
    // Write-behind commit pipeline + close-to-open consistency in the
    // cache layer: unstable writes buffer locally and drain as
    // WRITE(UNSTABLE) batches + one COMMIT at close (replayed if the
    // server's write verifier changed).  Off = write-through.
    bool write_behind = false;
    // Receives the link.* / rpc.client.* metrics and trace events for
    // every mount; nullptr selects obs::Registry::Default().
    obs::Registry* registry = nullptr;
  };

  // Resolves a Location to a server, or nullptr (host unreachable).
  using Dialer = std::function<SfsServer*(const std::string& location)>;

  // Signs an authentication request on behalf of a user; nullopt means
  // the agent declines (the user proceeds anonymously).
  using AuthSigner =
      std::function<std::optional<util::Bytes>(const util::Bytes& auth_info, uint32_t seqno)>;

  SfsClient(sim::Clock* clock, const sim::CostModel* costs, Dialer dialer, Options options);
  ~SfsClient();

  // One mounted remote file system.
  class MountPoint {
   public:
    const SelfCertifyingPath& path() const { return path_; }
    const nfs::FileHandle& root_fh() const { return root_fh_; }
    // The cached FileSystemApi the VFS operates on.
    nfs::FileSystemApi* fs() { return cache_.get(); }
    nfs::CachingFs* cache() { return cache_.get(); }
    nfs::NfsClient* raw_client() { return nfs_client_.get(); }
    const util::Bytes& session_id() const { return session_id_; }

    // Figure 4: authenticate `uid` via the agent's signer.  On signer
    // decline or server rejection the user falls back to anonymous.
    util::Status Authenticate(uint32_t uid, const AuthSigner& signer);
    uint32_t AuthnoFor(uint32_t uid) const;
    bool HasAuthState(uint32_t uid) const { return authnos_.count(uid) != 0; }

    // libsfs ID mapping (paper §3.3): query the server for its notion of
    // a numeric ID / user name.  nullopt when the server has no mapping.
    std::optional<std::string> RemoteUserName(uint32_t uid);
    std::optional<uint32_t> RemoteUid(const std::string& name);

    // Timer-driven resends are counted by link()->retransmissions().
    sim::Link* link() { return link_.get(); }

    // True for mounts served by the read-only dialect (verified signed
    // images; no secure channel, no user authentication).
    bool read_only() const { return ro_client_ != nullptr; }

    // --- Channel calls ---------------------------------------------------
    // Starts a channel call without waiting for its reply.  If the send
    // window is full, blocks (pumping deliveries) until a slot frees;
    // the wait lands in the rpc.client.queue_wait_ns histogram.  `done`
    // runs when the matching reply opens, inside a later Call/CallAsync/
    // Drain on this mount.
    void CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args,
                   std::function<void(util::Result<util::Bytes>)> done);
    // Completes every outstanding call.
    void Drain();
    uint32_t window() const { return window_; }
    uint64_t in_flight() const { return pending_.size(); }
    // Replies that matched no outstanding call or failed to open at
    // their keystream position (late duplicates, tampering); aggregated
    // in rpc.client.unmatched_replies.
    uint64_t unmatched_replies() const { return unmatched_replies_; }

   private:
    friend class SfsClient;
    SfsClient* client_ = nullptr;
    SelfCertifyingPath path_;
    nfs::FileHandle root_fh_;
    util::Bytes session_id_;
    std::unique_ptr<sim::Link> link_;
    std::unique_ptr<ChannelCipher> cipher_out_;  // Seals client->server.
    std::unique_ptr<ChannelCipher> cipher_in_;   // Opens server->client.
    bool cleartext_ = false;
    SfsServer* server_ = nullptr;
    uint64_t connection_id_ = 0;
    std::unique_ptr<sim::Service> connection_;
    std::unique_ptr<nfs::NfsClient> nfs_client_;
    std::unique_ptr<readonly::ReadOnlyClient> ro_client_;
    std::unique_ptr<nfs::CachingFs> cache_;
    std::map<uint32_t, uint32_t> authnos_;  // uid -> authno (0 = anonymous).
    uint32_t next_seqno_ = 1;
    uint32_t next_xid_ = 1;
    // Wire-level sequence number prefixed to each kMsgEncrypted frame;
    // keys the server connection's duplicate-request cache.
    uint32_t next_wire_seqno_ = 1;

    // Channel-call state.  The receive keystream is positional, so
    // sealed replies must open strictly in wire-seqno order: out-of-order
    // arrivals wait in `reorder_` until `next_open_seqno_` catches up (a
    // gap is filled by the owning call's retransmission timer — the
    // server's DRC replays the original sealed bytes for that seqno, at
    // the correct keystream position).
    struct PendingChannelCall {
      uint32_t xid = 0;
      uint32_t wire_seqno = 0;
      uint32_t prog = 0;
      uint32_t proc = 0;
      std::string proc_name;
      util::Bytes wire;  // Sealed once; retransmissions resend these bytes.
      uint64_t t_call_ns = 0;
      uint64_t deadline_ns = 0;
      uint64_t rto_ns = 0;
      uint32_t attempt = 0;
      // Why the last reply for this call failed to open (tampering looks
      // like a bad MAC); surfaced if the retry budget runs out.
      util::Status open_error = util::OkStatus();
      uint64_t span_id = 0;  // Open "sfs.call.<proc>" span; 0 = tracing off.
      obs::ProcMetrics* pm = nullptr;
      std::function<void(util::Result<util::Bytes>)> done;
    };
    uint32_t window_ = 1;
    uint64_t unmatched_replies_ = 0;
    std::map<uint32_t, PendingChannelCall> pending_;  // By wire seqno.
    std::map<uint64_t, uint32_t> token_to_seqno_;     // Submission tokens.
    std::map<uint32_t, util::Bytes> reorder_;  // Sealed bodies awaiting order.
    uint32_t next_open_seqno_ = 1;

    // Observability handles (owned by the client's registry).  The
    // per-procedure prefixes match the plain-RPC Client's, so NFS3 and
    // SFS stacks report under the same metric names.
    obs::Tracer* tracer_ = nullptr;
    obs::SpanCollector* spans_ = nullptr;
    obs::Counter* m_unmatched_replies_ = nullptr;
    obs::Counter* m_window_occupancy_sum_ = nullptr;
    obs::Counter* m_window_samples_ = nullptr;
    obs::Gauge* g_in_flight_ = nullptr;
    obs::Histogram* m_queue_wait_ = nullptr;
    obs::ProcMetricsTable nfs_metrics_;  // "rpc.client.NFS3"
    obs::ProcMetricsTable ctl_metrics_;  // "rpc.client.SFSCTL"

    // Sends one RPC through the secure channel, charging client-side
    // crossings and crypto: submits through CallAsync and pumps until
    // this call completes (earlier async calls' callbacks run along the
    // way).  Window 1 is the same engine with one call in flight.
    util::Result<util::Bytes> Call(uint32_t prog, uint32_t proc, const util::Bytes& args);
    // Sends (or resends) a pending call and arms its timer.
    void Transmit(PendingChannelCall* call);
    // Waits for the next delivery or the earliest retransmission
    // deadline; processes whichever fires (at most one event).
    void PumpOnce();
    // Retransmission deadline of `call` passed: re-arm it if a copy is
    // still in progress (sim::Link::InProgress), else resend or give up.
    void OnDeadline(PendingChannelCall* call);
    void OnChannelDelivery(sim::Delivery delivery);
    // Opens stashed sealed replies in seqno order from next_open_seqno_.
    void TryOpenInOrder();
    // Removes the call from the window and runs its callback.
    void CompleteChannelCall(uint32_t wire_seqno, util::Result<util::Bytes> result);
    void CountUnmatched(uint32_t seqno, uint64_t wire_bytes, const std::string& note);
    void EmitChannelEvent(obs::TraceEvent::Kind kind, const PendingChannelCall& call,
                          uint64_t wire_bytes, const std::string& note);
  };

  // Mounts (or returns the existing mount for) a self-certifying path.
  // Fails with kSecurityError if the server cannot prove possession of
  // the HostID's key, or if a valid revocation certificate is known.
  util::Result<MountPoint*> Mount(const SelfCertifyingPath& path);

  // Records a revocation certificate after verifying it; future (and
  // existing) mounts of that path are blocked.
  util::Status SubmitRevocation(const PathRevokeCert& cert);
  bool IsRevoked(const SelfCertifyingPath& path) const;

  // Test hook: adversary installed on all future mount links.
  void set_interposer(sim::Interposer* interposer) { interposer_ = interposer; }

  uint64_t mounts_created() const { return mounts_created_; }

  // Regenerates the short-lived client key (sfscd does this hourly).
  void RotateEphemeralKey();

  sim::Clock* clock() { return clock_; }
  obs::Registry* registry() { return registry_; }

 private:
  sim::Clock* clock_;
  obs::Registry* registry_;
  const sim::CostModel* costs_;
  Dialer dialer_;
  Options options_;
  crypto::Prng prng_;
  crypto::RabinPrivateKey ephemeral_key_;  // K_C, shared across mounts.
  std::map<std::string, std::unique_ptr<MountPoint>> mounts_;  // By full path.
  std::map<std::string, PathRevokeCert> revocations_;          // By HostID bytes.
  sim::Interposer* interposer_ = nullptr;
  uint64_t mounts_created_ = 0;
};

}  // namespace sfs

#endif  // SFS_SRC_SFS_CLIENT_H_
