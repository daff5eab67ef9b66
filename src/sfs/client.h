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
//
// After the handshake a mount is plain RPC over the secure channel: its
// NFS3 and SFSCTL calls go through one rpc::Client whose transport is a
// ChannelTransport (src/sfs/channel.h) over the mount's sim::Link — the
// same call engine, windows and retransmission timers as plain NFS.
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
#include "src/sfs/channel.h"
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
    // The mount's NFS3 and SFSCTL calls share one rpc::Client over the
    // secure channel (sfs::ChannelTransport): one window, one xid and
    // seqno stream.  These forward to it.
    //
    // Starts a channel call without waiting for its reply.  If the send
    // window is full, blocks (pumping deliveries) until a slot frees;
    // the wait lands in the rpc.client.queue_wait_ns histogram.  `done`
    // runs when the matching reply opens, inside a later Call/CallAsync/
    // Drain on this mount.
    void CallAsync(uint32_t prog, uint32_t proc, const util::Bytes& args,
                   std::function<void(util::Result<util::Bytes>)> done) {
      rpc_->CallAsync(prog, proc, args, std::move(done));
    }
    // Completes every outstanding call.
    void Drain() { rpc_->Drain(); }
    uint32_t window() const { return rpc_->window(); }
    uint64_t in_flight() const { return rpc_->in_flight(); }
    // Replies that matched no outstanding call or that the channel
    // refused (late duplicates, tampering); aggregated in
    // rpc.client.unmatched_replies.
    uint64_t unmatched_replies() const { return rpc_->unmatched_replies(); }

   private:
    friend class SfsClient;
    SfsClient* client_ = nullptr;
    SelfCertifyingPath path_;
    nfs::FileHandle root_fh_;
    util::Bytes session_id_;
    std::unique_ptr<sim::Link> link_;
    std::unique_ptr<ChannelTransport> channel_;
    std::unique_ptr<rpc::Client> rpc_;
    SfsServer* server_ = nullptr;
    uint64_t connection_id_ = 0;
    std::unique_ptr<sim::Service> connection_;
    std::unique_ptr<nfs::NfsClient> nfs_client_;
    std::unique_ptr<readonly::ReadOnlyClient> ro_client_;
    std::unique_ptr<nfs::CachingFs> cache_;
    std::map<uint32_t, uint32_t> authnos_;  // uid -> authno (0 = anonymous).
    uint32_t next_seqno_ = 1;  // Login sequence numbers (paper §3.1.2).

    // Sends one RPC through the secure channel and waits for its reply
    // (earlier async calls' callbacks run along the way).
    util::Result<util::Bytes> Call(uint32_t prog, uint32_t proc, const util::Bytes& args) {
      return rpc_->Call(prog, proc, args);
    }
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
