#include "src/sfs/client.h"

#include "src/sfs/idmap.h"
#include "src/util/log.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

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
  mount->channel_ =
      std::make_unique<ChannelTransport>(mount->link_.get(), costs_, &registry_->spans());
  mount->rpc_ = std::make_unique<rpc::Client>(
      mount->channel_.get(), nfs::kNfsProgram, registry_, "NFS3",
      [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
  mount->rpc_->RegisterProgram(kSfsCtlProgram, "SFSCTL",
                               [](uint32_t proc) { return std::string(CtlProcName(proc)); });
  mount->rpc_->set_window(options_.window);

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

  if (!cleartext) {
    mount->channel_->set_ciphers(std::make_unique<ChannelCipher>(keys.kcs),
                                 std::make_unique<ChannelCipher>(keys.ksc));
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
  if (mp->window() > 1) {
    // Pipelined channel: overlap sequential read misses with read-ahead.
    mp->nfs_client_->set_async_call(
        [mp](uint32_t proc, const util::Bytes& args, nfs::AsyncReplyFn done) {
          mp->CallAsync(nfs::kNfsProgram, proc, args, std::move(done));
        });
    cache_options.read_ahead_chunks = 2;
  }
  mp->cache_ = std::make_unique<nfs::CachingFs>(mp->nfs_client_.get(), clock_, cache_options);
  if (mp->window() > 1) {
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
