// Integration tests for the SFS core: self-certifying pathnames, key
// negotiation, the secure channel under an active adversary, user
// authentication, leases, revocation, and the SRP password service.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "src/auth/authserver.h"
#include "src/crypto/sha1.h"
#include "src/crypto/srp.h"
#include "src/obs/auditlog.h"
#include "src/rpc/rpc.h"
#include "src/sfs/channel.h"
#include "src/sfs/client.h"
#include "src/sfs/idmap.h"
#include "src/sfs/pathname.h"
#include "src/sfs/proto.h"
#include "src/sfs/revocation.h"
#include "src/sfs/server.h"
#include "src/sfs/session.h"
#include "src/xdr/xdr.h"
#include "tests/test_keys.h"

namespace {

using nfs::Credentials;
using nfs::Fattr;
using nfs::FileHandle;
using nfs::Stat;
using sfs::PathRevokeCert;
using sfs::SelfCertifyingPath;
using sfs::SfsClient;
using sfs::SfsServer;
using util::Bytes;
using util::BytesOf;

constexpr size_t kKeyBits = 512;

class SfsTest : public ::testing::Test {
 protected:
  SfsTest() {
    SfsServer::Options server_options;
    server_options.location = "sfs.lcs.mit.edu";
    server_options.key_bits = kKeyBits;
    server_options.allow_cleartext = true;
    server_ = std::make_unique<SfsServer>(&clock_, &costs_, server_options, &authserver_);

    client_ = MakeClient(/*window=*/1);

    // Register a user with the authserver.
    user_key_ = test_keys::CachedTestKey(77, kKeyBits);
    auth::PublicUserRecord record;
    record.name = "kaminsky";
    record.public_key = user_key_.public_key().Serialize();
    record.credentials = Credentials::User(1000, {1000});
    EXPECT_TRUE(authserver_.RegisterUser(record).ok());
  }

  // A client of this fixture's server with its own send window.
  std::unique_ptr<SfsClient> MakeClient(uint32_t window, bool encrypt = true) {
    SfsClient::Options client_options;
    client_options.ephemeral_key_bits = kKeyBits;
    client_options.window = window;
    client_options.encrypt = encrypt;
    return std::make_unique<SfsClient>(
        &clock_, &costs_,
        [this](const std::string& location) -> SfsServer* {
          if (location == "sfs.lcs.mit.edu") {
            return server_.get();
          }
          return nullptr;
        },
        client_options);
  }

  // An agent-style signer holding the registered user's private key.
  SfsClient::AuthSigner UserSigner() {
    return [this](const Bytes& auth_info, uint32_t seqno) -> std::optional<Bytes> {
      Bytes auth_id = sfs::MakeAuthId(auth_info);
      Bytes body = auth::MakeSignedAuthReqBody(auth_id, seqno);
      xdr::Encoder enc;
      enc.PutOpaque(user_key_.public_key().Serialize());
      enc.PutOpaque(user_key_.Sign(body));
      return enc.Take();
    };
  }

  static SfsClient::AuthSigner DecliningSigner() {
    return [](const Bytes&, uint32_t) { return std::nullopt; };
  }

  sim::Clock clock_;
  sim::CostModel costs_;
  auth::AuthServer authserver_;
  std::unique_ptr<SfsServer> server_;
  std::unique_ptr<SfsClient> client_;
  crypto::RabinPrivateKey user_key_;
};

TEST_F(SfsTest, PathnameFormatAndParse) {
  SelfCertifyingPath path = server_->Path();
  EXPECT_EQ(path.location, "sfs.lcs.mit.edu");
  EXPECT_EQ(path.host_id.size(), sfs::kHostIdSize);
  std::string component = path.ComponentName();
  auto parsed = SelfCertifyingPath::Parse(component);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == path);
  EXPECT_EQ(path.FullPath(), "/sfs/" + component);
  EXPECT_TRUE(path.Certifies(server_->public_key()));
}

TEST_F(SfsTest, PathnameParseRejectsMalformed) {
  EXPECT_FALSE(SelfCertifyingPath::Parse("nocolon").ok());
  EXPECT_FALSE(SelfCertifyingPath::Parse(":abc").ok());
  EXPECT_FALSE(SelfCertifyingPath::Parse("host:").ok());
  EXPECT_FALSE(SelfCertifyingPath::Parse("host:tooshort").ok());
  EXPECT_FALSE(SelfCertifyingPath::Parse("host:lllllllllllllllllllllllllllllll1").ok());
}

TEST_F(SfsTest, HostIdBindsLocationAndKey) {
  // Same key, different location -> different HostID; and vice versa.
  auto other_key = test_keys::CachedTestKey(5, kKeyBits);
  Bytes id1 = sfs::ComputeHostId("a.example.com", server_->public_key());
  Bytes id2 = sfs::ComputeHostId("b.example.com", server_->public_key());
  Bytes id3 = sfs::ComputeHostId("a.example.com", other_key.public_key());
  EXPECT_NE(id1, id2);
  EXPECT_NE(id1, id3);
}

TEST_F(SfsTest, MountAndReadWrite) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  ASSERT_TRUE((*mount)->Authenticate(1000, UserSigner()).ok());

  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "paper.txt", alice, {}, &fh, &attr),
            Stat::kOk);
  ASSERT_EQ((*mount)->fs()->Write(fh, alice, 0, BytesOf("self-certifying"), false, &attr),
            Stat::kOk);
  Bytes data;
  bool eof = false;
  ASSERT_EQ((*mount)->fs()->Read(fh, alice, 0, 100, &data, &eof), Stat::kOk);
  EXPECT_EQ(util::StringOf(data), "self-certifying");
}

TEST_F(SfsTest, MountIsSharedAcrossUsers) {
  auto m1 = client_->Mount(server_->Path());
  auto m2 = client_->Mount(server_->Path());
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1.value(), m2.value());  // Same cache, same connection.
  EXPECT_EQ(client_->mounts_created(), 1u);
}

TEST_F(SfsTest, MountFailsForWrongHostId) {
  // A path naming the right Location but a different key's HostID must
  // not mount, even though the server is reachable.
  auto other_key = test_keys::CachedTestKey(6, kKeyBits);
  SelfCertifyingPath bogus = SelfCertifyingPath::For("sfs.lcs.mit.edu", other_key.public_key());
  auto mount = client_->Mount(bogus);
  EXPECT_FALSE(mount.ok());
}

TEST_F(SfsTest, MountFailsForUnknownHost) {
  SelfCertifyingPath path = server_->Path();
  path.location = "unreachable.example.com";
  path.host_id = sfs::ComputeHostId(path.location, server_->public_key());
  auto mount = client_->Mount(path);
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kUnavailable);
}

TEST_F(SfsTest, AnonymousAccessIsRestricted) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  ASSERT_TRUE((*mount)->Authenticate(555, DecliningSigner()).ok());
  EXPECT_EQ((*mount)->AuthnoFor(555), sfs::kAnonymousAuthno);

  // The anonymous user cannot read a 0600 file created by alice.
  ASSERT_TRUE((*mount)->Authenticate(1000, UserSigner()).ok());
  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  nfs::Sattr sattr;
  sattr.mode = 0600;
  ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "private", alice, sattr, &fh, &attr),
            Stat::kOk);
  Credentials anon = Credentials::User(555);
  Bytes data;
  bool eof = false;
  EXPECT_EQ((*mount)->fs()->Read(fh, anon, 0, 10, &data, &eof), Stat::kAccess);
}

TEST_F(SfsTest, ServerMapsCredentialsFromAuthserverNotWire) {
  // Even though the FileSystemApi carries Credentials, the SFS server
  // derives permissions from the authno mapping.  A user authenticated as
  // uid 1000 claiming uid 0 in the API still acts as 1000.
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  ASSERT_TRUE((*mount)->Authenticate(1000, UserSigner()).ok());
  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  nfs::Sattr sattr;
  sattr.mode = 0600;
  ASSERT_EQ((*mount)->fs()->Create((*mount)->root_fh(), "victim", alice, sattr, &fh, &attr),
            Stat::kOk);
  // bob has no authno; he forges root credentials at the API layer.  His
  // requests go out with authno 0 (anonymous), so access is denied —
  // unlike the plain-NFS test in nfs_test.cc where the same forgery works.
  Credentials forged_root = Credentials::User(0);
  nfs::Sattr chown;
  chown.uid = 1001;
  EXPECT_NE((*mount)->fs()->SetAttr(fh, forged_root, chown, &attr), Stat::kOk);
}

TEST_F(SfsTest, LoginReplayIsRejected) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  // Sign once, then try to replay the same signed request with the same
  // seqno via a second login.  The server's window must reject it.
  Bytes captured_msg;
  uint32_t captured_seqno = 0;
  auto capturing_signer = [&](const Bytes& auth_info, uint32_t seqno) -> std::optional<Bytes> {
    Bytes auth_id = sfs::MakeAuthId(auth_info);
    Bytes body = auth::MakeSignedAuthReqBody(auth_id, seqno);
    xdr::Encoder enc;
    enc.PutOpaque(user_key_.public_key().Serialize());
    enc.PutOpaque(user_key_.Sign(body));
    captured_msg = enc.data();
    captured_seqno = seqno;
    return enc.Take();
  };
  ASSERT_TRUE((*mount)->Authenticate(1000, capturing_signer).ok());

  // Replay: same AuthMsg, same seqno.
  auto replayer = [&](const Bytes&, uint32_t) -> std::optional<Bytes> {
    return captured_msg;
  };
  // The mount's seqno counter has advanced, so the signed seqno inside no
  // longer matches the outer seqno... craft the replay at the RPC level
  // instead: a second Authenticate with a signer that returns the stale
  // message fails signature validation (seqno mismatch) or the window.
  util::Status status = (*mount)->Authenticate(1001, replayer);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ((*mount)->AuthnoFor(1001), sfs::kAnonymousAuthno);
}

TEST_F(SfsTest, SignatureFromUnknownKeyIsRejected) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  auto rogue = test_keys::CachedTestKey(9, kKeyBits);
  auto rogue_signer = [&](const Bytes& auth_info, uint32_t seqno) -> std::optional<Bytes> {
    Bytes body = auth::MakeSignedAuthReqBody(sfs::MakeAuthId(auth_info), seqno);
    xdr::Encoder enc;
    enc.PutOpaque(rogue.public_key().Serialize());
    enc.PutOpaque(rogue.Sign(body));
    return enc.Take();
  };
  EXPECT_FALSE((*mount)->Authenticate(42, rogue_signer).ok());
  EXPECT_EQ((*mount)->AuthnoFor(42), sfs::kAnonymousAuthno);
}

// --- Active adversary tests -------------------------------------------------

// Flips one bit in every message after the first N.
class TamperInterposer : public sim::Interposer {
 public:
  explicit TamperInterposer(int skip) : skip_(skip) {}
  util::Result<Bytes> OnRequest(Bytes request) override {
    if (count_++ >= skip_ && !request.empty()) {
      request[request.size() / 2] ^= 0x40;
    }
    return request;
  }

 private:
  int skip_;
  int count_ = 0;
};

class ResponseTamperInterposer : public sim::Interposer {
 public:
  explicit ResponseTamperInterposer(int skip) : skip_(skip) {}
  util::Result<Bytes> OnResponse(Bytes response) override {
    if (count_++ >= skip_ && !response.empty()) {
      response[response.size() / 3] ^= 0x01;
    }
    return response;
  }

 private:
  int skip_;
  int count_ = 0;
};

TEST_F(SfsTest, TamperedRequestsAreDetected) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  // Interpose after mount: every subsequent request is corrupted in
  // flight; the server must kill the session rather than act on it.
  TamperInterposer tamper(0);
  (*mount)->link()->set_interposer(&tamper);
  Fattr attr;
  Stat s = (*mount)->fs()->GetAttr((*mount)->root_fh(), &attr);
  EXPECT_EQ(s, Stat::kIo);
  EXPECT_EQ((*mount)->raw_client()->last_transport_error().code(),
            util::ErrorCode::kSecurityError);
}

TEST_F(SfsTest, TamperedResponsesAreDetected) {
  // Every reply fails its MAC at the expected keystream position; once
  // the retry budget runs out the call reports the forgery, not silence,
  // whether or not the channel pipelines.
  for (uint32_t window : {1u, 4u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    std::unique_ptr<SfsClient> client = MakeClient(window);
    const uint64_t unmatched_before =
        client->registry()->CounterValue("rpc.client.unmatched_replies");
    auto mount = client->Mount(server_->Path());
    ASSERT_TRUE(mount.ok());
    ResponseTamperInterposer tamper(0);
    (*mount)->link()->set_interposer(&tamper);
    Fattr attr;
    Stat s = (*mount)->fs()->GetAttr((*mount)->root_fh(), &attr);
    EXPECT_EQ(s, Stat::kIo);
    EXPECT_EQ((*mount)->raw_client()->last_transport_error().code(),
              util::ErrorCode::kSecurityError);
    EXPECT_GT(client->registry()->CounterValue("rpc.client.unmatched_replies"),
              unmatched_before);
  }
}

// Rewrites the xid inside one cleartext channel reply to the next call's
// xid: a reply that opens cleanly at its seqno yet names another call.
class ReplyXidSwapInterposer : public sim::Interposer {
 public:
  explicit ReplyXidSwapInterposer(uint32_t seqno) : seqno_(seqno) {}
  util::Result<Bytes> OnResponse(Bytes response) override {
    xdr::Decoder frame(response);
    auto type = frame.GetUint32();
    auto payload = frame.GetOpaque();
    if (!type.ok() || type.value() != sfs::kMsgEncrypted || !payload.ok()) {
      return response;
    }
    xdr::Decoder inner(payload.value());
    auto seqno = inner.GetUint32();
    auto body = inner.GetOpaque();
    if (!seqno.ok() || seqno.value() != seqno_ || !body.ok() || body->size() < 4) {
      return response;
    }
    xdr::Decoder xid_dec(body.value());
    const uint32_t xid = xid_dec.GetUint32().value();
    xdr::Encoder swapped_xid;
    swapped_xid.PutUint32(xid + 1);
    Bytes swapped = body.value();
    std::copy(swapped_xid.data().begin(), swapped_xid.data().end(), swapped.begin());
    xdr::Encoder rebuilt_inner;
    rebuilt_inner.PutUint32(seqno.value());
    rebuilt_inner.PutOpaque(swapped);
    xdr::Encoder rebuilt;
    rebuilt.PutUint32(sfs::kMsgEncrypted);
    rebuilt.PutOpaque(rebuilt_inner.Take());
    ++swaps_;
    return rebuilt.Take();
  }
  int swaps() const { return swaps_; }

 private:
  uint32_t seqno_;
  int swaps_ = 0;
};

TEST_F(SfsTest, ChannelReplyNamingAnotherCallFailsOnlyThatCall) {
  // Cleartext channel (no MAC), so the rewritten reply opens at its
  // seqno.  Four ID-mapping calls are in flight at once; the second
  // one's reply claims the third call's xid.
  std::unique_ptr<SfsClient> client = MakeClient(/*window=*/4, /*encrypt=*/false);
  auto mount = client->Mount(server_->Path());
  ASSERT_TRUE(mount.ok()) << mount.status().ToString();
  // The mount's GETROOT used seqno 1; the async calls take 2..5.
  ReplyXidSwapInterposer swapper(/*seqno=*/3);
  (*mount)->link()->set_interposer(&swapper);

  std::vector<std::optional<util::Result<Bytes>>> results(4);
  for (size_t i = 0; i < results.size(); ++i) {
    xdr::Encoder args;
    args.PutUint32(1000);
    (*mount)->CallAsync(sfs::kSfsCtlProgram, sfs::kCtlIdToName, args.Take(),
                        [&results, i](util::Result<Bytes> result) {
                          results[i] = std::move(result);
                        });
  }
  EXPECT_EQ((*mount)->in_flight(), 4u);
  (*mount)->Drain();
  EXPECT_EQ((*mount)->in_flight(), 0u);
  EXPECT_EQ(swapper.swaps(), 1);

  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    ASSERT_TRUE(results[i].has_value());
    if (i == 1) {
      ASSERT_FALSE(results[i]->ok());
      EXPECT_EQ(results[i]->status().code(), util::ErrorCode::kSecurityError);
      continue;
    }
    ASSERT_TRUE(results[i]->ok()) << results[i]->status().ToString();
    xdr::Decoder dec(results[i]->value());
    EXPECT_TRUE(dec.GetBool().value());
    EXPECT_EQ(dec.GetString().value(), "kaminsky");
  }
  // The channel stays usable: the next call opens at the next position.
  EXPECT_EQ((*mount)->RemoteUserName(1000), std::optional<std::string>("kaminsky"));
}

// --- Wire-bytes pin -----------------------------------------------------------

// Forwards every message unchanged and hashes it, with its direction and
// length, in the order the link carries it.
class WireDigestInterposer : public sim::Interposer {
 public:
  util::Result<Bytes> OnRequest(Bytes request) override {
    Absorb('>', request);
    max_outstanding_ = std::max(max_outstanding_, ++outstanding_);
    return request;
  }
  util::Result<Bytes> OnResponse(Bytes response) override {
    Absorb('<', response);
    --outstanding_;
    return response;
  }
  std::string HexDigest() { return util::HexEncode(sha_.Digest()); }
  size_t messages() const { return messages_; }
  // Most requests on the wire or at the server at once.
  int max_outstanding() const { return max_outstanding_; }

 private:
  void Absorb(uint8_t direction, const Bytes& message) {
    const uint32_t n = static_cast<uint32_t>(message.size());
    const uint8_t header[5] = {direction, static_cast<uint8_t>(n >> 24),
                               static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 8),
                               static_cast<uint8_t>(n)};
    sha_.Update(header, sizeof header);
    sha_.Update(message);
    ++messages_;
  }

  crypto::Sha1 sha_;
  size_t messages_ = 0;
  int outstanding_ = 0;
  int max_outstanding_ = 0;
};

// SHA-1 of `text`, hex-encoded.
std::string HexSha1(const std::string& text) {
  return util::HexEncode(crypto::Sha1Digest(text));
}

// What one pinned session leaves behind, each as a SHA-1 digest.
struct PinnedSession {
  size_t messages = 0;
  int max_outstanding = 0;
  std::string wire;    // Every request and response byte, in link order.
  std::string server;  // The server.* lines of the registry dump, sorted.
  std::string spans;   // Name, layer, xid, seqno, wire_bytes, drc_hit,
                       // error and start/end ns of every finished span.
  std::string audit;   // The finalized audit-log bytes.
};

// A fresh server and client on a private registry, then one clean
// scripted session over a pass-through interposer: mount, login, create,
// write, read, remove.  With `spans`, span collection runs throughout,
// so calls also carry their trace context on the wire.
PinnedSession RunPinnedSession(uint32_t window, bool spans) {
  sim::Clock clock;
  sim::CostModel costs;
  obs::Registry registry;
  if (spans) {
    registry.spans().Enable([&clock] { return clock.now_ns(); },
                            [&clock](uint64_t out[obs::kTimeCategoryCount]) {
                              for (size_t i = 0; i < obs::kTimeCategoryCount; ++i) {
                                out[i] = clock.categories().ns[i];
                              }
                            });
  }
  auth::AuthServer authserver;
  const crypto::RabinPrivateKey& user_key = test_keys::CachedTestKey(77, kKeyBits);
  auth::PublicUserRecord record;
  record.name = "kaminsky";
  record.public_key = user_key.public_key().Serialize();
  record.credentials = Credentials::User(1000, {1000});
  EXPECT_TRUE(authserver.RegisterUser(record).ok());

  SfsServer::Options server_options;
  server_options.location = "sfs.lcs.mit.edu";
  server_options.key_bits = kKeyBits;
  server_options.registry = &registry;
  SfsServer server(&clock, &costs, server_options, &authserver);
  SfsClient::Options client_options;
  client_options.ephemeral_key_bits = kKeyBits;
  client_options.window = window;
  client_options.registry = &registry;
  SfsClient client(&clock, &costs, [&server](const std::string&) { return &server; },
                   client_options);
  WireDigestInterposer digest;
  client.set_interposer(&digest);

  PinnedSession out;
  auto mount = client.Mount(server.Path());
  EXPECT_TRUE(mount.ok()) << mount.status().ToString();
  if (!mount.ok()) {
    return out;
  }
  SfsClient::MountPoint* mp = mount.value();
  EXPECT_TRUE(mp->Authenticate(1000, [&user_key](const Bytes& auth_info,
                                                 uint32_t seqno) -> std::optional<Bytes> {
                  Bytes body = auth::MakeSignedAuthReqBody(sfs::MakeAuthId(auth_info), seqno);
                  xdr::Encoder enc;
                  enc.PutOpaque(user_key.public_key().Serialize());
                  enc.PutOpaque(user_key.Sign(body));
                  return enc.Take();
                })
                  .ok());
  const Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  EXPECT_EQ(mp->fs()->Create(mp->root_fh(), "pinned.txt", alice, {}, &fh, &attr), Stat::kOk);
  Bytes content(40000);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 7);
  }
  EXPECT_EQ(mp->fs()->Write(fh, alice, 0, content, /*stable=*/true, &attr), Stat::kOk);
  // Sequential 8 KB reads from a cold cache: at window > 1 the cache
  // layer reads ahead, so several sealed calls are in flight at once.
  mp->cache()->InvalidateAll();
  EXPECT_EQ(mp->fs()->GetAttr(fh, &attr), Stat::kOk);
  Bytes data;
  bool eof = false;
  while (!eof && data.size() < content.size()) {
    Bytes chunk;
    EXPECT_EQ(mp->fs()->Read(fh, alice, data.size(), 8192, &chunk, &eof), Stat::kOk);
    if (chunk.empty()) {
      break;
    }
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(data, content);
  EXPECT_EQ(mp->fs()->Remove(mp->root_fh(), "pinned.txt", alice), Stat::kOk);
  mp->Drain();
  server.auditor()->Finalize();

  out.messages = digest.messages();
  out.max_outstanding = digest.max_outstanding();
  out.wire = digest.HexDigest();
  std::string dump;
  std::istringstream json(registry.SnapshotJson());
  for (std::string line; std::getline(json, line);) {
    if (line.find("\"server.") != std::string::npos) {
      dump += line + "\n";
    }
  }
  out.server = HexSha1(dump);
  std::ostringstream span_list;
  for (const obs::Span& span : registry.spans().finished()) {
    span_list << span.name << '|' << span.layer << '|' << span.xid << '|' << span.seqno << '|'
              << span.wire_bytes << '|' << span.drc_hit << '|' << span.error << '|'
              << span.start_ns << '|' << span.end_ns << '\n';
  }
  out.spans = HexSha1(span_list.str());
  out.audit = util::HexEncode(crypto::Sha1Digest(server.auditor()->log().bytes()));
  return out;
}

// Refactoring oracle for both call engines: a clean session must put
// exactly these bytes on the wire, in this order, and leave exactly
// these server metrics, spans and audit log.  Any change in framing,
// sealing, xids, seqnos or call order breaks the wire digests; any
// change in server dispatch accounting breaks the others.  Only a
// deliberate wire-format or accounting change may update them.
TEST(ChannelWireTest, MountSessionBytesPinned) {
  struct Pinned {
    uint32_t window;
    bool spans;
    size_t messages;
    const char* wire;
    const char* server;
    const char* spans_digest;  // nullptr: spans off, nothing to pin.
    const char* audit;
  };
  const Pinned kPinned[] = {
      {1, false, 26, "c8a88ebb62d4633e55b2c56897d4e8b50edf0807",
       "2f897648bf7fd963f7963ea2708b5683bb0c07a7", nullptr,
       "b8ac9b2b570e9d8a7ad045bc37598484a773cf1d"},
      {4, false, 30, "c655338a94ffeec6be3794df91001dd7856381a2",
       "1ffca5e00ffe21606b7ca573ea182712a8b97f15", nullptr,
       "4c6e6813ed902943017b25c6cbe901acc9341cda"},
      {4, true, 30, "0c14b1437c8f3b0741f08e0eaa7b0c9ce6d12232",
       "b17ed3085ad774f11325864f0b5c1a8e5237e39b", "ca1470cce16ac92dd1217d2954d9fa0f7217c219",
       "7a1b7bef9496a719c056240604c394ede0ccd63a"},
  };
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("window " + std::to_string(pinned.window) +
                 (pinned.spans ? ", spans on" : ", spans off"));
    const PinnedSession session = RunPinnedSession(pinned.window, pinned.spans);
    EXPECT_EQ(session.messages, pinned.messages);
    EXPECT_EQ(session.wire, pinned.wire);
    EXPECT_EQ(session.server, pinned.server);
    if (pinned.spans_digest != nullptr) {
      EXPECT_EQ(session.spans, pinned.spans_digest);
    }
    EXPECT_EQ(session.audit, pinned.audit);
    // At window 4 the read-ahead calls were genuinely in flight together.
    EXPECT_EQ(session.max_outstanding > 1, pinned.window > 1) << session.max_outstanding;
  }
}

// Substitutes a different public key during the connect reply — the
// man-in-the-middle a self-certifying pathname must defeat.
class KeySubstitutionInterposer : public sim::Interposer {
 public:
  explicit KeySubstitutionInterposer(const crypto::RabinPublicKey& attacker_key)
      : attacker_key_bytes_(attacker_key.Serialize()) {}
  util::Result<Bytes> OnResponse(Bytes response) override {
    if (first_) {
      first_ = false;
      // Rebuild the connect reply with the attacker's key.
      xdr::Encoder reply;
      reply.PutUint32(sfs::kConnectOk);
      reply.PutOpaque(attacker_key_bytes_);
      xdr::Encoder framed;
      framed.PutUint32(sfs::kMsgConnect);
      framed.PutOpaque(reply.Take());
      return framed.Take();
    }
    return response;
  }

 private:
  Bytes attacker_key_bytes_;
  bool first_ = true;
};

TEST_F(SfsTest, ManInTheMiddleKeySubstitutionFailsCertification) {
  auto attacker_key = test_keys::CachedTestKey(10, kKeyBits);
  KeySubstitutionInterposer mitm(attacker_key.public_key());
  client_->set_interposer(&mitm);
  auto mount = client_->Mount(server_->Path());
  ASSERT_FALSE(mount.ok());
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kSecurityError);
}

// Records the first encrypted request and replays it later.
class ReplayInterposer : public sim::Interposer {
 public:
  util::Result<Bytes> OnRequest(Bytes request) override {
    xdr::Decoder dec(request);
    auto type = dec.GetUint32();
    if (type.ok() && type.value() == sfs::kMsgEncrypted) {
      if (!have_recorded_) {
        recorded_ = request;
        have_recorded_ = true;
      } else if (replay_now_) {
        replay_now_ = false;
        return recorded_;  // Substitute the old message.
      }
    }
    return request;
  }
  void ReplayNext() { replay_now_ = true; }

 private:
  Bytes recorded_;
  bool have_recorded_ = false;
  bool replay_now_ = false;
};

TEST_F(SfsTest, ReplayedChannelMessagesAreDeduplicatedNotReexecuted) {
  // Let the anonymous user create files so a non-idempotent op is
  // available without going through login.
  Fattr attr;
  nfs::Sattr chmod;
  chmod.mode = 0777;
  ASSERT_EQ(server_->fs()->SetAttr(server_->fs()->root_handle(), Credentials::User(0), chmod,
                                   &attr),
            Stat::kOk);

  const uint64_t unmatched_before =
      client_->registry()->CounterValue("rpc.client.unmatched_replies");
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  ReplayInterposer replayer;
  (*mount)->link()->set_interposer(&replayer);
  ASSERT_EQ((*mount)->fs()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);  // Recorded.
  replayer.ReplayNext();
  uint64_t creates_before = server_->fs()->creates_applied();
  const uint64_t drc_hits_before = server_->registry()->CounterValue("server.drc_hits");
  // The attacker substitutes the recorded earlier request for this one.
  // The server recognizes the old wire seqno and replays its cached
  // reply without re-executing anything or advancing either keystream;
  // the client discards that stale reply (it echoes a seqno no call is
  // waiting for), its retransmission timer resends the CREATE, and the
  // genuine CREATE then executes — exactly once.
  nfs::FileHandle fh;
  Stat s = (*mount)->fs()->Create((*mount)->root_fh(), "replayed-create",
                                  Credentials::User(0), nfs::Sattr{}, &fh, &attr);
  EXPECT_EQ(s, Stat::kOk);
  EXPECT_GT(server_->registry()->CounterValue("server.drc_hits"), drc_hits_before);
  EXPECT_GT(client_->registry()->CounterValue("rpc.client.unmatched_replies"),
            unmatched_before);
  EXPECT_GT((*mount)->link()->retransmissions(), 0u);
  EXPECT_EQ(server_->fs()->creates_applied(), creates_before + 1);
}

// --- One dispatch step under both transports ---------------------------------

// A program no dispatcher registered: both dispatch paths answer an error
// reply without running any handler, and the connection stays usable.
constexpr uint32_t kUnregisteredProgram = 0x40000123;

TEST_F(SfsTest, UnregisteredProgramGetsErrorReplyOnBothDispatchPaths) {
  {
    SCOPED_TRACE("plain rpc::Dispatcher");
    sim::Clock clock;
    obs::Registry registry;
    rpc::Dispatcher dispatcher(&registry, &clock);
    int executions = 0;
    dispatcher.RegisterProgram(9, [&executions](uint32_t, const Bytes& args) {
      ++executions;
      return util::Result<Bytes>(args);
    });
    sim::Link link(&clock, sim::LinkProfile::Local(), &dispatcher, &registry);
    rpc::LinkTransport transport(&link);
    rpc::Client client(&transport, 9, &registry);
    auto refused = client.Call(kUnregisteredProgram, 1, BytesOf("x"));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(executions, 0);
    EXPECT_EQ(registry.CounterValue("server.PROG9.1.calls"), 0u);
    auto served = client.Call(1, BytesOf("y"));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value(), BytesOf("y"));
    EXPECT_EQ(executions, 1);
  }
  {
    SCOPED_TRACE("SFS channel");
    auto mount = client_->Mount(server_->Path());
    ASSERT_TRUE(mount.ok()) << mount.status().ToString();
    obs::Registry* registry = server_->registry();
    const uint64_t nfs_calls = registry->CounterValue("server.NFS3.GETATTR.calls");
    const uint64_t ctl_calls = registry->CounterValue("server.SFSCTL.IDTONAME.calls");
    std::optional<util::Result<Bytes>> refused;
    (*mount)->CallAsync(kUnregisteredProgram, 7, BytesOf("x"),
                        [&refused](util::Result<Bytes> result) { refused = std::move(result); });
    (*mount)->Drain();
    ASSERT_TRUE(refused.has_value());
    ASSERT_FALSE(refused->ok());
    EXPECT_EQ(refused->status().code(), util::ErrorCode::kNotFound);
    // Neither of the connection's programs ran.
    EXPECT_EQ(registry->CounterValue("server.NFS3.GETATTR.calls"), nfs_calls);
    EXPECT_EQ(registry->CounterValue("server.SFSCTL.IDTONAME.calls"), ctl_calls);
    // The session survives: the next call opens at the next position.
    EXPECT_EQ((*mount)->RemoteUserName(1000), std::optional<std::string>("kaminsky"));

    // The journal still records the refused call, as kOther.
    ASSERT_NE(server_->auditor(), nullptr);
    server_->auditor()->Finalize();
    obs::AuditVerifyResult verified = obs::VerifyAuditLog(
        server_->auditor()->genesis_key(), server_->auditor()->log().bytes());
    ASSERT_TRUE(verified.ok) << verified.detail;
    int others = 0;
    for (const obs::AuditRecordInfo& info : verified.records) {
      if (info.record.kind == static_cast<uint32_t>(obs::AuditKind::kOther)) {
        ++others;
        EXPECT_EQ(info.record.proc, 7u);
        EXPECT_EQ(info.record.verdict, static_cast<uint32_t>(util::ErrorCode::kNotFound));
        EXPECT_NE(info.record.wire_seqno, 0u);
      }
    }
    EXPECT_EQ(others, 1);
  }
}

// One server connection keyed by hand (Figure 3's connect and negotiate),
// so a test can seal any plaintext under the session's real keys.
class HandKeyedChannel {
 public:
  HandKeyedChannel(SfsServer* server, crypto::Prng* prng)
      : connection_(server->CreateConnection().connection) {
    const SelfCertifyingPath path = server->Path();
    xdr::Encoder hello;
    hello.PutUint32(static_cast<uint32_t>(sfs::ServiceType::kFileServer));
    hello.PutString(path.location);
    hello.PutOpaque(path.host_id);
    hello.PutString("");
    auto hello_reply = Exchange(sfs::kMsgConnect, hello.Take());
    xdr::Decoder hello_dec(hello_reply);
    EXPECT_EQ(hello_dec.GetUint32().value(), static_cast<uint32_t>(sfs::kConnectOk));
    auto server_key = crypto::RabinPublicKey::Deserialize(hello_dec.GetOpaque().value());
    EXPECT_TRUE(server_key.ok());

    auto negotiation = sfs::ClientNegotiation::Start(server_key.value(), prng, kKeyBits);
    EXPECT_TRUE(negotiation.ok());
    xdr::Encoder neg;
    neg.PutOpaque(negotiation->ephemeral_key.public_key().Serialize());
    neg.PutOpaque(negotiation->enc_kc1);
    neg.PutOpaque(negotiation->enc_kc2);
    neg.PutBool(false);  // Encrypted.
    auto neg_reply = Exchange(sfs::kMsgNegotiate, neg.Take());
    xdr::Decoder neg_dec(neg_reply);
    EXPECT_FALSE(neg_dec.GetBool().value());
    Bytes enc_ks1 = neg_dec.GetOpaque().value();
    Bytes enc_ks2 = neg_dec.GetOpaque().value();
    auto keys = negotiation->Finish(server_key.value(), enc_ks1, enc_ks2);
    EXPECT_TRUE(keys.ok());
    seal_ = std::make_unique<sfs::ChannelCipher>(keys->kcs);
  }

  // Seals `plaintext` as channel frame `seqno` and hands it to the server.
  util::Result<Bytes> Send(uint32_t seqno, const Bytes& plaintext) {
    xdr::Encoder body;
    body.PutUint32(seqno);
    body.PutOpaque(seal_->Seal(plaintext));
    return connection_->Handle(sfs::FrameMessage(sfs::kMsgEncrypted, body.Take()));
  }

 private:
  Bytes Exchange(uint32_t type, const Bytes& payload) {
    auto reply = connection_->Handle(sfs::FrameMessage(type, payload));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    auto unframed = sfs::Unframe(type, reply.ok() ? reply.value() : Bytes{});
    EXPECT_TRUE(unframed.ok()) << unframed.status().ToString();
    return unframed.ok() ? unframed.value() : Bytes{};
  }

  std::unique_ptr<sim::Service> connection_;
  std::unique_ptr<sfs::ChannelCipher> seal_;
};

TEST_F(SfsTest, MacValidBodyThatFailsToDecodeKillsTheSession) {
  crypto::Prng prng(uint64_t{0x5eed});
  HandKeyedChannel channel(server_.get(), &prng);
  // A well-formed GETROOT call (xid, prog, proc, args — the frame carries
  // the seqno) is served...
  xdr::Encoder getroot;
  getroot.PutUint32(/*xid=*/1);
  getroot.PutUint32(sfs::kSfsCtlProgram);
  getroot.PutUint32(sfs::kCtlGetRoot);
  getroot.PutOpaque({});
  ASSERT_TRUE(channel.Send(1, getroot.Take()).ok());
  // ...but a body whose MAC verifies and whose call does not decode is a
  // protocol violation: the server refuses it and closes the session.
  auto garbage = channel.Send(2, BytesOf("not an rpc call"));
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), util::ErrorCode::kInvalidArgument);
  xdr::Encoder again;
  again.PutUint32(/*xid=*/3);
  again.PutUint32(sfs::kSfsCtlProgram);
  again.PutUint32(sfs::kCtlGetRoot);
  again.PutOpaque({});
  auto after = channel.Send(3, again.Take());
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), util::ErrorCode::kUnavailable);
}

// --- Secure channel unit behavior -------------------------------------------

TEST(ChannelCipherTest, SealOpenRoundTrip) {
  Bytes key(20, 0x11);
  sfs::ChannelCipher sender(key);
  sfs::ChannelCipher receiver(key);
  for (int i = 0; i < 20; ++i) {
    Bytes msg = BytesOf("message number " + std::to_string(i));
    auto opened = receiver.Open(sender.Seal(msg));
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), msg);
  }
}

TEST(ChannelCipherTest, CiphertextDiffersFromPlaintextAndVaries) {
  Bytes key(20, 0x22);
  sfs::ChannelCipher sender(key);
  Bytes msg = BytesOf("identical plaintext");
  Bytes c1 = sender.Seal(msg);
  Bytes c2 = sender.Seal(msg);
  EXPECT_NE(c1, c2);  // Stream position differs.
  EXPECT_EQ(std::search(c1.begin(), c1.end(), msg.begin(), msg.end()), c1.end());
}

TEST(ChannelCipherTest, DirectionKeysAreIndependent) {
  // A message sealed for one direction must not open with the other
  // direction's key (reflection attack).
  crypto::Prng prng(uint64_t{12});
  auto server_key = crypto::RabinPrivateKey::Generate(&prng, kKeyBits);
  auto client_key = crypto::RabinPrivateKey::Generate(&prng, kKeyBits);
  Bytes kc1 = prng.RandomBytes(20);
  Bytes kc2 = prng.RandomBytes(20);
  Bytes ks1 = prng.RandomBytes(20);
  Bytes ks2 = prng.RandomBytes(20);
  sfs::SessionKeys keys = sfs::DeriveSessionKeys(server_key.public_key(),
                                                 client_key.public_key(), kc1, kc2, ks1, ks2);
  EXPECT_NE(keys.kcs, keys.ksc);
  sfs::ChannelCipher c2s(keys.kcs);
  sfs::ChannelCipher reflector(keys.ksc);
  auto opened = reflector.Open(c2s.Seal(BytesOf("reflect me")));
  EXPECT_FALSE(opened.ok());
}

TEST(ChannelCipherTest, TruncationDetected) {
  Bytes key(20, 0x33);
  sfs::ChannelCipher sender(key);
  sfs::ChannelCipher receiver(key);
  Bytes sealed = sender.Seal(BytesOf("truncate me please"));
  sealed.pop_back();
  EXPECT_FALSE(receiver.Open(sealed).ok());
}

TEST(ChannelCipherTest, EverySingleBitFlipDetected) {
  Bytes key(20, 0x44);
  Bytes msg = BytesOf("integrity");
  for (size_t byte = 0; byte < 20; ++byte) {
    sfs::ChannelCipher sender(key);
    sfs::ChannelCipher receiver(key);
    Bytes sealed = sender.Seal(msg);
    sealed[byte % sealed.size()] ^= static_cast<uint8_t>(1 << (byte % 8));
    EXPECT_FALSE(receiver.Open(sealed).ok()) << "byte " << byte;
  }
}

// --- Forward secrecy ---------------------------------------------------------

TEST_F(SfsTest, ForwardSecrecyOfKeyNegotiation) {
  // Record a full negotiation transcript, then "compromise" the server's
  // long-lived key.  The attacker can decrypt the client's key halves but
  // not the server's (sent under the ephemeral client key), so neither
  // session key is recoverable.
  crypto::Prng prng(uint64_t{13});
  auto negotiation = sfs::ClientNegotiation::Start(server_->public_key(), &prng, kKeyBits);
  ASSERT_TRUE(negotiation.ok());
  auto response = sfs::ServerNegotiation::Respond(
      server_->private_key(), negotiation->ephemeral_key.public_key().Serialize(),
      negotiation->enc_kc1, negotiation->enc_kc2, &prng);
  ASSERT_TRUE(response.ok());

  // Attacker with the server's private key reads kc1/kc2 off the wire...
  auto stolen_kc1 = server_->private_key().Decrypt(negotiation->enc_kc1);
  ASSERT_TRUE(stolen_kc1.ok());
  EXPECT_EQ(stolen_kc1.value(), negotiation->kc1);
  // ...but ks1/ks2 were encrypted under the (discarded) ephemeral key;
  // the server's key cannot decrypt them.
  auto stolen_ks1 = server_->private_key().Decrypt(response->enc_ks1);
  EXPECT_FALSE(stolen_ks1.ok());
}

// --- Revocation ---------------------------------------------------------------

TEST_F(SfsTest, RevocationCertificateBlocksMount) {
  SelfCertifyingPath path = server_->Path();
  PathRevokeCert cert = PathRevokeCert::MakeRevocation(server_->private_key(), path.location);
  ASSERT_TRUE(cert.Verify().ok());
  EXPECT_TRUE(cert.RevokedPath() == path);

  ASSERT_TRUE(client_->SubmitRevocation(cert).ok());
  EXPECT_TRUE(client_->IsRevoked(path));
  auto mount = client_->Mount(path);
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kSecurityError);
}

TEST_F(SfsTest, ForgedRevocationCertificateRejected) {
  // Only the key's owner can revoke: a cert signed by a different key
  // for this path must not be accepted.
  auto attacker = test_keys::CachedTestKey(14, kKeyBits);
  PathRevokeCert forged =
      PathRevokeCert::MakeRevocation(attacker, server_->Path().location);
  // The certificate verifies under the attacker's key, but it revokes the
  // *attacker's* path, not the victim's.
  EXPECT_TRUE(forged.Verify().ok());
  EXPECT_FALSE(forged.RevokedPath() == server_->Path());
  ASSERT_TRUE(client_->SubmitRevocation(forged).ok());
  EXPECT_FALSE(client_->IsRevoked(server_->Path()));
  EXPECT_TRUE(client_->Mount(server_->Path()).ok());
}

TEST_F(SfsTest, TamperedRevocationCertificateFailsVerify) {
  PathRevokeCert cert =
      PathRevokeCert::MakeRevocation(server_->private_key(), server_->Path().location);
  Bytes wire = cert.Serialize();
  wire[wire.size() - 5] ^= 1;  // Corrupt the signature.
  auto parsed = PathRevokeCert::Deserialize(wire);
  if (parsed.ok()) {
    EXPECT_FALSE(parsed->Verify().ok());
  }
}

TEST_F(SfsTest, ServerServesRevocationOnConnect) {
  // The server operator installs a revocation for the primary path;
  // clients that connect learn about it immediately.
  SelfCertifyingPath path = server_->Path();
  PathRevokeCert cert = PathRevokeCert::MakeRevocation(server_->private_key(), path.location);
  server_->ServeRevocation(cert);
  auto mount = client_->Mount(path);
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kSecurityError);
  // And the client remembers it (agent-style caching of revocations).
  EXPECT_TRUE(client_->IsRevoked(path));
}

TEST_F(SfsTest, ForwardingPointerCertificate) {
  auto new_key = test_keys::CachedTestKey(15, kKeyBits);
  SelfCertifyingPath new_path = SelfCertifyingPath::For("new.example.com",
                                                        new_key.public_key());
  PathRevokeCert forward = PathRevokeCert::MakeForwardingPointer(
      server_->private_key(), server_->Path().location, new_path);
  ASSERT_TRUE(forward.Verify().ok());
  EXPECT_FALSE(forward.is_revocation());
  ASSERT_TRUE(forward.forward_to().has_value());
  EXPECT_TRUE(*forward.forward_to() == new_path);
  // A forwarding pointer is not accepted as a revocation.
  EXPECT_FALSE(client_->SubmitRevocation(forward).ok());
}

TEST_F(SfsTest, RevokedHostIdRejectedOnNextConnect) {
  // An already-connected client keeps its session, but the *next*
  // connect for the revoked HostID is answered with the certificate.
  auto before = client_->Mount(server_->Path());
  ASSERT_TRUE(before.ok());
  PathRevokeCert cert =
      PathRevokeCert::MakeRevocation(server_->private_key(), server_->Path().location);
  server_->ServeRevocation(cert);

  // A fresh client machine (no cached mount) connects next.
  SfsClient::Options opts;
  opts.ephemeral_key_bits = kKeyBits;
  opts.prng_seed = 98;
  SfsClient fresh(
      &clock_, &costs_, [this](const std::string&) { return server_.get(); }, opts);
  auto mount = fresh.Mount(server_->Path());
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kSecurityError);
  EXPECT_TRUE(fresh.IsRevoked(server_->Path()));
}

TEST_F(SfsTest, ReServingSameRevocationIsIdempotent) {
  PathRevokeCert cert =
      PathRevokeCert::MakeRevocation(server_->private_key(), server_->Path().location);
  server_->ServeRevocation(cert);
  server_->ServeRevocation(cert);  // Operator re-runs the install: no-op.
  auto mount = client_->Mount(server_->Path());
  EXPECT_EQ(mount.status().code(), util::ErrorCode::kSecurityError);
  // Re-serving overwrote the same HostID slot; connects keep being
  // answered with the certificate.
  auto again = client_->Mount(server_->Path());
  EXPECT_EQ(again.status().code(), util::ErrorCode::kSecurityError);
}

TEST_F(SfsTest, ServedRevocationIsJournaled) {
  // The audit journal records both the installation and every connect
  // answered with the certificate (forensics for key compromise).
  PathRevokeCert cert =
      PathRevokeCert::MakeRevocation(server_->private_key(), server_->Path().location);
  server_->ServeRevocation(cert);
  auto mount = client_->Mount(server_->Path());
  EXPECT_FALSE(mount.ok());

  ASSERT_NE(server_->auditor(), nullptr);
  server_->auditor()->Finalize();
  obs::AuditVerifyResult verified = obs::VerifyAuditLog(
      server_->auditor()->genesis_key(), server_->auditor()->log().bytes());
  ASSERT_TRUE(verified.ok) << verified.detail;
  int installed = 0, served = 0;
  for (const obs::AuditRecordInfo& info : verified.records) {
    if (info.record.kind == static_cast<uint32_t>(obs::AuditKind::kRevocationInstalled)) {
      ++installed;
    }
    if (info.record.kind == static_cast<uint32_t>(obs::AuditKind::kRevocationServed)) {
      ++served;
    }
  }
  EXPECT_EQ(installed, 1);
  EXPECT_GE(served, 1);
}

TEST_F(SfsTest, MultipleIdentitiesServeSameFileSystem) {
  // Key rollover: the server adds a second (location, key) identity; both
  // self-certifying pathnames reach the same files.
  auto new_key = test_keys::CachedTestKey(16, kKeyBits);
  server_->AddIdentity(new_key, "sfs.lcs.mit.edu");
  SelfCertifyingPath new_path =
      SelfCertifyingPath::For("sfs.lcs.mit.edu", new_key.public_key());

  auto m1 = client_->Mount(server_->Path());
  ASSERT_TRUE(m1.ok());
  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh;
  Fattr attr;
  ASSERT_EQ((*m1)->fs()->Create((*m1)->root_fh(), "shared-file", alice, {}, &fh, &attr),
            Stat::kOk);

  auto m2 = client_->Mount(new_path);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();
  EXPECT_NE(m1.value(), m2.value());  // Different paths, different mounts...
  FileHandle found;
  ASSERT_EQ((*m2)->fs()->Lookup((*m2)->root_fh(), "shared-file", alice, &found, &attr),
            Stat::kOk);  // ...same file system.
}

// --- Lease-based cache coherence ---------------------------------------------

TEST_F(SfsTest, LeaseCallbackInvalidatesOtherClients) {
  // Two client machines mount the same server.  Client B writes; client
  // A's cached attributes are invalidated by the server callback, so A
  // sees the new size immediately (before any lease expiry).
  SfsClient::Options opts;
  opts.ephemeral_key_bits = kKeyBits;
  opts.prng_seed = 99;
  SfsClient client_b(
      &clock_, &costs_, [this](const std::string&) { return server_.get(); }, opts);

  auto ma = client_->Mount(server_->Path());
  auto mb = client_b.Mount(server_->Path());
  ASSERT_TRUE(ma.ok() && mb.ok());

  Credentials alice = Credentials::User(1000, {1000});
  FileHandle fh_a;
  Fattr attr;
  ASSERT_EQ((*ma)->fs()->Create((*ma)->root_fh(), "coherent", alice, {}, &fh_a, &attr),
            Stat::kOk);
  ASSERT_EQ((*ma)->fs()->Write(fh_a, alice, 0, BytesOf("v1"), false, &attr), Stat::kOk);
  // A caches the attributes.
  ASSERT_EQ((*ma)->fs()->GetAttr(fh_a, &attr), Stat::kOk);
  EXPECT_EQ(attr.size, 2u);

  // B looks up the same file (same encrypted handle) and extends it.
  FileHandle fh_b;
  ASSERT_EQ((*mb)->fs()->Lookup((*mb)->root_fh(), "coherent", alice, &fh_b, &attr), Stat::kOk);
  EXPECT_EQ(fh_b, fh_a);
  ASSERT_EQ((*mb)->fs()->Write(fh_b, alice, 0, BytesOf("version2"), false, &attr), Stat::kOk);

  // Without advancing the clock past any lease, A must see the new size.
  ASSERT_EQ((*ma)->fs()->GetAttr(fh_a, &attr), Stat::kOk);
  EXPECT_EQ(attr.size, 8u);
}

TEST_F(SfsTest, LeasesReduceRpcTraffic) {
  auto mount = client_->Mount(server_->Path());
  ASSERT_TRUE(mount.ok());
  Fattr attr;
  ASSERT_EQ((*mount)->fs()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);
  EXPECT_GT(attr.lease_ns, 0u);  // The SFS dialect grants leases.
  uint64_t calls = (*mount)->raw_client()->calls_sent();
  // Repeated stats within the lease hit the cache; advance past the
  // plain-NFS timeout but within the lease.
  clock_.Advance(30'000'000'000);
  ASSERT_EQ((*mount)->fs()->GetAttr((*mount)->root_fh(), &attr), Stat::kOk);
  EXPECT_EQ((*mount)->raw_client()->calls_sent(), calls);
}

// --- SRP password service ----------------------------------------------------

class SrpFlowTest : public SfsTest {
 protected:
  void RegisterSrpUser(const std::string& name, const std::string& password) {
    crypto::Prng prng(uint64_t{21});
    auth::PrivateUserRecord priv;
    priv.srp = crypto::MakeSrpVerifier(crypto::DefaultSrpParams(), password, 2, &prng);
    // Encrypted private key: eksblowfish-derived ARC4 seal of the key.
    priv.encrypted_private_key = BytesOf("ciphertext-of-private-key");
    ASSERT_TRUE(authserver_.UpdatePrivateRecord(name, priv).ok());
  }

  // Drives the sfskey-style SRP exchange against a fresh connection.
  // Returns (server_path, encrypted_key_blob) on success.
  util::Result<std::pair<std::string, Bytes>> RunSrp(const std::string& user,
                                                     const std::string& password) {
    auto accepted = server_->CreateConnection();
    sim::Link link(&clock_, sim::LinkProfile::Tcp(), accepted.connection.get());
    crypto::Prng prng(uint64_t{22});
    crypto::SrpClient srp(crypto::DefaultSrpParams(), &prng);

    xdr::Encoder start;
    start.PutString(user);
    start.PutOpaque(srp.A().ToBytes());
    xdr::Encoder framed;
    framed.PutUint32(sfs::kMsgSrpStart);
    framed.PutOpaque(start.Take());
    ASSIGN_OR_RETURN(Bytes start_raw, link.Roundtrip(framed.Take()));
    xdr::Decoder sdec(start_raw);
    ASSIGN_OR_RETURN(uint32_t stype, sdec.GetUint32());
    if (stype != sfs::kMsgSrpStart) {
      return util::SecurityError("bad SRP framing");
    }
    ASSIGN_OR_RETURN(Bytes spayload, sdec.GetOpaque());
    xdr::Decoder sp(spayload);
    ASSIGN_OR_RETURN(Bytes salt, sp.GetOpaque());
    ASSIGN_OR_RETURN(uint32_t cost, sp.GetUint32());
    ASSIGN_OR_RETURN(Bytes b_bytes, sp.GetOpaque());
    RETURN_IF_ERROR(srp.ProcessServerReply(password, salt, cost,
                                           crypto::BigInt::FromBytes(b_bytes)));

    xdr::Encoder finish;
    finish.PutOpaque(srp.ClientProof());
    xdr::Encoder framed2;
    framed2.PutUint32(sfs::kMsgSrpFinish);
    framed2.PutOpaque(finish.Take());
    ASSIGN_OR_RETURN(Bytes finish_raw, link.Roundtrip(framed2.Take()));
    xdr::Decoder fdec(finish_raw);
    ASSIGN_OR_RETURN(uint32_t ftype, fdec.GetUint32());
    if (ftype != sfs::kMsgSrpFinish) {
      return util::SecurityError("bad SRP framing");
    }
    ASSIGN_OR_RETURN(Bytes fpayload, fdec.GetOpaque());
    xdr::Decoder fp(fpayload);
    ASSIGN_OR_RETURN(Bytes m2, fp.GetOpaque());
    ASSIGN_OR_RETURN(Bytes sealed, fp.GetOpaque());
    RETURN_IF_ERROR(srp.VerifyServerProof(m2));

    sfs::ChannelCipher open_cipher(srp.SessionKey());
    ASSIGN_OR_RETURN(Bytes secret, open_cipher.Open(sealed));
    xdr::Decoder sec(secret);
    ASSIGN_OR_RETURN(std::string path, sec.GetString());
    ASSIGN_OR_RETURN(Bytes enc_key, sec.GetOpaque());
    return std::make_pair(path, enc_key);
  }
};

TEST_F(SrpFlowTest, PasswordDownloadsSelfCertifyingPath) {
  RegisterSrpUser("kaminsky", "davy jones locker");
  auto result = RunSrp("kaminsky", "davy jones locker");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->first, server_->Path().FullPath());
  EXPECT_EQ(util::StringOf(result->second), "ciphertext-of-private-key");
}

TEST_F(SrpFlowTest, WrongPasswordFails) {
  RegisterSrpUser("kaminsky", "davy jones locker");
  auto result = RunSrp("kaminsky", "wrong guess");
  EXPECT_FALSE(result.ok());
}

TEST_F(SrpFlowTest, UnknownUserFails) {
  auto result = RunSrp("nobody", "whatever");
  EXPECT_FALSE(result.ok());
}

}  // namespace
