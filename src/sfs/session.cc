#include "src/sfs/session.h"

#include "src/crypto/sha1.h"
#include "src/xdr/xdr.h"

namespace sfs {
namespace {

constexpr size_t kKeyHalfSize = 20;
constexpr size_t kMacKeySize = 32;
constexpr size_t kMacSize = crypto::kSha1DigestSize;

// XDR pads opaque data to a multiple of four bytes.
constexpr size_t PaddedLength(size_t len) { return (len + 3) & ~size_t{3}; }

}  // namespace

ChannelCipher::ChannelCipher(const util::Bytes& session_key) : stream_(session_key) {}

// Wire frame: length (4 bytes, big-endian) || plaintext || XDR zero pad to
// a word || MAC, all encrypted.  The MAC covers everything before it.
util::Bytes ChannelCipher::Seal(const util::Bytes& plaintext) {
  // 32 bytes of keystream re-key the MAC for this message and are never
  // used for encryption (paper §3.1.3).
  uint8_t mac_key[kMacKeySize];
  stream_.NextBytes(mac_key, kMacKeySize);

  const uint32_t len = static_cast<uint32_t>(plaintext.size());
  const size_t framed_len = 4 + PaddedLength(plaintext.size());
  util::Bytes sealed;
  sealed.reserve(framed_len + kMacSize);
  sealed.push_back(static_cast<uint8_t>(len >> 24));
  sealed.push_back(static_cast<uint8_t>(len >> 16));
  sealed.push_back(static_cast<uint8_t>(len >> 8));
  sealed.push_back(static_cast<uint8_t>(len));
  sealed.insert(sealed.end(), plaintext.begin(), plaintext.end());
  sealed.resize(framed_len + kMacSize);  // Zero pad, then room for the MAC.

  crypto::HmacSha1(mac_key, kMacKeySize, sealed.data(), framed_len, sealed.data() + framed_len);
  stream_.Crypt(&sealed);  // Length, message, and MAC all get encrypted.
  return sealed;
}

util::Result<util::Bytes> ChannelCipher::Open(const util::Bytes& sealed) {
  // Transactional: a failed Open must leave the stream where it was, so a
  // stale or corrupt message does not desynchronize the channel for the
  // genuine copy that retransmission will deliver.
  crypto::Arc4 checkpoint = stream_;
  auto fail = [&](const char* reason) {
    stream_ = checkpoint;
    return util::SecurityError(reason);
  };

  if (sealed.size() < 4 + kMacSize) {
    return fail("sealed message too short");
  }
  uint8_t mac_key[kMacKeySize];
  stream_.NextBytes(mac_key, kMacKeySize);
  util::Bytes buf = sealed;
  stream_.Crypt(&buf);

  const size_t framed_len = buf.size() - kMacSize;
  uint8_t mac[kMacSize];
  crypto::HmacSha1(mac_key, kMacKeySize, buf.data(), framed_len, mac);
  if (!util::ConstantTimeEquals(mac, buf.data() + framed_len, kMacSize)) {
    return fail("MAC check failed");
  }
  const size_t len = (static_cast<size_t>(buf[0]) << 24) | (static_cast<size_t>(buf[1]) << 16) |
                     (static_cast<size_t>(buf[2]) << 8) | static_cast<size_t>(buf[3]);
  if (4 + PaddedLength(len) != framed_len) {
    return fail("length field inconsistent with message");
  }
  for (size_t i = 4 + len; i < framed_len; ++i) {
    if (buf[i] != 0) {
      return fail("length field inconsistent with message");
    }
  }
  // The plaintext is buf[4, 4 + len): trim the frame around it in place.
  buf.resize(4 + len);
  buf.erase(buf.begin(), buf.begin() + 4);
  return buf;
}

util::Bytes SessionKeys::SessionId() const {
  xdr::Encoder enc;
  enc.PutString("SessionInfo");
  enc.PutOpaque(ksc);
  enc.PutOpaque(kcs);
  return crypto::Sha1Digest(enc.Take());
}

util::Bytes MakeAuthInfo(const SelfCertifyingPath& path, const util::Bytes& session_id) {
  xdr::Encoder enc;
  enc.PutString("AuthInfo");
  enc.PutString("FS");
  enc.PutString(path.location);
  enc.PutOpaque(path.host_id);
  enc.PutOpaque(session_id);
  return enc.Take();
}

util::Bytes MakeAuthId(const util::Bytes& auth_info) { return crypto::Sha1Digest(auth_info); }

SessionKeys DeriveSessionKeys(const crypto::RabinPublicKey& server_key,
                              const crypto::RabinPublicKey& client_key,
                              const util::Bytes& kc1, const util::Bytes& kc2,
                              const util::Bytes& ks1, const util::Bytes& ks2) {
  auto derive = [&](const char* label, const util::Bytes& kc, const util::Bytes& ks) {
    xdr::Encoder enc;
    enc.PutString(label);
    enc.PutOpaque(server_key.Serialize());
    enc.PutOpaque(kc);
    enc.PutOpaque(client_key.Serialize());
    enc.PutOpaque(ks);
    return crypto::Sha1Digest(enc.Take());
  };
  SessionKeys keys;
  keys.kcs = derive("KCS", kc1, ks1);
  keys.ksc = derive("KSC", kc2, ks2);
  return keys;
}

util::Result<ClientNegotiation> ClientNegotiation::Start(
    const crypto::RabinPublicKey& server_key, crypto::Prng* prng, size_t ephemeral_bits) {
  ClientNegotiation neg;
  neg.ephemeral_key = crypto::RabinPrivateKey::Generate(prng, ephemeral_bits);
  neg.kc1 = prng->RandomBytes(kKeyHalfSize);
  neg.kc2 = prng->RandomBytes(kKeyHalfSize);
  ASSIGN_OR_RETURN(neg.enc_kc1, server_key.Encrypt(neg.kc1, prng));
  ASSIGN_OR_RETURN(neg.enc_kc2, server_key.Encrypt(neg.kc2, prng));
  return neg;
}

util::Result<SessionKeys> ClientNegotiation::Finish(const crypto::RabinPublicKey& server_key,
                                                    const util::Bytes& enc_ks1,
                                                    const util::Bytes& enc_ks2) const {
  ASSIGN_OR_RETURN(util::Bytes ks1, ephemeral_key.Decrypt(enc_ks1));
  ASSIGN_OR_RETURN(util::Bytes ks2, ephemeral_key.Decrypt(enc_ks2));
  if (ks1.size() != kKeyHalfSize || ks2.size() != kKeyHalfSize) {
    return util::SecurityError("server key halves have wrong size");
  }
  return DeriveSessionKeys(server_key, ephemeral_key.public_key(), kc1, kc2, ks1, ks2);
}

util::Result<ServerNegotiation> ServerNegotiation::Respond(
    const crypto::RabinPrivateKey& server_key, const util::Bytes& client_pubkey_bytes,
    const util::Bytes& enc_kc1, const util::Bytes& enc_kc2, crypto::Prng* prng) {
  ASSIGN_OR_RETURN(crypto::RabinPublicKey client_key,
                   crypto::RabinPublicKey::Deserialize(client_pubkey_bytes));
  ASSIGN_OR_RETURN(util::Bytes kc1, server_key.Decrypt(enc_kc1));
  ASSIGN_OR_RETURN(util::Bytes kc2, server_key.Decrypt(enc_kc2));
  if (kc1.size() != kKeyHalfSize || kc2.size() != kKeyHalfSize) {
    return util::SecurityError("client key halves have wrong size");
  }
  util::Bytes ks1 = prng->RandomBytes(kKeyHalfSize);
  util::Bytes ks2 = prng->RandomBytes(kKeyHalfSize);

  ServerNegotiation out;
  out.keys = DeriveSessionKeys(server_key.public_key(), client_key, kc1, kc2, ks1, ks2);
  ASSIGN_OR_RETURN(out.enc_ks1, client_key.Encrypt(ks1, prng));
  ASSIGN_OR_RETURN(out.enc_ks2, client_key.Encrypt(ks2, prng));
  return out;
}

}  // namespace sfs
