#include "src/crypto/sha1.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace crypto {
namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

// Big-endian word access.  memcpy keeps unaligned access defined, and the
// compiler folds it and the swap into one load or store plus bswap.
inline uint32_t LoadBe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

Sha1::Sha1() : total_bytes_(0), buffer_len_(0), finalized_(false) {
  state_[0] = 0x67452301;
  state_[1] = 0xEFCDAB89;
  state_[2] = 0x98BADCFE;
  state_[3] = 0x10325476;
  state_[4] = 0xC3D2E1F0;
}

// The message schedule is a rolling 16-word window: round t >= 16 computes
// W[t] from W[t-3], W[t-8], W[t-14] and W[t-16] and stores it over W[t-16].
#define SHA1_LOAD(t) (w[t] = LoadBe32(block + 4 * (t)))
#define SHA1_NEXT(t)                                                                \
  (w[(t) & 15] =                                                                   \
       Rotl(w[((t) + 13) & 15] ^ w[((t) + 8) & 15] ^ w[((t) + 2) & 15] ^ w[(t) & 15], 1))

// One round, e += f(b, c, d) + K + W[t] + rotl(a, 5) and b = rotl(b, 30).
// Instead of shifting a..e down after every round, consecutive rounds pass
// the variables in rotated roles.  R0 loads W[t] from the block (t < 16);
// R1..R4 extend the schedule.  Ch and Maj use their two-operation forms.
#define SHA1_ROUND(a, b, c, d, e, f, k, wt) \
  do {                                      \
    e += (f) + (k) + (wt) + Rotl(a, 5);     \
    b = Rotl(b, 30);                        \
  } while (0)
#define SHA1_R0(a, b, c, d, e, t) \
  SHA1_ROUND(a, b, c, d, e, ((c ^ d) & b) ^ d, 0x5A827999u, SHA1_LOAD(t))
#define SHA1_R1(a, b, c, d, e, t) \
  SHA1_ROUND(a, b, c, d, e, ((c ^ d) & b) ^ d, 0x5A827999u, SHA1_NEXT(t))
#define SHA1_R2(a, b, c, d, e, t) SHA1_ROUND(a, b, c, d, e, b ^ c ^ d, 0x6ED9EBA1u, SHA1_NEXT(t))
#define SHA1_R3(a, b, c, d, e, t) \
  SHA1_ROUND(a, b, c, d, e, ((b | c) & d) | (b & c), 0x8F1BBCDCu, SHA1_NEXT(t))
#define SHA1_R4(a, b, c, d, e, t) SHA1_ROUND(a, b, c, d, e, b ^ c ^ d, 0xCA62C1D6u, SHA1_NEXT(t))

void Sha1::ProcessBlock(const uint8_t block[kSha1BlockSize]) {
  uint32_t w[16];
  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];
  uint32_t e = state_[4];

  SHA1_R0(a, b, c, d, e, 0);
  SHA1_R0(e, a, b, c, d, 1);
  SHA1_R0(d, e, a, b, c, 2);
  SHA1_R0(c, d, e, a, b, 3);
  SHA1_R0(b, c, d, e, a, 4);
  SHA1_R0(a, b, c, d, e, 5);
  SHA1_R0(e, a, b, c, d, 6);
  SHA1_R0(d, e, a, b, c, 7);
  SHA1_R0(c, d, e, a, b, 8);
  SHA1_R0(b, c, d, e, a, 9);
  SHA1_R0(a, b, c, d, e, 10);
  SHA1_R0(e, a, b, c, d, 11);
  SHA1_R0(d, e, a, b, c, 12);
  SHA1_R0(c, d, e, a, b, 13);
  SHA1_R0(b, c, d, e, a, 14);
  SHA1_R0(a, b, c, d, e, 15);
  SHA1_R1(e, a, b, c, d, 16);
  SHA1_R1(d, e, a, b, c, 17);
  SHA1_R1(c, d, e, a, b, 18);
  SHA1_R1(b, c, d, e, a, 19);

  SHA1_R2(a, b, c, d, e, 20);
  SHA1_R2(e, a, b, c, d, 21);
  SHA1_R2(d, e, a, b, c, 22);
  SHA1_R2(c, d, e, a, b, 23);
  SHA1_R2(b, c, d, e, a, 24);
  SHA1_R2(a, b, c, d, e, 25);
  SHA1_R2(e, a, b, c, d, 26);
  SHA1_R2(d, e, a, b, c, 27);
  SHA1_R2(c, d, e, a, b, 28);
  SHA1_R2(b, c, d, e, a, 29);
  SHA1_R2(a, b, c, d, e, 30);
  SHA1_R2(e, a, b, c, d, 31);
  SHA1_R2(d, e, a, b, c, 32);
  SHA1_R2(c, d, e, a, b, 33);
  SHA1_R2(b, c, d, e, a, 34);
  SHA1_R2(a, b, c, d, e, 35);
  SHA1_R2(e, a, b, c, d, 36);
  SHA1_R2(d, e, a, b, c, 37);
  SHA1_R2(c, d, e, a, b, 38);
  SHA1_R2(b, c, d, e, a, 39);

  SHA1_R3(a, b, c, d, e, 40);
  SHA1_R3(e, a, b, c, d, 41);
  SHA1_R3(d, e, a, b, c, 42);
  SHA1_R3(c, d, e, a, b, 43);
  SHA1_R3(b, c, d, e, a, 44);
  SHA1_R3(a, b, c, d, e, 45);
  SHA1_R3(e, a, b, c, d, 46);
  SHA1_R3(d, e, a, b, c, 47);
  SHA1_R3(c, d, e, a, b, 48);
  SHA1_R3(b, c, d, e, a, 49);
  SHA1_R3(a, b, c, d, e, 50);
  SHA1_R3(e, a, b, c, d, 51);
  SHA1_R3(d, e, a, b, c, 52);
  SHA1_R3(c, d, e, a, b, 53);
  SHA1_R3(b, c, d, e, a, 54);
  SHA1_R3(a, b, c, d, e, 55);
  SHA1_R3(e, a, b, c, d, 56);
  SHA1_R3(d, e, a, b, c, 57);
  SHA1_R3(c, d, e, a, b, 58);
  SHA1_R3(b, c, d, e, a, 59);

  SHA1_R4(a, b, c, d, e, 60);
  SHA1_R4(e, a, b, c, d, 61);
  SHA1_R4(d, e, a, b, c, 62);
  SHA1_R4(c, d, e, a, b, 63);
  SHA1_R4(b, c, d, e, a, 64);
  SHA1_R4(a, b, c, d, e, 65);
  SHA1_R4(e, a, b, c, d, 66);
  SHA1_R4(d, e, a, b, c, 67);
  SHA1_R4(c, d, e, a, b, 68);
  SHA1_R4(b, c, d, e, a, 69);
  SHA1_R4(a, b, c, d, e, 70);
  SHA1_R4(e, a, b, c, d, 71);
  SHA1_R4(d, e, a, b, c, 72);
  SHA1_R4(c, d, e, a, b, 73);
  SHA1_R4(b, c, d, e, a, 74);
  SHA1_R4(a, b, c, d, e, 75);
  SHA1_R4(e, a, b, c, d, 76);
  SHA1_R4(d, e, a, b, c, 77);
  SHA1_R4(c, d, e, a, b, 78);
  SHA1_R4(b, c, d, e, a, 79);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

#undef SHA1_R4
#undef SHA1_R3
#undef SHA1_R2
#undef SHA1_R1
#undef SHA1_R0
#undef SHA1_ROUND
#undef SHA1_NEXT
#undef SHA1_LOAD

void Sha1::Update(const uint8_t* data, size_t len) {
  assert(!finalized_);
  if (len == 0) {
    return;
  }
  total_bytes_ += len;
  if (buffer_len_ > 0) {
    size_t take = kSha1BlockSize - buffer_len_;
    if (take > len) {
      take = len;
    }
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kSha1BlockSize) {
      return;
    }
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  // Whole blocks hash straight from the caller's buffer; only the tail is
  // copied.
  for (; len >= kSha1BlockSize; data += kSha1BlockSize, len -= kSha1BlockSize) {
    ProcessBlock(data);
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha1::Digest(uint8_t out[kSha1DigestSize]) {
  assert(!finalized_);
  finalized_ = true;

  uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kSha1BlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  StoreBe32(buffer_ + 56, static_cast<uint32_t>(bit_len >> 32));
  StoreBe32(buffer_ + 60, static_cast<uint32_t>(bit_len));
  ProcessBlock(buffer_);

  for (int i = 0; i < 5; ++i) {
    StoreBe32(out + 4 * i, state_[i]);
  }
}

util::Bytes Sha1::Digest() {
  util::Bytes out(kSha1DigestSize);
  Digest(out.data());
  return out;
}

util::Bytes Sha1Digest(const util::Bytes& data) {
  Sha1 h;
  h.Update(data);
  return h.Digest();
}

util::Bytes Sha1Digest(const std::string& data) {
  Sha1 h;
  h.Update(data);
  return h.Digest();
}

void HmacSha1(const uint8_t* key, size_t key_len, const uint8_t* message, size_t len,
              uint8_t out[kSha1DigestSize]) {
  // A key longer than a block is replaced by its digest; shorter keys are
  // zero-padded to a block.
  uint8_t hashed_key[kSha1DigestSize];
  if (key_len > kSha1BlockSize) {
    Sha1 h;
    h.Update(key, key_len);
    h.Digest(hashed_key);
    key = hashed_key;
    key_len = kSha1DigestSize;
  }
  uint8_t ipad[kSha1BlockSize];
  uint8_t opad[kSha1BlockSize];
  for (size_t i = 0; i < kSha1BlockSize; ++i) {
    const uint8_t k = i < key_len ? key[i] : 0;
    ipad[i] = static_cast<uint8_t>(k ^ 0x36);
    opad[i] = static_cast<uint8_t>(k ^ 0x5c);
  }

  Sha1 inner;
  inner.Update(ipad, kSha1BlockSize);
  inner.Update(message, len);
  uint8_t inner_digest[kSha1DigestSize];
  inner.Digest(inner_digest);

  Sha1 outer;
  outer.Update(opad, kSha1BlockSize);
  outer.Update(inner_digest, kSha1DigestSize);
  outer.Digest(out);
}

util::Bytes HmacSha1(const util::Bytes& key, const util::Bytes& message) {
  util::Bytes out(kSha1DigestSize);
  HmacSha1(key.data(), key.size(), message.data(), message.size(), out.data());
  return out;
}

}  // namespace crypto
