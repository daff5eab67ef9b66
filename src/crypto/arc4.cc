#include "src/crypto/arc4.h"

#include <cassert>

namespace crypto {
namespace {

// The PRGA over len bytes.  `data` may alias the cipher's own state as far
// as the compiler knows, so the indices and the S-box pointer live in
// locals for the whole loop rather than being reloaded and stored through
// the object every byte.  kXor chooses encrypt-in-place over writing raw
// keystream.
template <bool kXor>
inline void Generate(uint8_t* s, uint8_t* i_state, uint8_t* j_state, uint8_t* data, size_t len) {
  uint8_t i = *i_state;
  uint8_t j = *j_state;
  for (size_t k = 0; k < len; ++k) {
    i = static_cast<uint8_t>(i + 1);
    const uint8_t si = s[i];
    j = static_cast<uint8_t>(j + si);
    const uint8_t sj = s[j];
    s[i] = sj;
    s[j] = si;
    const uint8_t key = s[static_cast<uint8_t>(si + sj)];
    if constexpr (kXor) {
      data[k] ^= key;
    } else {
      data[k] = key;
    }
  }
  *i_state = i;
  *j_state = j;
}

}  // namespace

Arc4::Arc4(const util::Bytes& key) : i_(0), j_(0) {
  assert(!key.empty() && key.size() <= 256);
  for (int i = 0; i < 256; ++i) {
    s_[i] = static_cast<uint8_t>(i);
  }
  // One key-schedule pass per 128 bits of key material (paper §3.1.3).
  size_t rounds = (key.size() * 8 + 127) / 128;
  for (size_t r = 0; r < rounds; ++r) {
    KeyScheduleRound(key);
  }
  // The schedule borrows j_ as its accumulator; the PRGA starts from zero.
  i_ = 0;
  j_ = 0;
}

void Arc4::KeyScheduleRound(const util::Bytes& key) {
  uint8_t j = j_;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<uint8_t>(j + s_[i] + key[i % key.size()]);
    uint8_t tmp = s_[i];
    s_[i] = s_[j];
    s_[j] = tmp;
  }
  j_ = j;
}

uint8_t Arc4::NextByte() {
  i_ = static_cast<uint8_t>(i_ + 1);
  j_ = static_cast<uint8_t>(j_ + s_[i_]);
  uint8_t tmp = s_[i_];
  s_[i_] = s_[j_];
  s_[j_] = tmp;
  return s_[static_cast<uint8_t>(s_[i_] + s_[j_])];
}

util::Bytes Arc4::NextBytes(size_t len) {
  util::Bytes out(len);
  NextBytes(out.data(), len);
  return out;
}

void Arc4::NextBytes(uint8_t* out, size_t len) { Generate<false>(s_, &i_, &j_, out, len); }

void Arc4::Crypt(uint8_t* data, size_t len) { Generate<true>(s_, &i_, &j_, data, len); }

}  // namespace crypto
