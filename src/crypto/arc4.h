// ARC4 stream cipher ("alleged RC4", Kaukonen–Thayer draft).
//
// SFS encrypts all read-write file system traffic with ARC4 and keeps the
// stream running for the duration of a session (paper §3.1.3).  The
// implementation follows the paper's two non-standard choices:
//   * 20-byte keys, handled by "spinning the ARC4 key schedule once for
//     each 128 bits of key data";
//   * keystream bytes are also drawn off to re-key the per-message MAC
//     (the channel pulls 32 bytes per message that are never used for
//     encryption).
#ifndef SFS_SRC_CRYPTO_ARC4_H_
#define SFS_SRC_CRYPTO_ARC4_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace crypto {

class Arc4 {
 public:
  // Keys up to 256 bytes.  Runs the key schedule ceil(key_bits/128) times,
  // per the paper, so the usual 20-byte (160-bit) session keys spin it
  // twice.
  explicit Arc4(const util::Bytes& key);

  // Next keystream byte.
  uint8_t NextByte();

  // Returns the next len keystream bytes.
  util::Bytes NextBytes(size_t len);
  // Writes the next len keystream bytes to out[0..len).
  void NextBytes(uint8_t* out, size_t len);

  // XORs data in place with the keystream (encrypt == decrypt).
  void Crypt(uint8_t* data, size_t len);
  void Crypt(util::Bytes* data) { Crypt(data->data(), data->size()); }

 private:
  void KeyScheduleRound(const util::Bytes& key);

  uint8_t s_[256];
  uint8_t i_;
  uint8_t j_;
};

}  // namespace crypto

#endif  // SFS_SRC_CRYPTO_ARC4_H_
