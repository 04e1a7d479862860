// Fixture: a byte-wise table AES — SubBytes as kSbox[s[i]] over the
// secret cipher state and SubWord as kSbox[temp[j]] over key bytes — next
// to the bitsliced form that must stay quiet. Both table lookups are
// cache-timing oracles on the key. Lint input only.
#include <cstdint>

#include "crypto/bytes.hpp"

namespace fixture {

extern const std::uint8_t kSbox[256];

void table_sub_bytes(std::uint8_t* block) {
  std::uint8_t s[16];  // ctlint:secret(s)
  for (int i = 0; i < 16; ++i) s[i] = block[i];
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];  // ctlint:expect(secret-index)
  for (int i = 0; i < 16; ++i) block[i] = s[i];
  neuropuls::crypto::secure_wipe(s, sizeof(s));
}

void table_sub_word(std::uint8_t* word) {
  std::uint8_t temp[4];  // ctlint:secret(temp)  // ctlint:expect(missing-wipe)
  for (int j = 0; j < 4; ++j) temp[j] = word[j];
  word[0] = kSbox[temp[1]];  // ctlint:expect(secret-index)
}  // the key bytes stay on the stack

void bitsliced_state_is_fine(std::uint64_t* out) {
  // Straight-line word logic on the planes: every subscript is public.
  std::uint64_t q[8] = {};  // ctlint:secret(q)
  q[1] ^= q[0] & q[7];
  for (int i = 0; i < 8; ++i) out[i] = q[i];
  neuropuls::crypto::secure_wipe(q, sizeof(q));
}

}  // namespace fixture
