#include "crypto/aes.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/hmac.hpp"

namespace neuropuls::crypto {

namespace {

// ---- Bitsliced core (BearSSL aes_ct64 layout) ------------------------------
//
// The state q[0..7] holds four blocks: q[i] is bit-plane i of all 64
// state bytes, with the block lane in the low two bits of each bit
// position. Every operation below is straight-line word logic on q.

constexpr std::size_t kLanes = 4;

// Bit-plane transpose between the interleaved words and the bitsliced
// planes; an involution.
void ortho(std::uint64_t* q) noexcept {
  auto swap_n = [](std::uint64_t& x, std::uint64_t& y, std::uint64_t lo,
                   unsigned shift) {
    const std::uint64_t a = x;
    const std::uint64_t b = y;
    x = (a & lo) | ((b & lo) << shift);
    y = ((a & ~lo) >> shift) | (b & ~lo);
  };
  for (std::size_t i = 0; i < 8; i += 2) {
    swap_n(q[i], q[i + 1], 0x5555555555555555ULL, 1);
  }
  for (std::size_t i : {0u, 1u, 4u, 5u}) {
    swap_n(q[i], q[i + 2], 0x3333333333333333ULL, 2);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    swap_n(q[i], q[i + 4], 0x0F0F0F0F0F0F0F0FULL, 4);
  }
}

// Spreads one block's four little-endian words over two interleaved
// 64-bit words (even and odd columns).
void interleave_in(std::uint64_t& q0, std::uint64_t& q1,
                   const std::uint32_t* w) noexcept {
  std::uint64_t x[4];
  for (std::size_t i = 0; i < 4; ++i) {
    x[i] = w[i];
    x[i] = (x[i] | (x[i] << 16)) & 0x0000FFFF0000FFFFULL;
    x[i] = (x[i] | (x[i] << 8)) & 0x00FF00FF00FF00FFULL;
  }
  q0 = x[0] | (x[2] << 8);
  q1 = x[1] | (x[3] << 8);
}

void interleave_out(std::uint32_t* w, std::uint64_t q0,
                    std::uint64_t q1) noexcept {
  std::uint64_t x[4] = {q0 & 0x00FF00FF00FF00FFULL, q1 & 0x00FF00FF00FF00FFULL,
                        (q0 >> 8) & 0x00FF00FF00FF00FFULL,
                        (q1 >> 8) & 0x00FF00FF00FF00FFULL};
  for (std::size_t i = 0; i < 4; ++i) {
    x[i] = (x[i] | (x[i] >> 8)) & 0x0000FFFF0000FFFFULL;
    w[i] = static_cast<std::uint32_t>(x[i] | (x[i] >> 16));
  }
}

// SubBytes on all 64 state bytes: the Boyar–Peralta circuit ("A new
// combinational logic minimization technique with applications to
// cryptology", SEA 2010): 32 AND and 83 XOR/XNOR gates. x0 is the high
// bit, x7 the low bit.
void sbox(std::uint64_t* q) noexcept {
  using W = std::uint64_t;
  const W x0 = q[7], x1 = q[6], x2 = q[5], x3 = q[4];
  const W x4 = q[3], x5 = q[2], x6 = q[1], x7 = q[0];

  // Top linear transformation.
  const W y14 = x3 ^ x5, y13 = x0 ^ x6, y9 = x0 ^ x3, y8 = x0 ^ x5;
  const W t0 = x1 ^ x2, y1 = t0 ^ x7, y4 = y1 ^ x3, y12 = y13 ^ y14;
  const W y2 = y1 ^ x0, y5 = y1 ^ x6, y3 = y5 ^ y8, t1 = x4 ^ y12;
  const W y15 = t1 ^ x5, y20 = t1 ^ x1, y6 = y15 ^ x7, y10 = y15 ^ t0;
  const W y11 = y20 ^ y9, y7 = x7 ^ y11, y17 = y10 ^ y11, y19 = y10 ^ y8;
  const W y16 = t0 ^ y11, y21 = y13 ^ y16, y18 = x0 ^ y16;

  // Non-linear section: inversion in GF(2^4)^2.
  const W t2 = y12 & y15, t3 = y3 & y6, t4 = t3 ^ t2, t5 = y4 & x7;
  const W t6 = t5 ^ t2, t7 = y13 & y16, t8 = y5 & y1, t9 = t8 ^ t7;
  const W t10 = y2 & y7, t11 = t10 ^ t7, t12 = y9 & y11, t13 = y14 & y17;
  const W t14 = t13 ^ t12, t15 = y8 & y10, t16 = t15 ^ t12, t17 = t4 ^ t14;
  const W t18 = t6 ^ t16, t19 = t9 ^ t14, t20 = t11 ^ t16, t21 = t17 ^ y20;
  const W t22 = t18 ^ y19, t23 = t19 ^ y21, t24 = t20 ^ y18;

  const W t25 = t21 ^ t22, t26 = t21 & t23, t27 = t24 ^ t26, t28 = t25 & t27;
  const W t29 = t28 ^ t22, t30 = t23 ^ t24, t31 = t22 ^ t26, t32 = t31 & t30;
  const W t33 = t32 ^ t24, t34 = t23 ^ t33, t35 = t27 ^ t33, t36 = t24 & t35;
  const W t37 = t36 ^ t34, t38 = t27 ^ t36, t39 = t29 & t38, t40 = t25 ^ t39;

  const W t41 = t40 ^ t37, t42 = t29 ^ t33, t43 = t29 ^ t40, t44 = t33 ^ t37;
  const W t45 = t42 ^ t41, z0 = t44 & y15, z1 = t37 & y6, z2 = t33 & x7;
  const W z3 = t43 & y16, z4 = t40 & y1, z5 = t29 & y7, z6 = t42 & y11;
  const W z7 = t45 & y17, z8 = t41 & y10, z9 = t44 & y12, z10 = t37 & y3;
  const W z11 = t33 & y4, z12 = t43 & y13, z13 = t40 & y5, z14 = t29 & y2;
  const W z15 = t42 & y9, z16 = t45 & y14, z17 = t41 & y8;

  // Bottom linear transformation (folds in the affine constant 0x63).
  const W t46 = z15 ^ z16, t47 = z10 ^ z11, t48 = z5 ^ z13, t49 = z9 ^ z10;
  const W t50 = z2 ^ z12, t51 = z2 ^ z5, t52 = z7 ^ z8, t53 = z0 ^ z3;
  const W t54 = z6 ^ z7, t55 = z16 ^ z17, t56 = z12 ^ t48, t57 = t50 ^ t53;
  const W t58 = z4 ^ t46, t59 = z3 ^ t54, t60 = t46 ^ t57, t61 = z14 ^ t57;
  const W t62 = t52 ^ t58, t63 = t49 ^ t58, t64 = z4 ^ t59, t65 = t61 ^ t62;
  const W t66 = z1 ^ t63, t67 = t64 ^ t65, s3 = t53 ^ t66;

  q[7] = t59 ^ t63;
  q[6] = t64 ^ ~s3;
  q[5] = t55 ^ ~t67;
  q[4] = s3;
  q[3] = t51 ^ t66;
  q[2] = t47 ^ t65;
  q[1] = t56 ^ ~t62;
  q[0] = t48 ^ ~t60;
}

void shift_rows(std::uint64_t* q) noexcept {
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t x = q[i];
    q[i] = (x & 0x000000000000FFFFULL) |
           ((x & 0x00000000FFF00000ULL) >> 4) |
           ((x & 0x00000000000F0000ULL) << 12) |
           ((x & 0x0000FF0000000000ULL) >> 8) |
           ((x & 0x000000FF00000000ULL) << 8) |
           ((x & 0xF000000000000000ULL) >> 12) |
           ((x & 0x0FFF000000000000ULL) << 4);
  }
}

void mix_columns(std::uint64_t* q) noexcept {
  auto rotr32 = [](std::uint64_t x) { return (x << 32) | (x >> 32); };
  std::uint64_t r[8];
  for (std::size_t i = 0; i < 8; ++i) r[i] = (q[i] >> 16) | (q[i] << 48);
  const std::uint64_t q0 = q[0], q1 = q[1], q2 = q[2], q3 = q[3];
  const std::uint64_t q4 = q[4], q5 = q[5], q6 = q[6], q7 = q[7];
  q[0] = q7 ^ r[7] ^ r[0] ^ rotr32(q0 ^ r[0]);
  q[1] = q0 ^ r[0] ^ q7 ^ r[7] ^ r[1] ^ rotr32(q1 ^ r[1]);
  q[2] = q1 ^ r[1] ^ r[2] ^ rotr32(q2 ^ r[2]);
  q[3] = q2 ^ r[2] ^ q7 ^ r[7] ^ r[3] ^ rotr32(q3 ^ r[3]);
  q[4] = q3 ^ r[3] ^ q7 ^ r[7] ^ r[4] ^ rotr32(q4 ^ r[4]);
  q[5] = q4 ^ r[4] ^ r[5] ^ rotr32(q5 ^ r[5]);
  q[6] = q5 ^ r[5] ^ r[6] ^ rotr32(q6 ^ r[6]);
  q[7] = q6 ^ r[6] ^ r[7] ^ rotr32(q7 ^ r[7]);
}

void add_round_key(std::uint64_t* q, const std::uint64_t* rk) noexcept {
  for (std::size_t i = 0; i < 8; ++i) q[i] ^= rk[i];
}

void bitslice_encrypt(std::uint64_t* q, const std::uint64_t* rk,
                      std::size_t rounds) noexcept {
  add_round_key(q, rk);
  for (std::size_t round = 1; round < rounds; ++round) {
    sbox(q);
    shift_rows(q);
    mix_columns(q);
    add_round_key(q, rk + 8 * round);
  }
  sbox(q);
  shift_rows(q);
  add_round_key(q, rk + 8 * rounds);
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// SubWord through the same circuit: the word's four bytes occupy four
// byte slots of one lane; the other slots carry S(0) and are dropped.
std::uint32_t sub_word(std::uint32_t x) noexcept {
  std::uint64_t q[8] = {x, 0, 0, 0, 0, 0, 0, 0};  // ctlint:secret(q)
  ortho(q);
  sbox(q);
  ortho(q);
  const auto out = static_cast<std::uint32_t>(q[0]);
  secure_wipe(q, sizeof(q));
  return out;
}

constexpr std::array<std::uint32_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                 0x20, 0x40, 0x80, 0x1B, 0x36};

}  // namespace

Aes::Aes(ByteView key) {
  std::size_t nk;  // key length in 32-bit words
  switch (key.size()) {
    case 16: nk = 4; rounds_ = 10; break;
    case 24: nk = 6; rounds_ = 12; break;
    case 32: nk = 8; rounds_ = 14; break;
    default:
      throw std::invalid_argument("Aes: key must be 16, 24, or 32 bytes");
  }

  // FIPS 197 expansion on little-endian words (RotWord is a rotate right).
  const std::size_t total_words = 4 * (rounds_ + 1);
  std::uint32_t words[60];  // ctlint:secret(words)
  for (std::size_t i = 0; i < nk; ++i) words[i] = load_le32(key.data() + 4 * i);
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = words[i - 1];
    if (i % nk == 0) {
      temp = sub_word((temp >> 8) | (temp << 24)) ^ kRcon[i / nk - 1];
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    words[i] = words[i - nk] ^ temp;
  }

  // Bitslice each round key, replicated across the four lanes.
  std::uint64_t q[8];  // ctlint:secret(q)
  for (std::size_t round = 0; round <= rounds_; ++round) {
    interleave_in(q[0], q[4], words + 4 * round);
    q[1] = q[2] = q[3] = q[0];
    q[5] = q[6] = q[7] = q[4];
    ortho(q);
    std::copy_n(q, 8, round_keys_.data() + 8 * round);
  }
  secure_wipe(q, sizeof(q));
  secure_wipe(words, sizeof(words));
}

void Aes::encrypt_block(
    std::span<std::uint8_t, kBlockSize> block) const noexcept {
  encrypt_blocks(block.data(), 1);
}

void Aes::encrypt_blocks(std::uint8_t* blocks,
                         std::size_t nblocks) const noexcept {
  std::uint64_t q[8];  // ctlint:secret(q)
  std::uint32_t w[4];
  for (std::size_t first = 0; first < nblocks; first += kLanes) {
    // A short tail group runs with zero blocks in the unused lanes.
    const std::size_t n = std::min(kLanes, nblocks - first);
    std::uint8_t* group = blocks + kBlockSize * first;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (std::size_t j = 0; j < 4; ++j) {
        w[j] = lane < n ? load_le32(group + kBlockSize * lane + 4 * j) : 0;
      }
      interleave_in(q[lane], q[lane + 4], w);
    }
    ortho(q);
    bitslice_encrypt(q, round_keys_.data(), rounds_);
    ortho(q);
    for (std::size_t lane = 0; lane < n; ++lane) {
      interleave_out(w, q[lane], q[lane + 4]);
      for (std::size_t b = 0; b < kBlockSize; ++b) {  // little-endian words
        group[kBlockSize * lane + b] =
            static_cast<std::uint8_t>(w[b / 4] >> (8 * (b % 4)));
      }
    }
  }
  secure_wipe(q, sizeof(q));
  secure_wipe(w, sizeof(w));
}

std::uint8_t aes_sbox(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>(sub_word(x));
}

namespace {

using Block = std::array<std::uint8_t, Aes::kBlockSize>;

// CTR keystream blocks generated per batch: two full four-lane passes.
constexpr std::size_t kCtrPipeline = 8;

// Doubles a 128-bit value in GF(2^128) for CMAC subkey derivation, with
// the reduction applied through a mask rather than a branch.
void cmac_double(Block& block) noexcept {
  const auto reduce = static_cast<std::uint8_t>(0x87 & -(block[0] >> 7));
  for (std::size_t i = 0; i < 15; ++i) {
    block[i] = static_cast<std::uint8_t>((block[i] << 1) | (block[i + 1] >> 7));
  }
  block[15] = static_cast<std::uint8_t>((block[15] << 1) ^ reduce);
}

// K1 = 2·E_K(0), K2 = 4·E_K(0) (SP 800-38B section 6.1).
void cmac_subkeys(const Aes& cipher, Block& k1, Block& k2) noexcept {
  Block l{};  // ctlint:secret
  cipher.encrypt_block(l);
  k1 = l;
  cmac_double(k1);
  k2 = k1;
  cmac_double(k2);
  secure_wipe(l.data(), l.size());
}

Bytes cmac(const Aes& cipher, const Block& k1, const Block& k2,
           ByteView data) {
  const std::size_t n_blocks = data.empty() ? 1 : (data.size() + 15) / 16;
  const bool last_complete = !data.empty() && data.size() % 16 == 0;

  Block x{};
  for (std::size_t b = 0; b + 1 < n_blocks; ++b) {
    for (std::size_t i = 0; i < 16; ++i) x[i] ^= data[16 * b + i];
    cipher.encrypt_block(x);
  }

  Block last{};
  const std::size_t tail_offset = 16 * (n_blocks - 1);
  const std::size_t tail_len = data.size() - tail_offset;
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(tail_offset),
              tail_len, last.begin());
  if (!last_complete) last[tail_len] = 0x80;
  const Block& subkey = last_complete ? k1 : k2;
  for (std::size_t i = 0; i < 16; ++i) x[i] ^= last[i] ^ subkey[i];
  cipher.encrypt_block(x);

  return Bytes(x.begin(), x.end());
}

Aes expand_cipher(ByteView prk, const char* info) {
  Bytes key = hkdf_expand(prk, bytes_of(info), 16);  // ctlint:secret
  const Aes cipher(key);
  secure_wipe(key);
  return cipher;
}

}  // namespace

Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data) {
  if (nonce16.size() != Aes::kBlockSize) {  // before any data is copied
    throw std::invalid_argument("aes_ctr: nonce must be 16 bytes");
  }
  Block counter{};
  std::memcpy(counter.data(), nonce16.data(), Aes::kBlockSize);

  // ctlint:secret(keystream) — keystream XOR ciphertext is the plaintext
  std::array<std::uint8_t, Aes::kBlockSize * kCtrPipeline> keystream{};
  Bytes out(data.begin(), data.end());
  for (std::size_t offset = 0; offset < out.size();
       offset += keystream.size()) {
    const std::size_t n = std::min(keystream.size(), out.size() - offset);
    const std::size_t blocks = (n + Aes::kBlockSize - 1) / Aes::kBlockSize;
    // The tail block may be generated in full and used partially — CTR
    // keystream is positional.
    for (std::size_t b = 0; b < blocks; ++b) {
      std::memcpy(keystream.data() + Aes::kBlockSize * b, counter.data(),
                  Aes::kBlockSize);
      // Increment the low 32 bits big-endian.
      for (int i = 15; i >= 12; --i) {
        if (++counter[static_cast<std::size_t>(i)] != 0) break;
      }
    }
    cipher.encrypt_blocks(keystream.data(), blocks);
    for (std::size_t i = 0; i < n; ++i) out[offset + i] ^= keystream[i];
  }
  secure_wipe(keystream.data(), keystream.size());
  return out;
}

Bytes aes_ctr(ByteView key, ByteView nonce16, ByteView data) {
  return aes_ctr(Aes(key), nonce16, data);
}

Bytes aes_cmac(ByteView key, ByteView data) {
  const Aes cipher(key);
  Block k1{};  // ctlint:secret
  Block k2{};  // ctlint:secret
  cmac_subkeys(cipher, k1, k2);
  Bytes tag = cmac(cipher, k1, k2, data);
  secure_wipe(k1.data(), k1.size());
  secure_wipe(k2.data(), k2.size());
  return tag;
}

// ---- Sealed frame -----------------------------------------------------------

struct SealKey::Prk {
  Bytes prk;  // ctlint:secret
  ~Prk() { secure_wipe(prk); }
};

// Independent sub-keys so the MAC key never touches the CTR keystream.
SealKey::SealKey(ByteView key)
    : SealKey(Prk{hkdf_extract(ByteView{}, key)}) {}

SealKey::SealKey(Prk&& prk)
    : enc_(expand_cipher(prk.prk, "np-enc")),
      mac_(expand_cipher(prk.prk, "np-mac")) {
  cmac_subkeys(mac_, k1_, k2_);
}

Bytes SealKey::seal(ByteView nonce16, ByteView plaintext) const {
  Bytes frame = aes_ctr(enc_, nonce16, plaintext);
  frame.insert(frame.begin(), nonce16.begin(), nonce16.end());
  const Bytes tag = cmac(mac_, k1_, k2_, frame);
  frame.insert(frame.end(), tag.begin(), tag.end());
  return frame;
}

Bytes SealKey::open(ByteView frame) const {
  if (frame.size() < 32) {
    throw std::runtime_error("aes_ctr_then_mac_open: frame too short");
  }
  const ByteView body = frame.first(frame.size() - 16);
  const ByteView tag = frame.subspan(frame.size() - 16);
  if (!ct_equal(tag, cmac(mac_, k1_, k2_, body))) {
    throw std::runtime_error("aes_ctr_then_mac_open: authentication failure");
  }
  return aes_ctr(enc_, body.first(16), body.subspan(16));
}

Bytes aes_ctr_then_mac_seal(ByteView key, ByteView nonce16,
                            ByteView plaintext) {
  return SealKey(key).seal(nonce16, plaintext);
}

Bytes aes_ctr_then_mac_open(ByteView key, ByteView frame) {
  return SealKey(key).open(frame);
}

}  // namespace neuropuls::crypto
