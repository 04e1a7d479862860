// AES-128/192/256 (FIPS 197) with CTR mode and CMAC (NIST SP 800-38B).
//
// Table I of the paper specifies that the neural-network configuration,
// inputs, and outputs cross the hardware boundary only in encrypted form.
// The accelerator model (`src/accel`) uses AES-CTR for that bulk
// encryption and CMAC as an authentication option. Only the forward
// cipher exists: CTR and CMAC never run the block cipher backwards.
//
// The cipher is one portable bitsliced core over 64-bit words: four
// blocks per state in the BearSSL `aes_ct64` layout, SubBytes as the
// Boyar–Peralta S-box circuit, and a key schedule that runs SubWord
// through that same circuit. No table is indexed by key or state, and no
// branch depends on them, so the running time depends only on the
// lengths. Every path (single blocks, CTR, CMAC, key expansion and
// `aes_sbox`) goes through the one core; there are no intrinsics and no
// runtime CPU dispatch.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto {

/// An AES block cipher keyed at construction. Supports 128/192/256-bit keys.
/// The bitsliced round keys are wiped on destruction.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Throws std::invalid_argument unless key is 16, 24, or 32 bytes.
  explicit Aes(ByteView key);
  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::span<std::uint8_t, kBlockSize> block) const noexcept;

  /// Encrypts `nblocks` contiguous 16-byte blocks in place, four per
  /// bitsliced pass (CTR keystream generation is exactly this shape).
  /// Bit-identical to nblocks encrypt_block calls.
  void encrypt_blocks(std::uint8_t* blocks, std::size_t nblocks) const noexcept;

  std::size_t rounds() const noexcept { return rounds_; }

 private:
  // Up to 15 round keys (AES-256), each as eight bit-planes replicated
  // across the four block lanes of the bitsliced state.
  std::array<std::uint64_t, 8 * 15> round_keys_{};  // ctlint:secret
  std::size_t rounds_ = 0;

  // Defined in-class after the schedule so ctlint's missing-wipe scan,
  // which is scoped to the declaring class, sees the wipe.
 public:
  ~Aes() { secure_wipe(round_keys_.data(), sizeof(round_keys_)); }
};

/// AES-CTR stream transform. Encryption and decryption are the same
/// operation. `nonce` is the initial 16-byte counter block; the low 32 bits
/// are incremented big-endian per block (NIST SP 800-38A style).
Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data);

/// Convenience overload constructing the cipher from a raw key.
Bytes aes_ctr(ByteView key, ByteView nonce16, ByteView data);

/// CMAC (OMAC1) over `data` with the given AES key. Returns a 16-byte tag.
Bytes aes_cmac(ByteView key, ByteView data);

/// The AES S-box, evaluated through the bitsliced circuit (exposed for the
/// side-channel analyses, which model first-round S-box leakage).
std::uint8_t aes_sbox(std::uint8_t x) noexcept;

/// The Encrypt-then-MAC key context of the sealed frame used at the
/// accelerator hardware boundary. Derives, once per key, the AES-128
/// encryption schedule and MAC schedule (HKDF-SHA256 with info "np-enc"
/// and "np-mac" from one extract) and the CMAC subkeys K1/K2, so a holder
/// seals and opens frames without any per-call derivation. Every derived
/// byte is wiped on destruction.
/// Frame layout: nonce(16) || ciphertext || tag(16).
class SealKey {
 public:
  /// Any key length is accepted (it is HKDF input keying material).
  explicit SealKey(ByteView key);
  SealKey(const SealKey&) = delete;
  SealKey& operator=(const SealKey&) = delete;

  Bytes seal(ByteView nonce16, ByteView plaintext) const;

  /// Throws std::runtime_error on authentication failure or malformed frame.
  Bytes open(ByteView frame) const;

 private:
  struct Prk;  // holds the HKDF pseudorandom key; wipes it on destruction
  explicit SealKey(Prk&& prk);

  Aes enc_;
  Aes mac_;
  std::array<std::uint8_t, 16> k1_{};  // ctlint:secret
  std::array<std::uint8_t, 16> k2_{};  // ctlint:secret

 public:
  ~SealKey() {
    secure_wipe(k1_.data(), k1_.size());
    secure_wipe(k2_.data(), k2_.size());
  }
};

/// One-shot SealKey(key).seal(nonce16, plaintext).
Bytes aes_ctr_then_mac_seal(ByteView key, ByteView nonce16, ByteView plaintext);

/// One-shot SealKey(key).open(frame).
Bytes aes_ctr_then_mac_open(ByteView key, ByteView frame);

}  // namespace neuropuls::crypto
