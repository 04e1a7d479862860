#include "ecc/fuzzy_extractor.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"

namespace neuropuls::ecc {

FuzzyExtractor::FuzzyExtractor(ConcatenatedCode code, std::size_t key_bytes)
    : code_(std::move(code)), key_bytes_(key_bytes) {
  if (key_bytes_ == 0 || key_bytes_ > crypto::Sha256::kDigestSize) {
    throw std::invalid_argument(
        "FuzzyExtractor: key size must be in [1, 32] bytes");
  }
}

crypto::Bytes FuzzyExtractor::derive_key(const BitVec& codeword,
                                         crypto::ByteView salt) const {
  crypto::Sha256 h;
  h.update(crypto::bytes_of("np-fe-v1"));
  h.update(salt);
  h.update(pack_bits(codeword));
  const auto digest = h.finalize();
  return crypto::Bytes(digest.begin(),
                       digest.begin() + static_cast<std::ptrdiff_t>(key_bytes_));
}

ExtractionResult FuzzyExtractor::generate(const BitVec& w,
                                          crypto::ChaChaDrbg& rng) const {
  if (w.size() != code_.codeword_bits()) {
    throw std::invalid_argument("FuzzyExtractor::generate: wrong length");
  }

  // Random message -> random codeword.
  const crypto::Bytes msg_bytes = rng.generate((code_.message_bits() + 7) / 8);
  const BitVec message = unpack_bits(msg_bytes, code_.message_bits());
  const BitVec codeword = code_.encode(message);

  ExtractionResult out;
  out.helper.sketch = xor_bits(w, codeword);
  out.helper.salt = rng.generate(16);
  // Key from the *response* (not the codeword): given the public sketch
  // the two are equivalent to an attacker, but deriving from w keeps the
  // key device-bound even if the enrollment RNG stream were reused.
  out.key = derive_key(w, out.helper.salt);
  return out;
}

std::optional<crypto::Bytes> FuzzyExtractor::reproduce(
    const BitVec& w_prime, const HelperData& helper) const {
  if (w_prime.size() != code_.codeword_bits()) {
    // Wrong measurement length is a caller bug — loud failure.
    throw std::invalid_argument("FuzzyExtractor::reproduce: wrong length");
  }
  if (helper.sketch.size() != code_.codeword_bits()) {
    // Wrong *helper* length is corrupted/truncated public storage, an
    // operational fault the degradation layer must survive: reject
    // cleanly, exactly like an uncorrectable reading.
    return std::nullopt;
  }
  const BitVec noisy_codeword = xor_bits(w_prime, helper.sketch);
  const auto codeword = code_.decode_codeword(noisy_codeword);
  if (!codeword) return std::nullopt;
  // Reconstruct the enrolled response: w = codeword XOR sketch.
  const BitVec w_recovered = xor_bits(*codeword, helper.sketch);
  return derive_key(w_recovered, helper.salt);
}

crypto::Bytes serialize_helper(const HelperData& helper) {
  crypto::Bytes out;
  crypto::append_u32_be(out, static_cast<std::uint32_t>(helper.sketch.size()));
  const crypto::Bytes packed = pack_bits(helper.sketch);
  out.insert(out.end(), packed.begin(), packed.end());
  crypto::append_prefixed(out, helper.salt);
  return out;
}

HelperData deserialize_helper(crypto::ByteView blob) {
  crypto::ByteReader reader(blob, "deserialize_helper");
  const std::uint32_t sketch_bits = reader.u32();
  if (sketch_bits == 0 || sketch_bits > (1u << 24)) {
    reader.fail("implausible sketch size");
  }
  HelperData helper;
  helper.sketch =
      unpack_bits(reader.bytes((sketch_bits + 7) / 8), sketch_bits);
  const crypto::ByteView salt = reader.prefixed();
  if (!reader.done()) reader.fail("length mismatch");
  helper.salt.assign(salt.begin(), salt.end());
  return helper;
}

FuzzyExtractor make_default_extractor(std::size_t key_bytes) {
  // BCH(127, k>=64, t=10) outer; repetition-5 inner: 635-bit responses.
  return FuzzyExtractor(
      ConcatenatedCode(BchCode(7, 10), RepetitionCode(5)), key_bytes);
}

}  // namespace neuropuls::ecc
