// Repetition/concatenated-code and fuzzy-extractor tests: key stability
// under noise, helper-data non-secrecy, and failure beyond the radius.
#include <gtest/gtest.h>

#include "crypto/prng.hpp"
#include "ecc/fuzzy_extractor.hpp"

namespace neuropuls::ecc {
namespace {

TEST(BitVecPacking, RoundTrip) {
  const BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  const auto packed = pack_bits(bits);
  EXPECT_EQ(packed.size(), 2u);
  EXPECT_EQ(unpack_bits(packed, bits.size()), bits);
}

TEST(BitVecPacking, MsbFirstLayout) {
  const BitVec bits = {1, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(pack_bits(bits), (crypto::Bytes{0x81}));
}

TEST(BitVecPacking, TooSmallBufferThrows) {
  EXPECT_THROW(unpack_bits(crypto::Bytes{0xff}, 9), std::invalid_argument);
}

TEST(Repetition, RejectsEvenR) {
  EXPECT_THROW(RepetitionCode(2), std::invalid_argument);
  EXPECT_THROW(RepetitionCode(0), std::invalid_argument);
}

TEST(Repetition, MajorityCorrectsMinorityFlips) {
  const RepetitionCode code(5);
  const BitVec msg = {1, 0, 1};
  BitVec cw = code.encode(msg);
  ASSERT_EQ(cw.size(), 15u);
  // Flip 2 of the 5 copies of each bit — still decodable.
  cw[0] ^= 1; cw[1] ^= 1;
  cw[5] ^= 1; cw[9] ^= 1;
  cw[10] ^= 1; cw[14] ^= 1;
  EXPECT_EQ(code.decode(cw), msg);
}

TEST(Repetition, LengthMismatchThrows) {
  EXPECT_THROW(RepetitionCode(3).decode(BitVec(4, 0)), std::invalid_argument);
}

TEST(Concatenated, RoundTripNoNoise) {
  const ConcatenatedCode code(BchCode(5, 3), RepetitionCode(3));
  rng::Xoshiro256 rng(5);
  BitVec msg(code.message_bits());
  for (auto& b : msg) b = rng.coin() ? 1 : 0;
  const BitVec cw = code.encode(msg);
  EXPECT_EQ(cw.size(), code.codeword_bits());
  const auto decoded = code.decode(cw);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(Concatenated, SurvivesModerateRandomNoise) {
  // BCH(31,16,t=3) ⊗ rep-3: raw BER of 5% should almost always decode.
  const ConcatenatedCode code(BchCode(5, 3), RepetitionCode(3));
  rng::Xoshiro256 rng(6);
  int successes = 0;
  constexpr int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    BitVec msg(code.message_bits());
    for (auto& b : msg) b = rng.coin() ? 1 : 0;
    BitVec noisy = code.encode(msg);
    for (auto& b : noisy) {
      if (rng.bernoulli(0.05)) b ^= 1;
    }
    const auto decoded = code.decode(noisy);
    if (decoded && *decoded == msg) ++successes;
  }
  EXPECT_GE(successes, 95);
}

TEST(FuzzyExtractor, KeyStableUnderNoise) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("enrollment"));
  rng::Xoshiro256 noise(42);

  // A random reference response.
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;

  const auto enrolled = fe.generate(w, drbg);
  EXPECT_EQ(enrolled.key.size(), fe.key_bytes());

  // 6% raw BER re-readings reproduce the exact same key.
  for (int reading = 0; reading < 20; ++reading) {
    BitVec w_prime = w;
    for (auto& b : w_prime) {
      if (noise.bernoulli(0.06)) b ^= 1;
    }
    const auto key = fe.reproduce(w_prime, enrolled.helper);
    ASSERT_TRUE(key.has_value()) << "reading " << reading;
    EXPECT_EQ(*key, enrolled.key);
  }
}

TEST(FuzzyExtractor, FailsBeyondRadius) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("enrollment"));
  rng::Xoshiro256 noise(43);
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  const auto enrolled = fe.generate(w, drbg);

  // 40% BER is far outside the radius: reproduction must not return the
  // enrolled key (either nullopt or a decode onto a different codeword).
  int exact_matches = 0;
  for (int reading = 0; reading < 20; ++reading) {
    BitVec w_prime = w;
    for (auto& b : w_prime) {
      if (noise.bernoulli(0.40)) b ^= 1;
    }
    const auto key = fe.reproduce(w_prime, enrolled.helper);
    if (key && *key == enrolled.key) ++exact_matches;
  }
  EXPECT_EQ(exact_matches, 0);
}

TEST(FuzzyExtractor, HelperDataDoesNotDetermineKey) {
  // Two devices with different responses but helper data generated from
  // the same DRBG stream must get different keys; and the sketch alone
  // (without w) must not reproduce the key.
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("x"));
  rng::Xoshiro256 noise(44);

  BitVec w1(fe.response_bits()), w2(fe.response_bits());
  for (auto& b : w1) b = noise.coin() ? 1 : 0;
  for (auto& b : w2) b = noise.coin() ? 1 : 0;

  const auto e1 = fe.generate(w1, drbg);
  const auto e2 = fe.generate(w2, drbg);
  EXPECT_NE(e1.key, e2.key);

  // An attacker holding only the helper data guesses w as all-zeros.
  const BitVec zero(fe.response_bits(), 0);
  const auto guessed = fe.reproduce(zero, e1.helper);
  if (guessed) {
    EXPECT_NE(*guessed, e1.key);
  }
}

TEST(FuzzyExtractor, DistinctSaltsDistinctKeysSameResponse) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("y"));
  rng::Xoshiro256 noise(45);
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  const auto e1 = fe.generate(w, drbg);
  const auto e2 = fe.generate(w, drbg);
  EXPECT_NE(e1.key, e2.key);  // fresh codeword + salt each enrollment
  // But each enrollment remains individually reproducible.
  EXPECT_EQ(fe.reproduce(w, e1.helper).value(), e1.key);
  EXPECT_EQ(fe.reproduce(w, e2.helper).value(), e2.key);
}

TEST(HelperSerialization, RoundTripPreservesReproduction) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("ser"));
  rng::Xoshiro256 noise(46);
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  const auto enrolled = fe.generate(w, drbg);

  const crypto::Bytes blob = serialize_helper(enrolled.helper);
  const HelperData restored = deserialize_helper(blob);
  EXPECT_EQ(restored.sketch, enrolled.helper.sketch);
  EXPECT_EQ(restored.salt, enrolled.helper.salt);
  // The restored helper reproduces the same key.
  EXPECT_EQ(fe.reproduce(w, restored).value(), enrolled.key);
}

TEST(HelperSerialization, RejectsMalformedBlobs) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("ser2"));
  BitVec w(fe.response_bits(), 1);
  const auto enrolled = fe.generate(w, drbg);
  crypto::Bytes blob = serialize_helper(enrolled.helper);

  EXPECT_THROW(deserialize_helper(crypto::Bytes(3, 0)), std::runtime_error);
  EXPECT_THROW(
      deserialize_helper(crypto::ByteView(blob).first(blob.size() - 1)),
      std::runtime_error);
  crypto::Bytes trailing = blob;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_helper(trailing), std::runtime_error);
  crypto::Bytes huge(8, 0xFF);  // implausible sketch size
  EXPECT_THROW(deserialize_helper(huge), std::runtime_error);
}

TEST(FuzzyExtractor, WrongSizesThrow) {
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("z"));
  EXPECT_THROW(fe.generate(BitVec(10, 0), drbg), std::invalid_argument);
  // Wrong *measurement* length is a caller bug and throws...
  HelperData ok_helper;
  ok_helper.sketch = BitVec(fe.response_bits(), 0);
  EXPECT_THROW(fe.reproduce(BitVec(10, 0), ok_helper), std::invalid_argument);
  EXPECT_THROW(
      FuzzyExtractor(ConcatenatedCode(BchCode(5, 3), RepetitionCode(3)), 0),
      std::invalid_argument);
  EXPECT_THROW(
      FuzzyExtractor(ConcatenatedCode(BchCode(5, 3), RepetitionCode(3)), 33),
      std::invalid_argument);
}

TEST(FuzzyExtractor, WrongHelperLengthRejectsCleanly) {
  // ...but a wrong-length *helper* is corrupted storage, an operational
  // fault: clean rejection, same as an uncorrectable reading.
  const FuzzyExtractor fe = make_default_extractor();
  const BitVec w_prime(fe.response_bits(), 0);
  for (const std::size_t bad_len :
       {std::size_t{0}, std::size_t{10}, fe.response_bits() - 1,
        fe.response_bits() + 1, fe.response_bits() * 2}) {
    HelperData bad;
    bad.sketch = BitVec(bad_len, 0);
    EXPECT_EQ(fe.reproduce(w_prime, bad), std::nullopt) << bad_len;
  }
}

TEST(FuzzyExtractor, BitFlippedHelperNeverYieldsEnrolledKey) {
  // Flip every sketch bit position in turn. A single flip lands within
  // the code radius, so decode recovers a *shifted* response — the
  // derived key must differ from the enrolled one (or reject); silently
  // reproducing the enrolled key from tampered helper data would defeat
  // the integrity story of the degradation layer.
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("corrupt"));
  rng::Xoshiro256 noise(47);
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  const auto enrolled = fe.generate(w, drbg);

  for (std::size_t bit = 0; bit < enrolled.helper.sketch.size(); ++bit) {
    HelperData corrupted = enrolled.helper;
    corrupted.sketch[bit] ^= 1;
    const auto key = fe.reproduce(w, corrupted);
    if (key) {
      EXPECT_NE(*key, enrolled.key) << "sketch bit " << bit;
    }
  }
}

TEST(FuzzyExtractor, HeavilyCorruptedHelperRejectsOrDiverges) {
  // Multi-bit helper corruption at increasing densities: never UB, never
  // the enrolled key by accident, never a crash.
  const FuzzyExtractor fe = make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("corrupt2"));
  rng::Xoshiro256 noise(48);
  BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  const auto enrolled = fe.generate(w, drbg);

  for (const double rate : {0.05, 0.20, 0.50}) {
    for (int trial = 0; trial < 10; ++trial) {
      HelperData corrupted = enrolled.helper;
      for (auto& b : corrupted.sketch) {
        if (noise.bernoulli(rate)) b ^= 1;
      }
      const auto key = fe.reproduce(w, corrupted);
      if (key) {
        EXPECT_NE(*key, enrolled.key) << "rate " << rate;
      }
    }
  }
}

}  // namespace
}  // namespace neuropuls::ecc
