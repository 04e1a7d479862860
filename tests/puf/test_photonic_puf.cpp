// Tests for the photonic PUF and its compositions — the §II-A statistical
// claims (intra/inter Hamming distance), the §III-B speed claim, and the
// §IV chip-binding / challenge-encryption constructions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "faults/device_faults.hpp"

#include "puf/composite.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::puf {
namespace {

TEST(PhotonicPuf, RejectsBadConfig) {
  PhotonicPufConfig cfg = small_photonic_config();
  cfg.challenge_bits = 12;  // not a multiple of 8
  EXPECT_THROW(PhotonicPuf(cfg, 1, 0), std::invalid_argument);
  PhotonicPufConfig cfg2 = small_photonic_config();
  cfg2.samples_per_bit = 0;
  EXPECT_THROW(PhotonicPuf(cfg2, 1, 0), std::invalid_argument);
}

TEST(PhotonicPuf, WrongChallengeSizeThrows) {
  PhotonicPuf puf(small_photonic_config(), 1, 0);
  EXPECT_THROW(puf.evaluate(Challenge(1, 0)), std::invalid_argument);
}

TEST(PhotonicPuf, SizesConsistent) {
  PhotonicPuf puf(small_photonic_config(), 1, 0);
  EXPECT_EQ(puf.challenge_bytes(), 2u);   // 16 bits
  EXPECT_EQ(puf.response_bits(), 32u);    // 16 windows x 2 pairs
  EXPECT_EQ(puf.response_bytes(), 4u);
  const Response r = puf.evaluate(Challenge(2, 0xC3));
  EXPECT_EQ(r.size(), 4u);
}

TEST(PhotonicPuf, NoiselessIsDeterministic) {
  PhotonicPuf puf(small_photonic_config(), 3, 1);
  const Challenge c(2, 0x5A);
  EXPECT_EQ(puf.evaluate_noiseless(c), puf.evaluate_noiseless(c));
}

TEST(PhotonicPuf, ReliabilityIntraDistanceSmall) {
  PhotonicPuf puf(small_photonic_config(), 3, 1);
  const Challenge c(2, 0x5A);
  const Response ref = puf.evaluate_noiseless(c);
  const double intra = intra_distance(puf, c, ref, 10);
  EXPECT_LT(intra, 0.12);
}

TEST(PhotonicPuf, InterDeviceNearHalf) {
  // §II-A: "fractional Hamming distance close to 50% ... inter-device".
  const PhotonicPufConfig cfg = small_photonic_config();
  crypto::ChaChaDrbg rng(crypto::bytes_of("inter-phot"));
  double total = 0.0;
  int pairs = 0;
  constexpr int kDevices = 6;
  std::vector<std::unique_ptr<PhotonicPuf>> devices;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back(std::make_unique<PhotonicPuf>(cfg, 99, d));
  }
  for (int trial = 0; trial < 4; ++trial) {
    const Challenge c = rng.generate(2);
    for (int a = 0; a < kDevices; ++a) {
      for (int b = a + 1; b < kDevices; ++b) {
        total += crypto::fractional_hamming_distance(
            devices[a]->evaluate_noiseless(c),
            devices[b]->evaluate_noiseless(c));
        ++pairs;
      }
    }
  }
  EXPECT_NEAR(total / pairs, 0.5, 0.12);
}

TEST(PhotonicPuf, ChallengeSensitivity) {
  // Flipping one challenge bit must change a macroscopic fraction of
  // response bits (strong-PUF avalanche, helped by the ring memory).
  PhotonicPuf puf(small_photonic_config(), 5, 2);
  Challenge c(2, 0x0F);
  const Response r1 = puf.evaluate_noiseless(c);
  c[0] ^= 0x80;  // flip the first bit (early in time, affects later bits)
  const Response r2 = puf.evaluate_noiseless(c);
  EXPECT_GT(crypto::fractional_hamming_distance(r1, r2), 0.02);
}

TEST(PhotonicPuf, AnalogAndDigitalAgree) {
  PhotonicPuf puf(small_photonic_config(), 5, 2);
  const Challenge c(2, 0x3C);
  const auto analog = puf.evaluate_analog(c, /*noisy=*/false);
  const Response digital = puf.evaluate_noiseless(c);
  std::size_t bit = 0;
  for (const auto& row : analog) {
    for (double delta : row) {
      const bool d = (digital[bit / 8] >> (7 - bit % 8)) & 1;
      EXPECT_EQ(d, delta > 0.0) << "bit " << bit;
      ++bit;
    }
  }
}

TEST(PhotonicPuf, TemperatureChangesResponses) {
  PhotonicPuf puf(small_photonic_config(), 7, 0);
  const Challenge c(2, 0xAA);
  const Response cold = puf.evaluate_noiseless(c);
  puf.set_temperature(320.0);
  const Response hot = puf.evaluate_noiseless(c);
  EXPECT_GT(crypto::fractional_hamming_distance(cold, hot), 0.0);
}

TEST(PhotonicPuf, LaserPowerScalingFlipsOnlyMinorityOfBits) {
  // Differential readout self-references the optical power, so a modest
  // global power change flips only the bits whose calibrated margin is
  // small — a minority, far from the fresh-device distance of ~50%.
  PhotonicPuf puf(small_photonic_config(), 7, 0);
  const Challenge c(2, 0xAA);
  const Response nominal = puf.evaluate_noiseless(c);
  puf.set_laser_power_scale(1.3);
  const Response boosted = puf.evaluate_noiseless(c);
  EXPECT_LT(crypto::fractional_hamming_distance(nominal, boosted), 0.30);
}

TEST(PhotonicPuf, ThroughputMeetsAttestationClaim) {
  // §III-B: "the inherent speed of the pPUF (at least 5 Gb/s)". With the
  // full-size configuration the response throughput must clear that bar.
  PhotonicPufConfig cfg;  // defaults: 8 ports, 64-bit challenges, 25 GS/s
  PhotonicPuf puf(cfg, 11, 0);
  EXPECT_GE(puf.response_throughput_bps(), 5e9);
  EXPECT_LT(puf.interrogation_time_s(), 100e-9);  // §IV lifetime bound
}

TEST(PhotonicPuf, ResponseLifetimeBelow100ns) {
  PhotonicPuf puf(small_photonic_config(), 11, 0);
  EXPECT_LT(puf.interrogation_time_s(), 100e-9);
}

// ---- PUF-level golden digests ------------------------------------------------
//
// SHA-256 digests of everything a PhotonicPuf measurement returns, fixed
// from a reference build: responses (noisy and noiseless), thermally
// compensated model responses, analog margins, and the faulted noisy path
// (serial and batch). Any change to the evaluation engine that moves one
// response bit or one margin ulp fails here, on every build flavor.

constexpr std::size_t kGoldenChallenges = 64;

std::vector<Challenge> golden_challenges(const PhotonicPuf& puf) {
  crypto::ChaChaDrbg rng(crypto::bytes_of("np-phot-golden"));
  std::vector<Challenge> out;
  for (std::size_t i = 0; i < kGoldenChallenges; ++i) {
    out.push_back(rng.generate(puf.challenge_bytes()));
  }
  return out;
}

std::string digest_of(const std::vector<Response>& responses) {
  crypto::Sha256 h;
  for (const auto& r : responses) h.update(r);
  const auto d = h.finalize();
  return crypto::to_hex(d);
}

// Margins hashed as little-endian IEEE-754 binary64, row by row.
void absorb_margins(crypto::Sha256& h,
                    const std::vector<std::vector<double>>& margins) {
  for (const auto& row : margins) {
    for (double v : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      std::uint8_t le[8];
      for (std::size_t k = 0; k < 8; ++k) {
        le[k] = static_cast<std::uint8_t>(bits >> (8 * k));
      }
      h.update(le);
    }
  }
}

struct GoldenDigests {
  const char* evaluate;
  const char* noiseless;
  const char* noiseless_plus_5k;
  const char* noisy_margins;
};

void expect_golden(const PhotonicPufConfig& cfg, const GoldenDigests& want) {
  PhotonicPuf puf(cfg, 0x601D, 3);
  const auto challenges = golden_challenges(puf);
  std::vector<Response> noisy;
  std::vector<Response> noiseless;
  std::vector<Response> warm;
  for (const auto& c : challenges) {
    noisy.push_back(puf.evaluate(c));
    noiseless.push_back(puf.evaluate_noiseless(c));
    warm.push_back(puf.evaluate_noiseless_at(c, cfg.temperature + 5.0));
  }
  crypto::Sha256 margins;
  for (const auto& c : challenges) {
    absorb_margins(margins, puf.evaluate_analog(c, /*noisy=*/true));
  }
  EXPECT_EQ(digest_of(noisy), want.evaluate);
  EXPECT_EQ(digest_of(noiseless), want.noiseless);
  EXPECT_EQ(digest_of(warm), want.noiseless_plus_5k);
  EXPECT_EQ(crypto::to_hex(margins.finalize()), want.noisy_margins);
}

TEST(PhotonicPufGolden, SmallConfig) {
  expect_golden(
      small_photonic_config(),
      {"566d4b51da83371b9b15c6d30c0c711355c9d7b506f106aecc1803ff94b57267",
       "f3d48779144258168bd923400117a181f5c8b7c3152353c2b729fb67ac96c0d4",
       "f43226f09ed341252ab0e486c858b453cfe7b051225c402fd2bb2e03abda4366",
       "4137a6f297fdf7704bfb00906cc955477753fc0f727ed3de480de3cea74dee3d"});
}

TEST(PhotonicPufGolden, DefaultConfig) {
  expect_golden(
      PhotonicPufConfig{},
      {"5af9f94825d034555bd3d7c09811f98b69a9ba88d0975c0998f3ecf2a3493fb5",
       "d230791eaebd01cee3bc2c1874f98b8cb893a9801188ecd1f1f85ba8b77ed1ab",
       "e949d651cc3625b9b3e7965fc0dfb2cf91171f355cf4917c2c716b5afbca9cbd",
       "4c56bc07a51775baf6792caf661e7f82dd688763b46dc26016cfc40928604d11"});
}

TEST(PhotonicPufGolden, FaultedSerialAndBatch) {
  faults::DeviceFaultConfig faults;
  faults.photodiodes.push_back({/*port=*/1, /*responsivity_scale=*/0.0});
  faults.thermal = {/*spike_probability=*/0.3, /*magnitude_kelvin=*/3.0};
  faults.laser_droop = {/*droop_per_eval=*/1e-3, /*floor_scale=*/0.8};
  faults.phase_aging = {/*drift_rad_per_eval=*/1e-3, /*max_drift_rad=*/0.3};
  const auto model =
      std::make_shared<const faults::DeviceFaultModel>(faults, 0xFA17);
  for (const auto& cfg : {small_photonic_config(), PhotonicPufConfig{}}) {
    PhotonicPuf serial(cfg, 0x601D, 3);
    PhotonicPuf batched(cfg, 0x601D, 3);
    serial.set_fault_model(model);
    batched.set_fault_model(model);
    const auto challenges = golden_challenges(serial);
    std::vector<Response> sequence;
    for (const auto& c : challenges) sequence.push_back(serial.evaluate(c));
    const char* want =
        cfg.design.ports == 4
            ? "cd8daf3afc091ad287ae6d1a47ada7dbddf3460680f42cc8357d435f1badceef"
            : "86231e0b840773bc65671a67623769e92f683bc048d0ae2c3bd9f2ffc41d6587";
    EXPECT_EQ(digest_of(sequence), want) << cfg.design.ports << " ports";
    EXPECT_EQ(digest_of(batched.evaluate_batch(challenges)), want)
        << cfg.design.ports << " ports";
  }
}

// ---- Challenge encryption ----------------------------------------------------

TEST(EncryptedChallengePuf, TransformIsDeterministicAndKeyed) {
  auto inner = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  const Response weak_key = crypto::bytes_of("weak puf key material");
  EncryptedChallengePuf wrapped(std::move(inner), weak_key);
  const Challenge c(2, 0x42);
  EXPECT_EQ(wrapped.transform(c), wrapped.transform(c));
  EXPECT_NE(wrapped.transform(c), c);

  auto inner2 = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  EncryptedChallengePuf other(std::move(inner2),
                              crypto::bytes_of("different key"));
  EXPECT_NE(wrapped.transform(c), other.transform(c));
}

TEST(EncryptedChallengePuf, ConsistentWithInnerOnTransformedChallenge) {
  PhotonicPuf reference(small_photonic_config(), 13, 0);
  auto inner = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  const Response weak_key = crypto::bytes_of("key");
  EncryptedChallengePuf wrapped(std::move(inner), weak_key);
  const Challenge c(2, 0x42);
  EXPECT_EQ(wrapped.evaluate_noiseless(c),
            reference.evaluate_noiseless(wrapped.transform(c)));
}

TEST(EncryptedChallengePuf, NullInnerThrows) {
  EXPECT_THROW(EncryptedChallengePuf(nullptr, crypto::bytes_of("k")),
               std::invalid_argument);
}

// ---- Composite PIC+ASIC -------------------------------------------------------

CompositePuf make_composite(std::uint64_t pic_index,
                            std::uint64_t asic_seed) {
  return CompositePuf(
      std::make_unique<PhotonicPuf>(small_photonic_config(), 31, pic_index),
      std::make_unique<SramPuf>(SramPufConfig{}, asic_seed));
}

TEST(CompositePuf, GenuinePairingIsStable) {
  CompositePuf genuine = make_composite(0, 100);
  const Challenge c(2, 0x99);
  const Response ref = genuine.evaluate_noiseless(c);
  // Noisy evaluations stay close to the reference.
  EXPECT_LT(crypto::fractional_hamming_distance(genuine.evaluate(c), ref),
            0.15);
}

TEST(CompositePuf, SwappedPicDetected) {
  CompositePuf genuine = make_composite(0, 100);
  CompositePuf tampered = make_composite(1, 100);  // attacker swapped PIC
  crypto::ChaChaDrbg rng(crypto::bytes_of("swap-pic"));
  double d = 0.0;
  constexpr int kChallenges = 8;
  for (int i = 0; i < kChallenges; ++i) {
    const Challenge c = rng.generate(2);
    d += crypto::fractional_hamming_distance(
        genuine.evaluate_noiseless(c), tampered.evaluate_noiseless(c));
  }
  EXPECT_GT(d / kChallenges, 0.2);
}

TEST(CompositePuf, SwappedAsicDetected) {
  CompositePuf genuine = make_composite(0, 100);
  CompositePuf tampered = make_composite(0, 101);  // attacker swapped ASIC
  const Challenge c(2, 0x99);
  const double d = crypto::fractional_hamming_distance(
      genuine.evaluate_noiseless(c), tampered.evaluate_noiseless(c));
  EXPECT_NEAR(d, 0.5, 0.2);  // keystream mask decorrelates completely
}

TEST(CompositePuf, NullChipThrows) {
  EXPECT_THROW(
      CompositePuf(nullptr, std::make_unique<SramPuf>(SramPufConfig{}, 1)),
      std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls::puf
