// Fleet simulator tests (ctest labels: fleet, concurrency).
//
// The simulator's contracts, exercised on small fleets:
//   * enrollment is a pure function of the fleet seed — the store
//     contents and the sampled uniqueness estimate are bit-identical at
//     any thread count and chunk size,
//   * the synthetic PUF honours the statistical contract the photonic
//     device sets (uniqueness ~0.5, noise tracking error_rate, real
//     mutual-auth handshakes converge),
//   * lifecycle campaigns (rotation, revocation, quarantine
//     re-enrollment) maintain the no-keyless-device invariant, and
//   * resume_rotation after a completed sweep is a no-op (idempotence).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "crypto/bytes.hpp"
#include "fleet/fleet.hpp"
#include "metrics/population.hpp"
#include "puf/crp_db.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::fleet {
namespace {

FleetConfig small_config(std::size_t devices, std::size_t generations) {
  FleetConfig config;
  config.devices = devices;
  config.generations = generations;
  config.wave_size = 64;
  return config;
}

TEST(FleetEnroll, BitIdenticalAcrossThreadCountsAndChunks) {
  common::ThreadPool one(1);
  common::ThreadPool four(4);

  FleetConfig serial_config = small_config(300, 2);
  serial_config.pool = &one;
  serial_config.enroll_chunk = 7;  // ragged chunking on purpose
  puf::CrpDatabase serial_db(1);
  FleetSimulator serial(serial_config, serial_db);
  const EnrollReport serial_report = serial.enroll();

  FleetConfig parallel_config = small_config(300, 2);
  parallel_config.pool = &four;
  parallel_config.enroll_chunk = 128;
  puf::CrpDatabase parallel_db(8);
  FleetSimulator parallel(parallel_config, parallel_db);
  const EnrollReport parallel_report = parallel.enroll();

  EXPECT_EQ(serial_db.size(), parallel_db.size());
  EXPECT_EQ(serial_report.crps, 600u);
  // Hash-sampling selects a schedule-independent device set and the
  // chunked uniqueness reduction is order-fixed: exact equality.
  EXPECT_EQ(serial_report.sampled_devices, parallel_report.sampled_devices);
  EXPECT_EQ(serial_report.uniqueness_estimate,
            parallel_report.uniqueness_estimate);
  for (std::size_t device = 0; device < 300; device += 17) {
    for (std::uint32_t g = 0; g < 2; ++g) {
      const auto a = serial_db.lookup(serial.challenge_of(device, g));
      const auto b = parallel_db.lookup(parallel.challenge_of(device, g));
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(FleetEnroll, NaiveSerialProducesTheSameStore) {
  puf::CrpDatabase batch_db(4);
  FleetSimulator batch(small_config(50, 2), batch_db);
  batch.enroll();

  puf::CrpDatabase naive_db(4);
  FleetSimulator naive(small_config(50, 2), naive_db);
  naive.enroll_naive_serial();

  ASSERT_EQ(batch_db.size(), naive_db.size());
  for (std::size_t device = 0; device < 50; ++device) {
    for (std::uint32_t g = 0; g < 2; ++g) {
      EXPECT_EQ(batch_db.lookup(batch.challenge_of(device, g)),
                naive_db.lookup(naive.challenge_of(device, g)));
    }
  }
}

TEST(FleetEnroll, ChallengeCollisionFailsLoudly) {
  // A derived challenge that is already stored (another device's, or a
  // stale entry) must stop every CRP-storing path. Skipping it silently
  // would leave the device authenticating against the stored response,
  // which is not its own.
  const auto plant = [](puf::CrpDatabase& db, const FleetSimulator& fleet,
                        std::size_t device, std::uint32_t generation) {
    puf::Crp crp;
    crp.challenge = fleet.challenge_of(device, generation);
    crp.response = crypto::Bytes(16, 0xEE);
    ASSERT_TRUE(db.insert(std::move(crp)));
  };
  {
    puf::CrpDatabase db(4);
    FleetSimulator fleet(small_config(8, 2), db);
    plant(db, fleet, 5, 0);
    EXPECT_THROW(fleet.enroll(), std::runtime_error);
  }
  {
    puf::CrpDatabase db(4);
    FleetSimulator fleet(small_config(8, 2), db);
    plant(db, fleet, 5, 1);
    EXPECT_THROW(fleet.enroll_naive_serial(), std::runtime_error);
  }
  {
    puf::CrpDatabase db(4);
    FleetSimulator fleet(small_config(8, 1), db);
    fleet.enroll();
    plant(db, fleet, 2, 1);
    EXPECT_THROW(fleet.run_rotation_sweep(), std::runtime_error);
  }
  {
    puf::CrpDatabase db(4);
    db.set_quarantine_threshold(1);
    FleetSimulator fleet(small_config(8, 1), db);
    fleet.enroll();
    db.record_failure(fleet.challenge_of(3, 0));
    plant(db, fleet, 3, 1);
    EXPECT_THROW(fleet.reenroll_quarantined(), std::runtime_error);
  }
}

TEST(SyntheticPufContract, PopulationLooksLikeAStrongPuf) {
  puf::CrpDatabase db(4);
  FleetConfig config = small_config(200, 1);
  config.uniqueness_sample_target = 200;  // sample everyone
  FleetSimulator fleet(config, db);
  const EnrollReport report = fleet.enroll();
  EXPECT_GT(report.sampled_devices, 100u);
  EXPECT_NEAR(report.uniqueness_estimate, 0.5, 0.02);

  // Noise tracks error_rate: fractional HD between a noisy reading and
  // the reference concentrates at the configured flip probability.
  SyntheticPufParams params;
  params.base_error_rate = 0.05;
  const SyntheticPuf device(params, 0xD1CE);
  std::vector<std::uint8_t> reference(params.response_bytes);
  std::vector<std::uint8_t> noisy(params.response_bytes);
  double hd = 0.0;
  const int readings = 200;
  for (int r = 0; r < readings; ++r) {
    device.evaluate_noiseless_into(7, reference.data());
    device.evaluate_into(7, static_cast<std::uint64_t>(r), noisy.data());
    int flips = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      flips += __builtin_popcount(reference[i] ^ noisy[i]);
    }
    hd += flips / (8.0 * static_cast<double>(reference.size()));
  }
  EXPECT_NEAR(hd / readings, 0.05, 0.015);
}

TEST(SyntheticPufContract, MatchesPhotonicUniquenessStatistic) {
  // The shortcut stays honest: a small population of real photonic
  // devices and a same-size synthetic population agree on the paper's
  // headline inter-device statistic (both ~0.5), measured by the same
  // chunked uniqueness metric the fleet pipeline reports.
  const puf::PhotonicPufConfig cfg = puf::small_photonic_config();
  std::vector<crypto::Bytes> photonic;
  std::vector<crypto::Bytes> synthetic;
  const puf::Challenge challenge{0xA5, 0x3C};
  for (std::uint64_t d = 0; d < 6; ++d) {
    puf::PhotonicPuf real(cfg, 99, d);
    puf::Challenge padded = challenge;
    padded.resize(real.challenge_bytes(), 0);
    photonic.push_back(real.evaluate_noiseless(padded));

    SyntheticPufParams params;
    params.response_bytes = photonic.back().size();
    const SyntheticPuf synth(params, 0x1000 + d);
    puf::Challenge synth_challenge = challenge;
    synth_challenge.resize(synth.challenge_bytes(), 0);
    synthetic.push_back(synth.evaluate_noiseless(synth_challenge));
  }
  const double real_u = metrics::uniqueness(photonic);
  const double synth_u = metrics::uniqueness(synthetic);
  EXPECT_NEAR(real_u, 0.5, 0.15);
  EXPECT_NEAR(synth_u, 0.5, 0.15);
  EXPECT_NEAR(real_u, synth_u, 0.2);
}

TEST(SyntheticPufContract, DriftRaisesErrorRateMonotonically) {
  puf::CrpDatabase db(1);
  FleetConfig config = small_config(4, 1);
  config.drift.laser_droop_per_day = 1e-3;
  config.puf.aging_error_gain = 0.2;
  FleetSimulator fleet(config, db);
  const double day0 = fleet.make_device(0).error_rate();
  fleet.advance_days(100);
  const double day100 = fleet.make_device(0).error_rate();
  fleet.advance_days(200);
  const double day300 = fleet.make_device(0).error_rate();
  EXPECT_GT(day100, day0);
  EXPECT_GT(day300, day100);
  EXPECT_LE(day300, 0.5);
}

TEST(FleetCampaign, AuthSessionsConvergeOnCleanChannels) {
  puf::CrpDatabase db(4);
  FleetSimulator fleet(small_config(120, 1), db);
  fleet.enroll();
  const CampaignReport report = fleet.run_auth_campaign(150);
  EXPECT_EQ(report.sessions, 150u);
  EXPECT_EQ(report.converged, 150u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_GE(report.mean_attempts, 1.0);
  EXPECT_EQ(report.poll_ticks.count(), 150u);
}

TEST(FleetCampaign, RotationSweepAdvancesEveryDevice) {
  puf::CrpDatabase db(4);
  FleetSimulator fleet(small_config(80, 1), db);
  fleet.enroll();
  const CampaignReport sweep = fleet.run_rotation_sweep();
  EXPECT_EQ(sweep.rotated, 80u);
  EXPECT_EQ(sweep.converged, 80u);
  EXPECT_EQ(db.size(), 80u);  // one live CRP per device, one retired
  EXPECT_EQ(fleet.count_keyless(), 0u);
  for (std::size_t device = 0; device < 80; ++device) {
    EXPECT_EQ(fleet.oldest_generation(device), 1u);
    EXPECT_EQ(fleet.next_generation(device), 2u);
    // The generation-0 pair is consumed — one-time use — and the
    // generation-1 replacement is live.
    EXPECT_FALSE(db.lookup(fleet.challenge_of(device, 0)).has_value());
    EXPECT_TRUE(db.lookup(fleet.challenge_of(device, 1)).has_value());
  }
}

TEST(FleetCampaign, ResumeAfterCompletedSweepIsIdempotent) {
  puf::CrpDatabase db(4);
  FleetSimulator fleet(small_config(40, 1), db);
  fleet.enroll();
  fleet.run_rotation_sweep();
  fleet.recover_state(3);
  const ResumeReport resume = fleet.resume_rotation();
  EXPECT_EQ(resume.already_rotated, 40u);
  EXPECT_EQ(resume.finished_takes, 0u);
  EXPECT_EQ(resume.redone, 0u);
  EXPECT_EQ(resume.keyless, 0u);
  EXPECT_EQ(db.size(), 40u);
}

TEST(FleetCampaign, RevocationConsumesAndExcludes) {
  puf::CrpDatabase db(4);
  FleetSimulator fleet(small_config(30, 2), db);
  fleet.enroll();
  EXPECT_EQ(fleet.run_revocation_sweep(0, 10), 20u);  // 10 devices x 2
  EXPECT_EQ(db.size(), 40u);
  for (std::size_t device = 0; device < 10; ++device) {
    EXPECT_TRUE(fleet.revoked(device));
    EXPECT_FALSE(db.lookup(fleet.challenge_of(device, 0)).has_value());
  }
  EXPECT_FALSE(fleet.revoked(10));
  // A full round-robin campaign touches every device once; the 10
  // revoked ones are skipped, never served.
  const CampaignReport report = fleet.run_auth_campaign(30);
  EXPECT_EQ(report.skipped, 10u);
  EXPECT_EQ(report.converged, 20u);
  // Revoked devices don't count as keyless — they're retired, not
  // stranded.
  EXPECT_EQ(fleet.count_keyless(), 0u);
}

TEST(FleetCampaign, QuarantineReenrollIssuesFreshChallenge) {
  puf::CrpDatabase db(4);
  db.set_quarantine_threshold(1);
  FleetSimulator fleet(small_config(20, 1), db);
  fleet.enroll();
  // Poison device 3's only CRP.
  const puf::Challenge old_challenge = fleet.challenge_of(3, 0);
  db.record_failure(old_challenge);
  ASSERT_EQ(db.quarantined(), 1u);
  EXPECT_FALSE(db.lookup(old_challenge).has_value());

  EXPECT_EQ(fleet.reenroll_quarantined(), 1u);
  EXPECT_EQ(db.quarantined(), 0u);
  // The compromised challenge is gone for good; the replacement lives
  // at a fresh generation.
  EXPECT_FALSE(db.health(old_challenge).has_value());
  EXPECT_TRUE(db.lookup(fleet.challenge_of(3, 1)).has_value());
  EXPECT_EQ(fleet.oldest_generation(3), 1u);
  EXPECT_EQ(fleet.next_generation(3), 2u);
  EXPECT_EQ(fleet.count_keyless(), 0u);

  // The re-enrolled device authenticates again.
  const CampaignReport report = fleet.run_auth_campaign(20);
  EXPECT_EQ(report.converged, 20u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(FleetMemory, BudgetViolationFailsLoudly) {
  puf::CrpDatabase db(1);
  FleetConfig config = small_config(64, 1);
  config.memory_budget_bytes = 1;  // any real process exceeds this
  FleetSimulator fleet(config, db);
  EXPECT_THROW(fleet.enroll(), std::runtime_error);
}

TEST(FleetMemory, ProbeReadsProcSelfStatus) {
  const MemoryProbe probe = MemoryProbe::read();
  // Linux container: both fields populate, and the high-water mark is
  // at least the current RSS.
  EXPECT_GT(probe.vm_rss_bytes, 0u);
  EXPECT_GE(probe.vm_hwm_bytes, probe.vm_rss_bytes);
}

}  // namespace
}  // namespace neuropuls::fleet
