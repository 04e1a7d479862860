// Hardware-speed synthetic strong PUF for fleet-scale simulation.
//
// The physically-modelled PhotonicPuf fabricates each device through a
// full calibration run (~60 time-domain evaluations), which caps device
// construction at a few thousand per second — fine for protocol tests,
// hopeless for a million-device enrollment storm. The fleet layer
// therefore models the *statistical contract* of a strong PUF instead
// of its physics: a keyed-PRF response surface per device (unique,
// uniform, unclonable-in-simulation) plus an i.i.d. per-bit noise
// channel whose flip probability evolves with simulated age through the
// same faults::DeviceFaultModel the photonic stack uses. Every quantity
// is a pure function of (seed, challenge, reading index, day), so batch
// evaluation is embarrassingly parallel and bit-identical at any thread
// count, and two constructions of the same device agree bit-for-bit —
// the property enrollment-vs-authentication consistency rests on.
//
// The class still implements puf::Puf, so AuthDevice, the session
// machines, and the CRP database drive it exactly like the photonic
// device; small-population tests cross-check the fleet pipeline against
// real PhotonicPuf devices to keep the shortcut honest.
#pragma once

#include <cstdint>

#include "faults/device_faults.hpp"
#include "puf/puf.hpp"

namespace neuropuls::fleet {

struct SyntheticPufParams {
  std::size_t response_bytes = 16;
  /// Per-bit flip probability of a fresh (day-0, fault-free) device.
  double base_error_rate = 0.005;
  /// Added error per unit of lost laser power (1 - laser_scale(day)).
  double aging_error_gain = 0.0;
  /// Added error per Kelvin of |temperature_offset(day)|.
  double thermal_error_gain = 0.0;
  /// Added error per radian of |phase_drift(day, 0)|.
  double phase_error_gain = 0.0;
};

class SyntheticPuf final : public puf::Puf {
 public:
  /// `drift` + `drift_seed` build the device's fault model (defaults =
  /// a quiet model: the error rate stays at base_error_rate forever).
  SyntheticPuf(SyntheticPufParams params, std::uint64_t device_seed,
               faults::DeviceFaultConfig drift = {},
               std::uint64_t drift_seed = 0);

  /// Challenges are one full 64-bit word: narrower ones would make
  /// cross-device collisions in a large fleet likely.
  static constexpr std::size_t kChallengeBytes = 8;

  std::size_t challenge_bytes() const override { return kChallengeBytes; }
  std::size_t response_bytes() const override {
    return params_.response_bytes;
  }
  puf::Response evaluate(const puf::Challenge& challenge) override;
  puf::Response evaluate_noiseless(
      const puf::Challenge& challenge) const override;
  std::string name() const override { return "synthetic-puf"; }

  /// Simulated age in days; the fault model's evaluation index. Aging
  /// raises error_rate() through the drift config, never the response
  /// surface — enrollment references stay valid, they just get noisier
  /// to reproduce, exactly like a drooping laser.
  void set_day(std::uint64_t day) noexcept { day_ = day; }
  std::uint64_t day() const noexcept { return day_; }

  /// Current per-bit flip probability (clamped to [0, 0.5]).
  double error_rate() const noexcept;

  /// Allocation-free reference response for a challenge word: writes
  /// response_bytes() bytes. The enrollment hot path.
  void evaluate_noiseless_into(std::uint64_t challenge,
                               std::uint8_t* out) const noexcept;

  /// Allocation-free noisy evaluation; `reading` indexes the noise draw
  /// (two equal readings flip the same bits — callers pass a fresh
  /// index per measurement, exactly what evaluate() does internally).
  void evaluate_into(std::uint64_t challenge, std::uint64_t reading,
                     std::uint8_t* out) const noexcept;

  /// Batch reference harvest: `out` receives n * response_bytes() bytes,
  /// one response per challenge word, no allocation.
  void evaluate_noiseless_batch_into(const std::uint64_t* challenges,
                                     std::size_t n,
                                     std::uint8_t* out) const noexcept;

  /// Challenge word <-> wire bytes (little-endian, kChallengeBytes wide).
  static std::uint64_t challenge_word(const puf::Challenge& challenge);
  static puf::Challenge challenge_bytes_of(std::uint64_t word);

  std::uint64_t device_seed() const noexcept { return device_seed_; }
  const faults::DeviceFaultModel& fault_model() const noexcept {
    return model_;
  }

 private:
  SyntheticPufParams params_;
  std::uint64_t device_seed_;
  faults::DeviceFaultModel model_;
  std::uint64_t day_ = 0;
  std::uint64_t reading_counter_ = 0;
};

}  // namespace neuropuls::fleet
