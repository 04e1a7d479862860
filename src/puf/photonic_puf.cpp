#include "puf/photonic_puf.hpp"

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "crypto/chacha20.hpp"
#include "faults/device_faults.hpp"
#include "photonic/field_block.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace neuropuls::puf {

using photonic::Complex;
using photonic::OperatingPoint;

namespace {

// Upper bound on cached operating points. Thermal sweeps step the
// temperature, so a handful of entries keeps every sweep point hot
// without letting a long scan grow the cache unboundedly.
constexpr std::size_t kMaxOperatingTables = 8;

void run_parallel(common::ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    common::parallel_for(n, fn);
  }
}

}  // namespace

PhotonicPuf::PhotonicPuf(PhotonicPufConfig config, std::uint64_t wafer_seed,
                         std::uint64_t device_index)
    : config_(config),
      circuit_(config.design,
               photonic::FabricationModel(wafer_seed, device_index,
                                          config.variation)),
      device_seed_(rng::derive_seed(wafer_seed, device_index)) {
  if (config_.challenge_bits == 0 || config_.challenge_bits % 8 != 0) {
    throw std::invalid_argument(
        "PhotonicPuf: challenge_bits must be a positive multiple of 8");
  }
  if (config_.design.ports % 2 != 0 || config_.design.ports < 2) {
    throw std::invalid_argument("PhotonicPuf: ports must be even");
  }
  if ((config_.challenge_bits * (config_.design.ports / 2)) % 8 != 0) {
    throw std::invalid_argument("PhotonicPuf: response bits not byte-aligned");
  }
  if (config_.samples_per_bit == 0 || config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("PhotonicPuf: bad sampling parameters");
  }
  calibrate();
}

std::shared_ptr<const PhotonicPuf::OperatingTables>
PhotonicPuf::operating_tables(const OperatingPoint& op) const {
  {
    const common::MutexLock lock(tables_mutex_);
    for (auto it = tables_cache_.begin(); it != tables_cache_.end(); ++it) {
      if ((*it)->wavelength == op.wavelength &&
          (*it)->temperature == op.temperature) {
        auto hit = *it;
        // Move-to-front so sweeps evict the stalest point first.
        tables_cache_.erase(it);
        tables_cache_.insert(tables_cache_.begin(), hit);
        return hit;
      }
    }
  }
  // Build outside the lock: concurrent first touches of the same point may
  // build twice, but never block each other behind the (expensive)
  // per-layer transfer evaluation.
  auto built = std::make_shared<OperatingTables>();
  built->wavelength = op.wavelength;
  built->temperature = op.temperature;
  built->scrambler = photonic::make_scrambler_tables(
      circuit_, op, 1.0 / config_.sample_rate_hz);
  const common::MutexLock lock(tables_mutex_);
  tables_cache_.insert(tables_cache_.begin(), built);
  if (tables_cache_.size() > kMaxOperatingTables) {
    tables_cache_.resize(kMaxOperatingTables);
  }
  return built;
}

void PhotonicPuf::calibrate() {
  if (config_.calibration_challenges == 0) return;
  // Public calibration sequence (identical for every device; the
  // thresholds themselves are device-specific measurements and live with
  // the helper data). Medians are taken at the *enrollment* operating
  // point; later thermal drift moves the margins — the E11 effect.
  crypto::ChaChaDrbg calib_rng(crypto::bytes_of("np-phot-calib"));
  const std::size_t count = config_.calibration_challenges;
  std::vector<Challenge> challenges;
  challenges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(calib_rng.generate(challenge_bytes()));
  }

  // Transpose as we go: each evaluation's (window, pair) matrix scatters
  // straight into one flat slot-major buffer, so the per-slot medians run
  // on contiguous spans and no per-challenge nested sample structures are
  // ever retained. (Exact medians need every sample, so the flat buffer
  // is the irreducible footprint; the former layout added one heap
  // vector per challenge per window on top of it.) thresholds_ is still
  // empty here, so the margins are the raw current differences.
  const std::size_t windows = config_.challenge_bits;
  const std::size_t pairs = config_.design.ports / 2;
  std::vector<double> slot_samples(windows * pairs * count);
  for_each_block(challenges, /*noisy=*/false, 0, nullptr,
                 [&](std::size_t i, const Margins& analog) {
                   for (std::size_t w = 0; w < windows; ++w) {
                     for (std::size_t p = 0; p < pairs; ++p) {
                       slot_samples[(w * pairs + p) * count + i] =
                           analog[w][p];
                     }
                   }
                 });

  thresholds_.assign(windows, std::vector<double>(pairs, 0.0));
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto begin =
          slot_samples.begin() +
          static_cast<std::ptrdiff_t>((w * pairs + p) * count);
      const auto end = begin + static_cast<std::ptrdiff_t>(count);
      std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(count / 2),
                       end);
      thresholds_[w][p] = begin[count / 2];
    }
  }
}

std::vector<PhotonicPuf::Margins> PhotonicPuf::analog_core_block(
    const Challenge* challenges, std::size_t lane_count, bool noisy,
    const std::uint64_t* counters, double temperature) const {
  if (lane_count == 0) {
    throw std::invalid_argument("PhotonicPuf: empty lane block");
  }
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    if (challenges[lane].size() != challenge_bytes()) {
      throw std::invalid_argument("PhotonicPuf: wrong challenge size");
    }
  }

  // Device faults perturb only the physical measurement path, never the
  // verifier-side model: the noiseless branch always sees a healthy chip.
  // The thermal offset and the tap drift give every faulted evaluation
  // its own operating point, which lanes sharing one scrambler cannot
  // have — so a faulted block holds exactly one lane.
  const faults::DeviceFaultModel* fm = noisy ? fault_model_.get() : nullptr;
  if (fm != nullptr) {
    if (lane_count != 1) {
      throw std::invalid_argument(
          "PhotonicPuf: a faulted evaluation needs a one-lane block");
    }
    temperature += fm->temperature_offset(counters[0]);
  }

  const OperatingPoint op{config_.laser.wavelength, temperature};
  const std::size_t ports = config_.design.ports;
  const std::size_t pairs = ports / 2;
  const std::size_t spb = config_.samples_per_bit;
  const std::size_t w = lane_count;

  // Static transfer constants come from the per-operating-point cache and
  // are shared across every concurrent evaluation; only the ring delay
  // lines (the scrambler's mutable state) are built per call.
  const auto tables = operating_tables(op);
  photonic::TimeDomainScrambler scrambler(tables->scrambler, w);
  photonic::PortVector taps = tables->scrambler->input_coefficients();

  photonic::LaserParameters laser_params = config_.laser;
  laser_params.power_mw *= config_.laser_power_scale;
  // Laser droop scales the emitted power, phase-shifter aging rotates
  // each input tap, and degraded photodiodes scale the detected
  // photocurrent per port (the Photodiode ctor rejects responsivity <= 0,
  // so a dead diode lives here as a post-detect 0.0).
  std::vector<double> pd_scale;
  if (fm != nullptr) {
    laser_params.power_mw *= fm->laser_scale(counters[0]);
    for (std::size_t p = 0; p < ports; ++p) {
      taps[p] *= std::polar(1.0, fm->phase_drift(counters[0], p));
      pd_scale.push_back(fm->photodiode_scale(p));
    }
  }
  // The noiseless path replaces the laser with an ideal constant carrier
  // but keeps the (deterministic) MZM dynamics.
  const double ideal_amp = std::sqrt(laser_params.power_mw * 1e-3);

  // Per-lane source chains. The MZM is deterministic but stateful (one-
  // pole drive filter), so every lane carries its own; the noisy path
  // additionally gives each lane its own Laser and per-port Photodiodes,
  // all seeded from derive_seed(device_seed_, counters[lane]) — so a
  // lane's noise depends only on its evaluation counter, never on its
  // block or position.
  std::vector<photonic::MachZehnderModulator> mzms;
  mzms.reserve(w);
  std::vector<photonic::Laser> lasers;
  std::vector<photonic::Photodiode> pds;  // [lane * ports + port]
  if (noisy) {
    lasers.reserve(w);
    pds.reserve(w * ports);
  }
  for (std::size_t lane = 0; lane < w; ++lane) {
    mzms.emplace_back(config_.modulator);
    if (noisy) {
      const std::uint64_t seed = rng::derive_seed(device_seed_, counters[lane]);
      lasers.emplace_back(laser_params, config_.sample_rate_hz,
                          rng::derive_seed(seed, 0x11));
      for (std::size_t p = 0; p < ports; ++p) {
        pds.emplace_back(config_.photodiode, rng::derive_seed(seed, 0x20 + p));
      }
    }
  }
  const photonic::Photodiode mean_pd(config_.photodiode, 0);

  std::vector<Margins> analog(
      w, Margins(config_.challenge_bits, std::vector<double>(pairs, 0.0)));

  photonic::FieldBlock block(ports, w);
  // SoA lane planes for the per-sample modulated carriers and the
  // per-port integrate-and-dump accumulators ([port][lane]).
  simd::AlignedVector<double> mod_re(w, 0.0);
  simd::AlignedVector<double> mod_im(w, 0.0);
  simd::AlignedVector<double> window_current(ports * w, 0.0);
  std::vector<std::uint8_t> bits(w, 0);

  for (std::size_t bit_index = 0; bit_index < config_.challenge_bits;
       ++bit_index) {
    for (std::size_t lane = 0; lane < w; ++lane) {
      bits[lane] =
          (challenges[lane][bit_index / 8] >> (7 - bit_index % 8)) & 1;
    }
    std::fill(window_current.begin(), window_current.end(), 0.0);

    for (std::size_t s = 0; s < spb; ++s) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const Complex carrier =
            noisy ? lasers[lane].sample() : Complex{ideal_amp, 0.0};
        const Complex modulated =
            mzms[lane].modulate(carrier, bits[lane] != 0);
        mod_re[lane] = modulated.real();
        mod_im[lane] = modulated.imag();
      }
      // Fig. 2: the modulated beam is first split across all paths; the
      // scrambler then transforms the block in place.
      for (std::size_t p = 0; p < ports; ++p) {
        simd::complex_fanout(mod_re.data(), mod_im.data(), taps[p].real(),
                             taps[p].imag(), block.re(p), block.im(p), w);
      }
      scrambler.step_block(block);
      if (noisy) {
        for (std::size_t p = 0; p < ports; ++p) {
          double* acc = window_current.data() + p * w;
          for (std::size_t lane = 0; lane < w; ++lane) {
            double current = pds[lane * ports + p].detect(block.at(p, lane));
            if (fm != nullptr) current *= pd_scale[p];
            acc[lane] += current;
          }
        }
      } else {
        for (std::size_t p = 0; p < ports; ++p) {
          mean_pd.accumulate_mean_block(block.re(p), block.im(p),
                                        window_current.data() + p * w, w);
        }
      }
    }

    for (std::size_t lane = 0; lane < w; ++lane) {
      for (std::size_t pair = 0; pair < pairs; ++pair) {
        double margin = (window_current[2 * pair * w + lane] -
                         window_current[(2 * pair + 1) * w + lane]) /
                        static_cast<double>(spb);
        if (!thresholds_.empty()) margin -= thresholds_[bit_index][pair];
        analog[lane][bit_index][pair] = margin;
      }
    }
  }
  return analog;
}

void PhotonicPuf::for_each_block(
    const std::vector<Challenge>& challenges, bool noisy, std::uint64_t base,
    common::ThreadPool* pool,
    const std::function<void(std::size_t, const Margins&)>& sink) const {
  // Lane j of block b is item b*W + j with counter base + item + 1, so
  // seeds bind to item index, never to scheduling order or block width.
  const std::size_t lanes =
      (noisy && fault_model_) ? 1 : simd::kDefaultLanes;
  const std::size_t blocks = (challenges.size() + lanes - 1) / lanes;
  run_parallel(pool, blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * lanes;
    const std::size_t count = std::min(lanes, challenges.size() - begin);
    std::vector<std::uint64_t> counters(count);
    for (std::size_t j = 0; j < count; ++j) {
      counters[j] = base + static_cast<std::uint64_t>(begin + j) + 1;
    }
    auto analog = analog_core_block(challenges.data() + begin, count, noisy,
                                    counters.data(), config_.temperature);
    for (std::size_t j = 0; j < count; ++j) sink(begin + j, analog[j]);
  });
}

Response PhotonicPuf::threshold_bits(const Margins& margins) const {
  Response out(response_bytes(), 0);
  std::size_t bit = 0;
  for (const auto& row : margins) {
    for (double delta : row) {
      if (delta > 0.0) {
        out[bit / 8] |= static_cast<std::uint8_t>(1u << (7 - bit % 8));
      }
      ++bit;
    }
  }
  return out;
}

Response PhotonicPuf::evaluate(const Challenge& challenge) {
  return threshold_bits(evaluate_analog(challenge, /*noisy=*/true));
}

std::vector<Response> PhotonicPuf::evaluate_batch(
    const std::vector<Challenge>& challenges, common::ThreadPool* pool) {
  // Reserve one counter value per item up front; item i always gets
  // base + i + 1 regardless of which thread runs it or when, making the
  // batch bit-identical to the equivalent serial evaluate() sequence.
  const std::uint64_t base = eval_counter_.fetch_add(
      challenges.size(), std::memory_order_relaxed);
  std::vector<Response> responses(challenges.size());
  for_each_block(challenges, /*noisy=*/true, base, pool,
                 [&](std::size_t i, const Margins& margins) {
                   responses[i] = threshold_bits(margins);
                 });
  return responses;
}

std::vector<Response> PhotonicPuf::evaluate_noiseless_batch(
    const std::vector<Challenge>& challenges, common::ThreadPool* pool) const {
  std::vector<Response> responses(challenges.size());
  for_each_block(challenges, /*noisy=*/false, 0, pool,
                 [&](std::size_t i, const Margins& margins) {
                   responses[i] = threshold_bits(margins);
                 });
  return responses;
}

Response PhotonicPuf::evaluate_noiseless(const Challenge& challenge) const {
  return evaluate_noiseless_at(challenge, config_.temperature);
}

Response PhotonicPuf::evaluate_noiseless_at(const Challenge& challenge,
                                            double temperature_kelvin) const {
  return threshold_bits(analog_core_block(&challenge, 1, /*noisy=*/false,
                                          nullptr, temperature_kelvin)[0]);
}

std::vector<std::vector<double>> PhotonicPuf::evaluate_analog(
    const Challenge& challenge, bool noisy) {
  const std::uint64_t counter =
      noisy ? eval_counter_.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  return std::move(analog_core_block(&challenge, 1, noisy, &counter,
                                     config_.temperature)[0]);
}

double PhotonicPuf::response_throughput_bps() const noexcept {
  const double bits = static_cast<double>(response_bits());
  return bits / interrogation_time_s();
}

double PhotonicPuf::interrogation_time_s() const noexcept {
  const double challenge_duration =
      static_cast<double>(config_.challenge_bits * config_.samples_per_bit) /
      config_.sample_rate_hz;
  return challenge_duration + circuit_.memory_depth_seconds();
}

PhotonicPufConfig small_photonic_config() {
  PhotonicPufConfig cfg;
  cfg.design.ports = 4;
  cfg.design.layers = 3;
  cfg.challenge_bits = 16;
  cfg.calibration_challenges = 31;
  return cfg;
}

}  // namespace neuropuls::puf
