#include "attacks/cpa.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "crypto/aes.hpp"
#include "crypto/prng.hpp"

namespace neuropuls::attacks {

namespace {

// The attacker's public leakage model: HW(S(x)) for every S-box input,
// built once from crypto::aes_sbox (the constant-time circuit costs too
// much to re-evaluate traces x 256 x 16 times).
const std::array<double, 256>& sbox_hamming_weights() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> hw{};
    for (unsigned x = 0; x < 256; ++x) {
      const unsigned y = crypto::aes_sbox(static_cast<std::uint8_t>(x));
      hw[x] = static_cast<double>(std::popcount(y));
    }
    return hw;
  }();
  return table;
}

}  // namespace

std::vector<CpaTrace> acquire_traces(crypto::ByteView key, std::size_t count,
                                     const CpaLeakageModel& model,
                                     std::uint64_t seed) {
  if (key.size() != 16) {
    throw std::invalid_argument("acquire_traces: key must be 16 bytes");
  }
  rng::Xoshiro256 pt_rng(rng::derive_seed(seed, 1));
  rng::Gaussian noise(rng::derive_seed(seed, 2));
  const auto& hw_sbox = sbox_hamming_weights();

  std::vector<CpaTrace> traces;
  traces.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    CpaTrace trace;
    trace.plaintext.resize(16);
    trace.samples.resize(16);
    for (std::size_t j = 0; j < 16; ++j) {
      trace.plaintext[j] = static_cast<std::uint8_t>(pt_rng.next());
      trace.samples[j] = model.alpha * hw_sbox[trace.plaintext[j] ^ key[j]] +
                         noise.next(0.0, model.noise_sigma);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

CpaResult cpa_attack(const std::vector<CpaTrace>& traces,
                     crypto::ByteView true_key) {
  if (traces.empty()) {
    throw std::invalid_argument("cpa_attack: no traces");
  }
  if (true_key.size() != 16) {
    throw std::invalid_argument("cpa_attack: key must be 16 bytes");
  }
  for (const auto& trace : traces) {
    if (trace.plaintext.size() != 16 || trace.samples.size() != 16) {
      throw std::invalid_argument("cpa_attack: malformed trace");
    }
  }
  const double n = static_cast<double>(traces.size());
  const auto& hw_sbox = sbox_hamming_weights();

  CpaResult result;
  result.recovered_key.resize(16);
  double correlation_sum = 0.0;

  for (std::size_t lane = 0; lane < 16; ++lane) {
    // Measured-sample moments for this lane.
    double sum_y = 0.0, sum_y2 = 0.0;
    for (const auto& trace : traces) {
      sum_y += trace.samples[lane];
      sum_y2 += trace.samples[lane] * trace.samples[lane];
    }
    const double mean_y = sum_y / n;
    const double var_y = sum_y2 / n - mean_y * mean_y;

    double best_corr = -2.0;
    std::uint8_t best_guess = 0;
    for (int guess = 0; guess < 256; ++guess) {
      double sum_h = 0.0, sum_h2 = 0.0, sum_hy = 0.0;
      for (const auto& trace : traces) {
        const double h = hw_sbox[trace.plaintext[lane] ^ guess];
        sum_h += h;
        sum_h2 += h * h;
        sum_hy += h * trace.samples[lane];
      }
      const double mean_h = sum_h / n;
      const double var_h = sum_h2 / n - mean_h * mean_h;
      const double cov = sum_hy / n - mean_h * mean_y;
      const double denom = std::sqrt(var_h * var_y);
      const double corr = denom > 0.0 ? cov / denom : 0.0;
      if (corr > best_corr) {
        best_corr = corr;
        best_guess = static_cast<std::uint8_t>(guess);
      }
    }
    result.recovered_key[lane] = best_guess;
    result.correct_bytes += (best_guess == true_key[lane]);
    correlation_sum += best_corr;
  }
  result.mean_best_correlation = correlation_sum / 16.0;
  return result;
}

std::size_t traces_to_full_recovery(crypto::ByteView key,
                                    const CpaLeakageModel& model,
                                    const std::vector<std::size_t>& budgets,
                                    std::uint64_t seed) {
  for (std::size_t budget : budgets) {
    const auto traces = acquire_traces(key, budget, model, seed);
    if (cpa_attack(traces, key).correct_bytes == 16) return budget;
  }
  return 0;
}

}  // namespace neuropuls::attacks
