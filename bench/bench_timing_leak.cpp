// Timing-leak detection experiment (DESIGN.md "Security hygiene" layer).
//
// Prints a dudect-style t-statistic table for the stack's secret-handling
// primitives — the constant-time comparator, CMAC tag verification,
// AES-CTR and CMAC under fixed-vs-random keys, HMAC-SHA256 verification
// — against the deliberately variable-time control, then times the
// harness itself so its cost per audited primitive is known.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "metrics/timing_leak.hpp"

namespace neuropuls {
namespace {

using metrics::TimingLeakConfig;
using metrics::TimingLeakReport;
using metrics::TimingTarget;

void print_row(const char* name, const TimingLeakReport& report) {
  std::printf("  %-28s %9.2f  %10.1f  %10.1f   %s\n", name,
              report.t_statistic, report.mean_fixed_ns,
              report.mean_random_ns,
              report.leaking ? "LEAKING" : "constant-time");
}

void print_leak_table() {
  TimingLeakConfig config;
  config.samples_per_class = 20000;
  config.warmup = 512;

  const crypto::Bytes secret(4096, 0x5A);
  const crypto::Bytes key16(16, 0x0F);
  const crypto::Bytes key32(32, 0x77);
  const crypto::Bytes message(256, 0x33);
  const crypto::Bytes good_tag = crypto::aes_cmac(key16, message);
  const crypto::Bytes good_mac = crypto::hmac_sha256(key32, message);

  std::printf("Timing-leak audit (dudect-style Welch t-test, |t| > %.1f "
              "flags a leak; %zu samples/class)\n",
              config.threshold, config.samples_per_class);
  std::printf("  %-28s %9s  %10s  %10s   %s\n", "target", "t-stat",
              "fixed ns", "random ns", "verdict");

  print_row("ct_equal (4 KiB)",
            measure_timing_leak(
                [&secret](crypto::ByteView input) {
                  volatile bool sink = crypto::ct_equal(input, secret);
                  (void)sink;
                },
                secret, config));
  print_row("CMAC tag verify (256 B)",
            measure_timing_leak(
                [&](crypto::ByteView input) {
                  const crypto::Bytes tag = crypto::aes_cmac(key16, input);
                  volatile bool sink = crypto::ct_equal(tag, good_tag);
                  (void)sink;
                },
                message, config));
  // Fixed-vs-random key: the class input is the AES key (all-zero fixed
  // class), exercising the key schedule and the keyed rounds.
  const crypto::Bytes zero_key(16, 0x00);
  const crypto::Bytes nonce(16, 0xA5);
  const crypto::Bytes input_frame(132, 0x3C);  // one 16-wide input
  const crypto::Bytes frame_body(148, 0x5E);   // nonce || ciphertext
  print_row("AES-CTR key class (132 B)",
            measure_timing_leak(
                [&](crypto::ByteView key) {
                  const crypto::Bytes ct =
                      crypto::aes_ctr(key, nonce, input_frame);
                  volatile std::uint8_t sink = ct[0];
                  (void)sink;
                },
                zero_key, config));
  print_row("CMAC key class (148 B)",
            measure_timing_leak(
                [&](crypto::ByteView key) {
                  const crypto::Bytes tag = crypto::aes_cmac(key, frame_body);
                  volatile std::uint8_t sink = tag[0];
                  (void)sink;
                },
                zero_key, config));
  print_row("HMAC-SHA256 verify (256 B)",
            measure_timing_leak(
                [&](crypto::ByteView input) {
                  const crypto::Bytes mac = crypto::hmac_sha256(key32, input);
                  volatile bool sink = crypto::ct_equal(mac, good_mac);
                  (void)sink;
                },
                message, config));
  print_row("variable_time_equal CONTROL",
            measure_timing_leak(
                [&secret](crypto::ByteView input) {
                  volatile bool sink =
                      metrics::variable_time_equal(input, secret);
                  (void)sink;
                },
                secret, config));
  std::printf("\n");
}

void BM_HarnessCtEqual(benchmark::State& state) {
  // Cost of one full audit of ct_equal at the given buffer length.
  const crypto::Bytes secret(static_cast<std::size_t>(state.range(0)), 0x5A);
  TimingLeakConfig config;
  config.samples_per_class = 2000;
  config.warmup = 64;
  const TimingTarget target = [&secret](crypto::ByteView input) {
    volatile bool sink = crypto::ct_equal(input, secret);
    (void)sink;
  };
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(measure_timing_leak(target, secret, config));
  }
}
BENCHMARK(BM_HarnessCtEqual)->Arg(64)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace neuropuls

int main(int argc, char** argv) {
  neuropuls::print_leak_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
