// Shared helpers for the experiment benches.
//
// Every bench binary prints its experiment's paper-shaped table(s) first
// (deterministic, fixed seeds) and then runs its google-benchmark timing
// cases, so `for b in build/bench/*; do $b; done` regenerates the whole
// evaluation.
//
// Machine-readable output: every bench accepts the stock google-benchmark
// flags (`--benchmark_out=FILE --benchmark_out_format=json`), and when the
// NEUROPULS_BENCH_JSON environment variable names a directory the bench
// writes `BENCH_<binary>.json` there by default — the files
// `scripts/bench_regress.py` diffs against a committed baseline.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.hpp"

namespace neuropuls::bench {

inline void banner(const std::string& experiment, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

/// Pool widths for thread-scaling cases and tables: 1, 2, 4, plus the
/// default pool width only when it is not already one of them, so no
/// case name repeats on a 1-, 2- or 4-thread host.
inline std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts{1, 2, 4};
  const std::size_t hw = common::ThreadPool::default_thread_count();
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

/// Apply() hook: one Arg (the pool width) per thread_counts() entry.
inline void thread_args(benchmark::internal::Benchmark* bench) {
  for (const std::size_t threads : thread_counts()) {
    bench->Arg(static_cast<std::int64_t>(threads));
  }
}

/// Standard bench main body: print the paper tables, then run the
/// google-benchmark timing cases. When no --benchmark_out flag was given
/// and NEUROPULS_BENCH_JSON is set, the JSON report defaults to
/// $NEUROPULS_BENCH_JSON/BENCH_<basename(argv[0])>.json.
inline int run_bench_main(int argc, char** argv, void (*print_tables)()) {
  print_tables();

  std::vector<std::string> args(argv, argv + argc);
  bool has_out = false;
  for (const auto& arg : args) {
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  const char* json_dir = std::getenv("NEUROPULS_BENCH_JSON");
  if (!has_out && json_dir != nullptr && *json_dir != '\0') {
    std::string name = args.empty() ? std::string("bench") : args.front();
    const auto slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    args.push_back(std::string("--benchmark_out=") + json_dir + "/BENCH_" +
                   name + ".json");
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());

  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#define NEUROPULS_BENCH_MAIN(print_tables_fn)                          \
  int main(int argc, char** argv) {                                    \
    return neuropuls::bench::run_bench_main(argc, argv, print_tables_fn); \
  }

}  // namespace neuropuls::bench
