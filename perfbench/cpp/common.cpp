#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sched.h>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

void rotate_cpu(std::uint64_t turn) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[turn % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::size_t>(kb) * 1024;
}

std::vector<std::size_t> least_disturbed(const std::vector<double>& cost,
                                         double share) {
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  const auto keep = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(order.size())));
  order.resize(std::min(std::max<std::size_t>(keep, 1), order.size()));
  return order;
}

double median_self_ns(const std::map<std::uint64_t, SelfTimes>& sessions,
                      const std::string& name, bool per_call) {
  std::vector<double> values;
  for (const auto& [session, self] : sessions) {
    const auto it = self.self_ns.find(name);
    if (it == self.self_ns.end()) continue;
    values.push_back(it->second /
                     (per_call ? static_cast<double>(self.calls.at(name))
                               : 1.0));
  }
  return median(std::move(values));
}

void finish_trace(const Options& options, const std::vector<Span>& spans,
                  const std::map<std::uint64_t, SelfTimes>& sessions,
                  const std::vector<double>& traced,
                  const std::vector<double>& untraced, std::uint64_t session,
                  double end_to_end_ns, Result& result) {
  if (!options.trace_out.empty() && !write_spans(options.trace_out, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
  }
  const double traced_ns = median(traced);
  const double untraced_ns = median(untraced);
  result.metrics["trace.overhead_share"] = {
      untraced_ns > 0.0 ? (traced_ns - untraced_ns) / untraced_ns : 0.0,
      "ratio"};
  result.metrics["trace.spans"] = {static_cast<double>(spans.size()),
                                   "count"};

  double layers_ns = 0.0;
  double glue_ns = 0.0;
  const auto found = sessions.find(session);
  if (found != sessions.end()) {
    for (const auto& [name, ns] : found->second.self_ns) {
      if (name == "bench.glue") {
        glue_ns += ns;
      } else if (name != "bench.session") {  // root's own time: unattributed
        layers_ns += ns;
      }
    }
  }
  const double error =
      end_to_end_ns > 0.0
          ? std::fabs(layers_ns + glue_ns - end_to_end_ns) / end_to_end_ns
          : 1.0;
  std::printf("trace check: session %llx layers %.3f ms + glue %.3f ms vs "
              "end-to-end %.3f ms (error %.2f%%)\n",
              static_cast<unsigned long long>(session), layers_ns * 1e-6,
              glue_ns * 1e-6, end_to_end_ns * 1e-6, error * 100.0);
  result.metrics["trace.check_error_share"] = {error, "ratio"};
  result.metrics["trace.glue_share"] = {
      end_to_end_ns > 0.0 ? glue_ns / end_to_end_ns : 0.0, "ratio"};
  result.gate("trace_coverage_within_10pct", error <= 0.10);
}

}  // namespace perfbench
