// perfbench: the repository's wall-clock benchmark program.
//
//   perfbench --workload <fleet_lifecycle|auth_flood|secure_inference>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--work-dir DIR] [--trace-out FILE]
//
// One process runs one workload. Untraced runs report the end-to-end
// metrics; traced runs report the per-layer metrics. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric (the workload defines
// what its goodput and latency are; see perfbench/README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"goodput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

// Per-layer metrics of all workloads; a layer the workload never calls
// reads 0 there. workload.latency_p90_ms is the workload's own p90 latency:
// on a shared host its run-to-run spread reached the largest bound an
// end-to-end metric may have, so it is reported here, without a bound.
constexpr MetricSpec kPerLayer[] = {
    {"workload.latency_p90_ms", "ms"},
    {"fleet.enroll_s", "s"},
    {"puf.crp_wal.sync_s", "s"},
    {"puf.crp_db.lock_contended_share.enroll", "ratio"},
    {"puf.crp_db.lock_contended_share.campaign", "ratio"},
    {"puf.crp_db.bytes_per_crp", "B"},
    {"fleet.campaign_s", "s"},
    {"puf.crp_db.take_steals", "count"},
    {"fleet.rotation_s", "s"},
    {"puf.crp_wal.recovery_s", "s"},
    {"puf.crp_wal.replayed_records", "count"},
    {"core.session_engine.admit_wait_p90_ms", "ms"},
    {"core.session_engine.service_p90_ms", "ms"},
    {"core.session_engine.steps_per_honest", "count"},
    {"core.session_engine.steals", "count/round"},
    {"core.session_engine.parks", "count/round"},
    {"core.session_engine.worker_parks", "count/round"},
    {"core.session_engine.wakeups", "count/round"},
    {"core.session_engine.peak_queue_depth", "count"},
    {"core.admission_control.admitted", "count/round"},
    {"core.admission_control.shed_rate_limited", "count/round"},
    {"core.admission_control.evicted_half_open", "count/round"},
    {"core.admission_control.malformed", "count/round"},
    {"core.admission_control.honest_share_of_admitted", "ratio"},
    {"core.admission_control.peak_charged_bytes", "B"},
    {"net.channel.shed_frames", "count/round"},
    {"puf.arbiter.evaluate_us", "us"},
    {"puf.photonic.evaluate_ms", "ms"},
    {"core.key_manager.derive_self_ms", "ms"},
    {"core.attestation.device_ms", "ms"},
    {"core.attestation.verify_ms", "ms"},
    {"core.aka_eke.initiator_ms", "ms"},
    {"core.aka_eke.responder_ms", "ms"},
    {"accel.load_network_ms", "ms"},
    {"accel.encrypt_input_us", "us"},
    {"accel.execute_network_us", "us"},
    {"accel.decrypt_output_us", "us"},
    {"accel.plain_infer_us", "us"},
    {"trace.overhead_share", "ratio"},
    {"trace.check_error_share", "ratio"},
    {"trace.glue_share", "ratio"},
    {"trace.spans", "count"},
};

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// nproc, CPU model and MHz, compiler, build type — printed with every
/// result so a figure is never compared across hosts unknowingly.
std::string host_fingerprint(const Options& options) {
  std::string model = "unknown";
  std::string mhz = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    if (key == "model name" && model == "unknown") model = value;
    if (key == "cpu MHz" && mhz == "unknown") mhz = value;
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu_model\": \"%s\", \"cpu_mhz\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"threads\": %zu}",
                std::thread::hardware_concurrency(),
                json_escape(model).c_str(), json_escape(mhz).c_str(),
                json_escape(PERFBENCH_COMPILER).c_str(),
                json_escape(PERFBENCH_BUILD_TYPE).c_str(), options.threads);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--tiny] [--work-dir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 4);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_json(const Result& result,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (sanitized_build() || !optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a sanitizer or "
                 "unoptimised build (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf("host %s\n", host_fingerprint(options).c_str());

  Result result;
  try {
    if (options.workload == "fleet_lifecycle") {
      result = perfbench::run_fleet_lifecycle(options);
    } else if (options.workload == "auth_flood") {
      result = perfbench::run_auth_flood(options);
    } else if (options.workload == "secure_inference") {
      result = perfbench::run_secure_inference(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  if (!options.trace) {
    result.metrics["peak_rss_mib"] = {
        static_cast<double>(perfbench::peak_rss_bytes()) / (1024.0 * 1024.0),
        "MiB"};
  }
  for (const auto& [name, metric] : result.named) {
    std::printf("named %s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& [gate, ok] : result.gates) {
    std::printf("gate %s %s\n", gate.c_str(), ok ? "pass" : "FAIL");
  }

  // Exactly the advertised metric set, in a fixed order per mode.
  std::map<std::string, Metric> out;
  bool missing = false;
  if (options.trace) {
    for (const auto& spec : kPerLayer) {
      const auto it = result.metrics.find(spec.name);
      out[spec.name] = Metric{
          it != result.metrics.end() ? it->second.value : 0.0, spec.unit};
    }
  } else {
    for (const auto& spec : kEndToEnd) {
      const auto it = result.metrics.find(spec.name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "perfbench: %s did not report %s\n",
                     options.workload.c_str(), spec.name);
        missing = true;
        continue;
      }
      out[spec.name] = Metric{it->second.value, spec.unit};
    }
  }
  for (const auto& [name, metric] : out) {
    std::printf("metric %s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (missing) result.gate("all_metrics_reported", false);
  print_json(result, out);
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
