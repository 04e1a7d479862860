// Shared pieces of the benchmark workloads: run options, the result every
// workload fills, order statistics, and the timing PUF decorator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "puf/puf.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs so the smoke test runs every workload in a few seconds.
  bool tiny = false;
  /// Scratch directory for the durable CRP stores (inside the checkout).
  std::string work_dir = ".";
  /// Where the traced run writes its spans ("" = not written).
  std::string trace_out;
  /// Width of the one shared pool: nproc, at most 4.
  std::size_t threads = 4;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every correctness gate the workload checks; a false entry fails the
  /// run regardless of the counts.
  std::map<std::string, bool> gates;
  /// Metrics of this run: end-to-end ones when untraced, per-layer ones
  /// when traced. Workload-named headline figures go to `named`.
  std::map<std::string, Metric> metrics;
  /// The workload's own headline figures under the names the workload
  /// definition uses (printed for reading; the JSON carries `metrics`).
  std::map<std::string, Metric> named;

  void gate(const std::string& name, bool ok) {
    auto it = gates.find(name);
    gates[name] = (it == gates.end() ? true : it->second) && ok;
  }
  bool correct() const {
    for (const auto& [name, ok] : gates) {
      if (!ok) return false;
    }
    return failed == 0 && attempted > 0;
  }
};

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// Indices of the `share` of samples with the smallest `cost` (at least
/// one). On a shared host a neighbour's load only ever adds time, so the
/// least disturbed samples measure the program rather than the neighbours.
std::vector<std::size_t> least_disturbed(const std::vector<double>& cost,
                                         double share);

/// Moves the calling thread to the `turn`-th CPU this process may use
/// (round robin). A single-threaded client rotated this way samples every
/// CPU of a shared host instead of whichever one it landed on.
void rotate_cpu(std::uint64_t turn);

/// Peak resident set (VmHWM) of this process, in bytes.
std::size_t peak_rss_bytes();

/// Session ids of the traced run are namespaced by workload phase.
inline std::uint64_t session_id(std::uint64_t kind, std::uint64_t index) {
  return (kind << 48) | index;
}

/// Times every evaluation of the wrapped PUF as a span named `span`. The
/// responses are the wrapped PUF's, so protocol transcripts are unchanged.
/// The session and parent span come from `context` when set (cross-thread
/// sessions), else from the calling thread's open Scope.
class TimingPuf final : public neuropuls::puf::Puf {
 public:
  struct Context {
    std::uint64_t session = 0;
    std::uint32_t parent = 0;
  };

  TimingPuf(neuropuls::puf::Puf& inner, const char* span)
      : inner_(inner), span_(span) {}

  void set_context(Context context) { context_ = context; }

  std::size_t challenge_bytes() const override {
    return inner_.challenge_bytes();
  }
  std::size_t response_bytes() const override {
    return inner_.response_bytes();
  }
  neuropuls::puf::Response evaluate(
      const neuropuls::puf::Challenge& challenge) override {
    Tracer::Scope scope(span_, context_.session, context_.parent);
    return inner_.evaluate(challenge);
  }
  neuropuls::puf::Response evaluate_noiseless(
      const neuropuls::puf::Challenge& challenge) const override {
    Tracer::Scope scope(span_, context_.session, context_.parent);
    return inner_.evaluate_noiseless(challenge);
  }
  std::string name() const override { return inner_.name(); }

 private:
  neuropuls::puf::Puf& inner_;
  const char* span_;
  Context context_;
};

/// The per-workload entry points (one process runs exactly one).
Result run_fleet_lifecycle(const Options& options);
Result run_auth_flood(const Options& options);
Result run_secure_inference(const Options& options);

/// Median over the sessions that called `name` of its self time per
/// session, or per call when `per_call`; 0 when no session did.
double median_self_ns(const std::map<std::uint64_t, SelfTimes>& sessions,
                      const std::string& name, bool per_call);

/// Ends a traced run: writes the spans to options.trace_out, adds the
/// trace.* metrics (tracing overhead = traced vs untraced median of the
/// samples, span count) and fails the run unless `session`'s layer self
/// times plus the benchmark's glue match its independently measured
/// `end_to_end_ns` within 10%.
void finish_trace(const Options& options, const std::vector<Span>& spans,
                  const std::map<std::uint64_t, SelfTimes>& sessions,
                  const std::vector<double>& traced,
                  const std::vector<double>& untraced, std::uint64_t session,
                  double end_to_end_ns, Result& result);

}  // namespace perfbench
