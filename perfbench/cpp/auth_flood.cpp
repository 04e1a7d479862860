// auth_flood: re-authentication bursts under a 95% hostile flood.
//
// Every round is one burst: N honest arbiter-PUF AuthSessionMachine
// sessions (one client each) mixed with 19 N faults::FloodAuthMachine
// sessions (3:1 malformed : half-open, 16 attacker client ids), in a
// seeded order, through one reactor SessionEngine with an
// AdmissionController and max_in_flight = 64 — 64 closed-loop clients.
// Between rounds controller.advance() refills the token buckets, as a
// deployment's timer would; without it honest clients run dry and are shed
// for the harness's sake, not the program's.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>

#include "common.hpp"
#include "common/parallel.hpp"
#include "core/admission_control.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "faults/flood_adversary.hpp"
#include "puf/arbiter_puf.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::uint64_t kSessionKind = 2;
constexpr std::size_t kAttackerIds = 16;
constexpr std::uint64_t kRefillTicks = 8;
/// One set-up sample per this many rounds of an untraced run.
constexpr std::uint64_t kSetupEvery = 8;

struct Honest {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<TimingPuf> timed;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
};

/// Everything a burst needs, built once per run (the set-up).
struct Fixture {
  std::unique_ptr<common::ThreadPool> pool;
  std::vector<Honest> honest;
  std::vector<std::unique_ptr<core::AuthVerifier>> hostile;
  std::unique_ptr<core::AdmissionController> controller;
};

std::unique_ptr<Fixture> make_fixture(const Options& options,
                                      std::size_t honest_count,
                                      std::size_t hostile_count) {
  auto f = std::make_unique<Fixture>();
  f->pool = std::make_unique<common::ThreadPool>(options.threads);
  crypto::Bytes seed_bytes = crypto::bytes_of("perfbench-flood");
  for (int i = 0; i < 8; ++i) {
    seed_bytes.push_back(static_cast<std::uint8_t>(options.seed >> (8 * i)));
  }
  crypto::ChaChaDrbg rng(seed_bytes);
  const crypto::Bytes memory = rng.generate(1024);
  const crypto::Bytes memory_hash = crypto::Sha256::hash(memory);
  std::mt19937_64 device_seeds(options.seed);
  f->honest.resize(honest_count);
  for (Honest& h : f->honest) {
    h.puf = std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{},
                                              device_seeds());
    h.timed = std::make_unique<TimingPuf>(*h.puf, "puf.arbiter.evaluate");
    const auto provisioned = core::provision(*h.puf, rng);
    h.device = std::make_unique<core::AuthDevice>(
        *h.timed, provisioned.device_crp, memory);
    h.verifier = std::make_unique<core::AuthVerifier>(
        provisioned.verifier_secret, memory_hash, h.puf->challenge_bytes());
  }
  // Attackers target verifier endpoints of their own (one per slot), so
  // the honest verifiers' state is untouched by the flood.
  const std::size_t challenge_bytes = f->honest.front().puf->challenge_bytes();
  for (std::size_t j = 0; j < hostile_count; ++j) {
    f->hostile.push_back(std::make_unique<core::AuthVerifier>(
        rng.generate(1), memory_hash, challenge_bytes));
  }
  core::AdmissionConfig admission;
  admission.bucket_capacity = 8;
  admission.half_open_slots = 64;
  admission.half_open_per_client = 4;
  f->controller = std::make_unique<core::AdmissionController>(admission);
  return f;
}

struct RoundOutcome {
  double wall_ns = 0.0;
  std::size_t honest_converged = 0;
  std::size_t honest_failed = 0;
  std::size_t false_accepts = 0;
  std::size_t honest_admitted = 0;
  std::uint64_t shed_frames = 0;
  std::vector<double> latency_ns;  // honest, burst start -> on_complete
  std::vector<double> admit_wait_ns;
  std::vector<double> service_ns;
  std::uint64_t first_session = 0;  // first converged honest (trace check)
  double first_latency_ns = 0.0;
};

RoundOutcome run_round(Fixture& f, core::SessionEngine& engine,
                       std::uint64_t round, std::mt19937_64& order_rng,
                       std::vector<std::atomic<std::int64_t>>& factory_ns,
                       std::vector<std::atomic<std::int64_t>>& complete_ns) {
  const std::size_t honest = f.honest.size();
  const std::size_t total = honest + f.hostile.size();
  // slot < honest: honest device `slot`; otherwise attacker slot - honest.
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), order_rng);

  std::vector<net::DuplexChannel> channels(total);
  std::vector<std::uint32_t> service_span(honest, 0);
  std::vector<std::size_t> honest_index(honest, 0);
  const core::RetryPolicy policy;
  for (std::size_t i = 0; i < total; ++i) {
    factory_ns[i].store(0, std::memory_order_relaxed);
    complete_ns[i].store(0, std::memory_order_relaxed);
  }

  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t slot = order[i];
    net::DuplexChannel& channel = channels[i];
    core::SubmitOptions submit;
    submit.cost_bytes = 512;
    std::atomic<std::int64_t>& admitted_at = factory_ns[i];
    if (slot < honest) {
      Honest& h = f.honest[slot];
      honest_index[slot] = i;
      const std::uint64_t sid = session_id(kSessionKind, round * honest + slot);
      service_span[slot] = Tracer::new_id();
      h.timed->set_context({sid, service_span[slot]});
      submit.client_id = 0x600D0000 + slot;
      const std::uint64_t base = (round + 1) << 8;
      engine.submit(
          round * total + i,
          [&h, &channel, &policy, &admitted_at,
           base](crypto::ChaChaDrbg& rng)
              -> std::unique_ptr<core::SessionMachine> {
            admitted_at.store(now_ns(), std::memory_order_relaxed);
            return std::make_unique<core::AuthSessionMachine>(
                channel, policy, rng, *h.verifier, *h.device, base);
          },
          submit);
    } else {
      const std::size_t attacker = slot - honest;
      core::AuthVerifier& target = *f.hostile[attacker];
      submit.client_id = 0xBAD0000 + attacker % kAttackerIds;
      const auto mode = attacker % 4 == 3 ? faults::FloodMode::kHalfOpen
                                          : faults::FloodMode::kMalformed;
      engine.submit(
          round * total + i,
          [&target, &channel, &policy, &admitted_at,
           mode](crypto::ChaChaDrbg& rng)
              -> std::unique_ptr<core::SessionMachine> {
            admitted_at.store(now_ns(), std::memory_order_relaxed);
            return std::make_unique<faults::FloodAuthMachine>(
                channel, policy, rng, target, mode);
          },
          submit);
    }
  }

  const std::int64_t t0 = now_ns();
  const std::vector<core::SessionReport> reports = engine.run();
  const std::int64_t t1 = now_ns();

  RoundOutcome out;
  out.wall_ns = static_cast<double>(t1 - t0);
  for (std::size_t slot = 0; slot < honest; ++slot) {
    const std::size_t i = honest_index[slot];
    const std::int64_t admitted = factory_ns[i].load(std::memory_order_relaxed);
    const std::int64_t done = complete_ns[i].load(std::memory_order_relaxed);
    if (admitted != 0) ++out.honest_admitted;
    if (reports[i].result != core::SessionResult::kConverged) {
      ++out.honest_failed;
      continue;
    }
    ++out.honest_converged;
    out.latency_ns.push_back(static_cast<double>(done - t0));
    out.admit_wait_ns.push_back(static_cast<double>(admitted - t0));
    out.service_ns.push_back(static_cast<double>(done - admitted));
    const std::uint64_t sid = session_id(kSessionKind, round * honest + slot);
    if (out.first_session == 0) {
      out.first_session = sid;
      out.first_latency_ns = static_cast<double>(done - t0);
    }
    if (service_span[slot] != 0) {
      Tracer::record({"core.session_engine.admit_wait", Tracer::new_id(), 0,
                      sid, t0, admitted});
      Tracer::record({"core.session_engine.service", service_span[slot], 0,
                      sid, admitted, done});
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (order[i] >= honest &&
        reports[i].result == core::SessionResult::kConverged) {
      ++out.false_accepts;
    }
    for (const auto direction :
         {net::Direction::kAtoB, net::Direction::kBtoA}) {
      const net::ChannelShedStats& shed = channels[i].shed_stats(direction);
      out.shed_frames += shed.dropped_oversized + shed.dropped_overflow;
    }
  }
  f.controller->advance(kRefillTicks);
  return out;
}

}  // namespace

Result run_auth_flood(const Options& options) {
  Result result;
  const std::size_t honest = options.tiny ? 8 : 64;
  const std::size_t hostile = honest * 19;  // 95% of the burst
  // Set-up is sampled over the whole run, between rounds, so that it sees
  // the same host as the rounds do: one burst of back-to-back set-ups right
  // after start measures whatever the shared host was doing in those
  // milliseconds. Each sample builds a fixture and throws it away.
  std::vector<double> setup_s;
  auto time_setup = [&] {
    const std::int64_t s0 = now_ns();
    std::unique_ptr<Fixture> built = make_fixture(options, honest, hostile);
    setup_s.push_back(seconds_between(s0, now_ns()));
    return built;
  };
  const std::unique_ptr<Fixture> fixture = time_setup();
  Fixture& f = *fixture;

  const std::size_t total = honest + hostile;
  std::vector<std::atomic<std::int64_t>> factory_ns(total);
  std::vector<std::atomic<std::int64_t>> complete_ns(total);
  core::SessionEngineConfig config;
  config.max_in_flight = 64;
  config.admission = f.controller.get();
  config.on_complete = [&complete_ns](std::size_t index) {
    complete_ns[index % complete_ns.size()].store(now_ns(),
                                                  std::memory_order_relaxed);
  };
  core::SessionEngine engine(*f.pool, config);
  std::mt19937_64 order_rng(options.seed ^ 0x0F100D);

  // Warm-up rounds: arena, run queues and allocator reach steady state.
  std::uint64_t round = 0;
  for (; round < 3; ++round) {
    run_round(f, engine, round, order_rng, factory_ns, complete_ns);
  }
  const core::SessionEngineStats warm_engine = engine.stats();
  const core::AdmissionStats warm_admission = f.controller->stats();
  Tracer::clear();

  // Per-round figures. The run reports their medians over the least
  // disturbed tenth of the rounds (shortest burst): a neighbour's load on a
  // shared host only ever adds time.
  std::vector<double> round_wall;
  std::vector<double> round_goodput;
  std::vector<double> round_p50_ns;
  std::vector<double> round_p90_ns;
  std::vector<double> admit_wait_ns;
  std::vector<double> service_ns;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::uint64_t converged = 0;
  std::uint64_t honest_admitted = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t rounds = 0;
  std::uint64_t checked_session = 0;
  double checked_latency = 0.0;
  const std::int64_t start = now_ns();
  while (seconds_between(start, now_ns()) < options.seconds || rounds < 2) {
    if (!options.trace && rounds % kSetupEvery == kSetupEvery - 1) {
      time_setup();
    }
    const bool traced = options.trace && rounds % 2 == 0;
    Tracer::set_enabled(traced);
    const RoundOutcome r =
        run_round(f, engine, round, order_rng, factory_ns, complete_ns);
    Tracer::set_enabled(false);
    ++round;
    ++rounds;
    result.attempted += total;
    result.failed += r.honest_failed + r.false_accepts;
    result.gate("zero_false_accepts", r.false_accepts == 0);
    result.gate("every_honest_session_converges", r.honest_failed == 0);
    (traced ? traced_wall : untraced_wall).push_back(r.wall_ns);
    if (traced && checked_session == 0 && r.first_session != 0) {
      checked_session = r.first_session;
      checked_latency = r.first_latency_ns;
    }
    converged += r.honest_converged;
    round_wall.push_back(r.wall_ns);
    round_goodput.push_back(static_cast<double>(r.honest_converged) /
                            (r.wall_ns * 1e-9));
    round_p50_ns.push_back(quantile(r.latency_ns, 0.5));
    round_p90_ns.push_back(quantile(r.latency_ns, 0.9));
    honest_admitted += r.honest_admitted;
    shed_frames += r.shed_frames;
    if (options.trace) {  // kept only when traced: peak RSS stays the program's
      admit_wait_ns.insert(admit_wait_ns.end(), r.admit_wait_ns.begin(),
                           r.admit_wait_ns.end());
      service_ns.insert(service_ns.end(), r.service_ns.begin(),
                        r.service_ns.end());
    }
  }

  std::vector<double> goodputs;
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (std::size_t i : least_disturbed(round_wall, 0.1)) {
    goodputs.push_back(round_goodput[i]);
    p50s.push_back(round_p50_ns[i]);
    p90s.push_back(round_p90_ns[i]);
  }
  const double goodput = median(goodputs);
  const double p50_ms = median(p50s) * 1e-6;
  const double p90_ms = median(p90s) * 1e-6;
  result.named["honest_goodput_per_s"] = {goodput, "1/s"};
  result.named["honest_latency_p50_ms"] = {p50_ms, "ms"};
  result.named["honest_latency_p90_ms"] = {p90_ms, "ms"};
  std::printf("auth_flood: %llu rounds of %zu honest + %zu hostile sessions\n",
              static_cast<unsigned long long>(rounds), honest, hostile);

  result.metrics["workload.latency_p90_ms"] = {p90_ms, "ms"};
  if (!options.trace) {
    result.metrics["setup_s"] = {median(setup_s), "s"};
    result.metrics["goodput_per_s"] = {goodput, "1/s"};
    result.metrics["latency_p50_ms"] = {p50_ms, "ms"};
    return result;
  }

  const core::SessionEngineStats es = engine.stats();
  const core::AdmissionStats as = f.controller->stats();
  const double per_round = 1.0 / static_cast<double>(rounds);
  auto delta = [&](std::uint64_t now, std::uint64_t before) {
    return static_cast<double>(now - before) * per_round;
  };
  auto& m = result.metrics;
  m["core.session_engine.admit_wait_p90_ms"] = {
      quantile(admit_wait_ns, 0.9) * 1e-6, "ms"};
  m["core.session_engine.service_p90_ms"] = {quantile(service_ns, 0.9) * 1e-6,
                                             "ms"};
  m["core.session_engine.steps_per_honest"] = {
      converged > 0 ? static_cast<double>(es.steps - warm_engine.steps) /
                          static_cast<double>(converged)
                    : 0.0,
      "count"};
  m["core.session_engine.steals"] = {delta(es.steals, warm_engine.steals),
                                     "count/round"};
  m["core.session_engine.parks"] = {delta(es.parks, warm_engine.parks),
                                    "count/round"};
  m["core.session_engine.worker_parks"] = {
      delta(es.worker_parks, warm_engine.worker_parks), "count/round"};
  m["core.session_engine.wakeups"] = {delta(es.wakeups, warm_engine.wakeups),
                                      "count/round"};
  m["core.session_engine.peak_queue_depth"] = {
      static_cast<double>(es.peak_queue_depth), "count"};
  const std::uint64_t admitted = as.admitted - warm_admission.admitted;
  m["core.admission_control.admitted"] = {
      delta(as.admitted, warm_admission.admitted), "count/round"};
  m["core.admission_control.shed_rate_limited"] = {
      delta(as.shed_rate_limited, warm_admission.shed_rate_limited),
      "count/round"};
  m["core.admission_control.evicted_half_open"] = {
      delta(as.evicted_half_open, warm_admission.evicted_half_open),
      "count/round"};
  m["core.admission_control.malformed"] = {
      delta(as.malformed, warm_admission.malformed), "count/round"};
  m["core.admission_control.honest_share_of_admitted"] = {
      admitted > 0 ? static_cast<double>(honest_admitted) /
                         static_cast<double>(admitted)
                   : 0.0,
      "ratio"};
  m["core.admission_control.peak_charged_bytes"] = {
      static_cast<double>(as.peak_charged_bytes), "B"};
  m["net.channel.shed_frames"] = {static_cast<double>(shed_frames) * per_round,
                                  "count/round"};

  const std::vector<Span> spans = Tracer::collect();
  const auto sessions_self = self_times_by_session(spans);
  m["puf.arbiter.evaluate_us"] = {
      median_self_ns(sessions_self, "puf.arbiter.evaluate", true) * 1e-3,
      "us"};
  finish_trace(options, spans, sessions_self, traced_wall, untraced_wall,
               checked_session, checked_latency, result);
  return result;
}

}  // namespace perfbench
