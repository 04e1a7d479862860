// fleet_lifecycle: the operator's fleet path over a durable CRP store.
//
// One iteration: a FleetSimulator over an 8-shard group-commit
// CrpDatabase in a fresh directory enrolls a large fleet with 2 CRPs per
// device and syncs; runs an auth campaign; the store is closed and
// reopened (cold-start recovery, repeated to sample the restart
// downtime). A separate, smaller fleet then runs a rotation sweep — that
// path is fsync-bound, so a full-size fleet would swamp the run. All load
// comes from one ThreadPool; the store's WAL writer is the only other
// thread.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>

#include "common.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "fleet/fleet.hpp"
#include "puf/crp_db.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;
namespace fs = std::filesystem;

constexpr std::uint64_t kSessionKind = 1;
constexpr std::size_t kShards = 8;
/// Set-up samples taken after each iteration of an untraced run.
constexpr std::size_t kSetupSamples = 4;

struct Sizes {
  std::size_t devices;
  std::size_t sessions;
  std::size_t reopens;
  std::size_t rotation_devices;
};

puf::CrpDurabilityOptions durable(const std::string& dir) {
  puf::CrpDurabilityOptions o;
  o.directory = dir;
  o.mode = puf::CrpDurabilityOptions::Mode::kGroupCommit;
  return o;
}

fleet::FleetConfig fleet_config(std::size_t devices, std::uint64_t seed,
                                common::ThreadPool& pool) {
  fleet::FleetConfig c;
  c.devices = devices;
  c.generations = 2;
  c.seed = seed;
  c.pool = &pool;
  return c;
}

fleet::FleetConfig enroll_fleet(const Options& options, const Sizes& sizes,
                               common::ThreadPool& pool) {
  return fleet_config(sizes.devices, options.seed * 0x9E3779B97F4A7C15ULL,
                      pool);
}

fleet::FleetConfig rotation_fleet(const Options& options, const Sizes& sizes,
                                  common::ThreadPool& pool) {
  return fleet_config(sizes.rotation_devices, options.seed ^ 0x707A7E, pool);
}

/// One set-up sample: opens the two fresh durable stores and builds the
/// two simulators an iteration starts from, one after the other. Closing
/// and removing each store is not timed.
double sample_setup(const Options& options, const Sizes& sizes,
                    common::ThreadPool& pool, const std::string& dir) {
  double seconds = 0.0;
  for (const bool rotation : {false, true}) {
    const std::int64_t a = now_ns();
    {
      puf::CrpDatabase store(kShards, durable(dir));
      const fleet::FleetSimulator sim(
          rotation ? rotation_fleet(options, sizes, pool)
                   : enroll_fleet(options, sizes, pool),
          store);
      seconds += seconds_between(a, now_ns());
    }
    fs::remove_all(dir);
  }
  return seconds;
}

double contended_share(const puf::CrpStoreStats& before,
                       const puf::CrpStoreStats& after) {
  const auto acquisitions = after.acquisitions - before.acquisitions;
  return acquisitions == 0
             ? 0.0
             : static_cast<double>(after.contended - before.contended) /
                   static_cast<double>(acquisitions);
}

struct Iteration {
  double enroll_s = 0.0;  // enroll() + sync()
  double campaign_s = 0.0;
  std::vector<double> recovery_s;
  double rotation_s = 0.0;
  double total_ns = 0.0;
  double contended_enroll = 0.0;
  double contended_campaign = 0.0;
  std::uint64_t take_steals = 0;
  std::uint64_t replayed_records = 0;
  double bytes_per_crp = 0.0;
  double recovered_crps = 0.0;
};

Iteration run_iteration(const Options& options, const Sizes& sizes,
                        common::ThreadPool& pool, std::uint64_t index,
                        Result& result) {
  using Scope = Tracer::Scope;
  const std::uint64_t sid = session_id(kSessionKind, index);
  const std::string base = options.work_dir + "/fleet-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(index);
  const std::string big_dir = base + "-big";
  const std::string rot_dir = base + "-rot";
  Iteration it;
  const std::int64_t t0 = now_ns();
  {
    Scope root("bench.session", sid);
    {
      Scope s("bench.glue", sid);
      fs::remove_all(big_dir);
      fs::remove_all(rot_dir);
    }
    std::unique_ptr<puf::CrpDatabase> store;
    std::optional<fleet::FleetSimulator> sim;
    {
      Scope s("puf.crp_db.open", sid);
      store = std::make_unique<puf::CrpDatabase>(kShards, durable(big_dir));
      sim.emplace(enroll_fleet(options, sizes, pool), *store);
    }
    std::size_t pre_restart_size = 0;
    std::int64_t a = 0;
    {
      const auto locks0 = store->lock_stats();
      const std::size_t hwm0 = peak_rss_bytes();
      a = now_ns();
      fleet::EnrollReport enrolled;
      {
        Scope s("fleet.enroll", sid);
        enrolled = sim->enroll();
      }
      {
        Scope s("puf.crp_wal.sync", sid);
        store->sync();
      }
      it.enroll_s = seconds_between(a, now_ns());
      it.bytes_per_crp =
          static_cast<double>(peak_rss_bytes() - hwm0) /
          static_cast<double>(enrolled.crps == 0 ? 1 : enrolled.crps);
      const auto locks1 = store->lock_stats();
      it.contended_enroll = contended_share(locks0, locks1);
      result.attempted += sizes.devices;
      result.gate("enrolled_every_crp",
                  enrolled.crps == sizes.devices * 2 &&
                      store->size() == sizes.devices * 2);

      a = now_ns();
      fleet::CampaignReport campaign;
      {
        Scope s("fleet.campaign", sid);
        campaign = sim->run_auth_campaign(sizes.sessions);
      }
      it.campaign_s = seconds_between(a, now_ns());
      const auto locks2 = store->lock_stats();
      it.contended_campaign = contended_share(locks1, locks2);
      it.take_steals += locks2.take_steals - locks0.take_steals;
      result.attempted += sizes.sessions;
      result.failed += campaign.failed + campaign.skipped;
      result.gate("campaign_converges_every_session",
                  campaign.converged == sizes.sessions &&
                      campaign.skipped == 0);
      {
        Scope s("puf.crp_wal.sync", sid);
        store->sync();
      }
      pre_restart_size = store->size();
    }
    sim.reset();
    {
      Scope s("puf.crp_wal.close", sid);
      store.reset();
    }
    for (std::size_t r = 0; r < sizes.reopens; ++r) {
      a = now_ns();
      {
        Scope s("puf.crp_wal.recovery", sid);
        store = std::make_unique<puf::CrpDatabase>(kShards, durable(big_dir));
      }
      it.recovery_s.push_back(seconds_between(a, now_ns()));
      const puf::CrpRecoveryStats stats = store->recovery_stats();
      it.replayed_records = stats.wal_records + stats.snapshot_entries;
      it.recovered_crps = static_cast<double>(store->size());
      ++result.attempted;
      const bool intact =
          store->size() == pre_restart_size && stats.torn_bytes == 0;
      result.gate("reopened_store_intact", intact);
      if (!intact) ++result.failed;
      Scope s("puf.crp_wal.close", sid);
      store.reset();
    }

    std::unique_ptr<puf::CrpDatabase> rot_store;
    {
      Scope s("puf.crp_db.open", sid);
      rot_store = std::make_unique<puf::CrpDatabase>(kShards, durable(rot_dir));
      sim.emplace(rotation_fleet(options, sizes, pool), *rot_store);
    }
    {
      {
        Scope s("fleet.rotation_enroll", sid);
        sim->enroll();
        rot_store->sync();
      }
      const auto locks0 = rot_store->lock_stats();
      a = now_ns();
      fleet::CampaignReport rotation;
      {
        Scope s("fleet.rotation", sid);
        rotation = sim->run_rotation_sweep();
      }
      it.rotation_s = seconds_between(a, now_ns());
      it.take_steals +=
          rot_store->lock_stats().take_steals - locks0.take_steals;
      result.attempted += sizes.rotation_devices;
      const std::size_t missed = sizes.rotation_devices - rotation.rotated;
      result.failed += missed;
      result.gate("rotation_rotates_every_device", missed == 0);
      result.gate("no_keyless_device_after_rotation",
                  sim->count_keyless() == 0);
    }
    sim.reset();
    {
      Scope s("puf.crp_wal.close", sid);
      rot_store.reset();
    }
    {
      Scope s("bench.glue", sid);
      fs::remove_all(big_dir);
      fs::remove_all(rot_dir);
    }
  }
  it.total_ns = static_cast<double>(now_ns() - t0);
  return it;
}

}  // namespace

Result run_fleet_lifecycle(const Options& options) {
  Result result;
  const Sizes sizes = options.tiny ? Sizes{2000, 1000, 2, 256}
                                   : Sizes{65536, 16384, 6, 1024};
  fs::create_directories(options.work_dir);

  // Set-up is what an iteration does before its phases: open two fresh
  // durable stores and build their simulators. Store opens are
  // fsync-bound, and an fsync right after an iteration waits for the
  // filesystem to commit that iteration's deleted store; so setup_s is
  // sampled between iterations, kSetupSamples times each, after a
  // directory sync and one untimed sample have let that commit finish.
  // The pool is built once.
  const auto pool = std::make_unique<common::ThreadPool>(options.threads);
  const std::string setup_dir =
      options.work_dir + "/setup-" + std::to_string(::getpid());

  std::vector<Iteration> iterations;
  std::vector<double> setup_s;
  std::vector<double> traced_total;
  std::vector<double> untraced_total;
  std::uint64_t checked_session = 0;
  double checked_total = 0.0;
  const std::int64_t start = now_ns();
  for (std::uint64_t index = 1;
       seconds_between(start, now_ns()) < options.seconds ||
       iterations.size() < 2;
       ++index) {
    const bool traced = options.trace && index % 2 == 1;
    Tracer::set_enabled(traced);
    Iteration it = run_iteration(options, sizes, *pool, index, result);
    Tracer::set_enabled(false);
    if (traced && checked_session == 0) {
      checked_session = session_id(kSessionKind, index);
      checked_total = it.total_ns;
    }
    (traced ? traced_total : untraced_total).push_back(it.total_ns);
    std::printf("iteration %llu: enroll %.4f s, campaign %.4f s, reopen "
                "%.4f s (median of %zu), rotation %.4f s\n",
                static_cast<unsigned long long>(index), it.enroll_s,
                it.campaign_s, median(it.recovery_s), it.recovery_s.size(),
                it.rotation_s);
    iterations.push_back(std::move(it));
    if (!options.trace) {
      common::io::sync_directory(options.work_dir);
      (void)sample_setup(options, sizes, *pool, setup_dir);  // settles
      for (std::size_t i = 0; i < kSetupSamples; ++i) {
        setup_s.push_back(sample_setup(options, sizes, *pool, setup_dir));
      }
    }
  }

  // Each phase's figure comes from its least disturbed quarter of
  // iterations (shortest phase time): a neighbour's load on a shared host
  // only ever adds time, and it hits phases, not whole iterations.
  auto settled = [&](auto field) {
    std::vector<double> values;
    for (const Iteration& it : iterations) values.push_back(field(it));
    std::vector<double> kept;
    for (std::size_t i : least_disturbed(values, 0.25)) {
      kept.push_back(values[i]);
    }
    return median(kept);
  };
  const double enroll_s =
      settled([](const Iteration& it) { return it.enroll_s; });
  const double campaign_s =
      settled([](const Iteration& it) { return it.campaign_s; });
  const double rotation_s =
      settled([](const Iteration& it) { return it.rotation_s; });
  // Restart downtime: quantiles of each iteration's reopens, from the
  // quarter of iterations whose reopens ran least disturbed.
  std::vector<double> reopen_p50;
  for (const Iteration& it : iterations) {
    reopen_p50.push_back(quantile(it.recovery_s, 0.5));
  }
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (std::size_t i : least_disturbed(reopen_p50, 0.25)) {
    p50s.push_back(reopen_p50[i]);
    p90s.push_back(quantile(iterations[i].recovery_s, 0.9));
  }
  const double recover_s = median(p50s);
  const double recovered_crps = iterations.front().recovered_crps;
  // Lifecycle goodput: device operations (enrollments, auth sessions,
  // rotations) per second of the operator's wall time, restart downtime
  // included. Sizes are chosen so each phase takes a similar share.
  const double goodput =
      static_cast<double>(sizes.devices + sizes.sessions +
                          sizes.rotation_devices) /
      (enroll_s + campaign_s +
       recover_s * static_cast<double>(sizes.reopens) + rotation_s);
  result.named["enroll_devices_per_s"] = {
      static_cast<double>(sizes.devices) / enroll_s, "1/s"};
  result.named["auth_sessions_per_s"] = {
      static_cast<double>(sizes.sessions) / campaign_s, "1/s"};
  result.named["rotate_devices_per_s"] = {
      static_cast<double>(sizes.rotation_devices) / rotation_s, "1/s"};
  result.named["recover_crps_per_s"] = {recovered_crps / recover_s, "1/s"};
  std::printf("fleet_lifecycle: %zu iterations of %zu devices, %zu sessions, "
              "%zu reopens, %zu rotated devices\n",
              iterations.size(), sizes.devices, sizes.sessions, sizes.reopens,
              sizes.rotation_devices);

  result.metrics["workload.latency_p90_ms"] = {median(p90s) * 1e3, "ms"};
  if (!options.trace) {
    result.metrics["setup_s"] = {median(setup_s), "s"};
    result.metrics["goodput_per_s"] = {goodput, "1/s"};
    // Latency: the verifier's restart downtime (store reopen).
    result.metrics["latency_p50_ms"] = {recover_s * 1e3, "ms"};
    return result;
  }

  const std::vector<Span> spans = Tracer::collect();
  const auto sessions_self = self_times_by_session(spans);
  auto seconds = [&](const char* name, bool per_call) {
    return Metric{median_self_ns(sessions_self, name, per_call) * 1e-9, "s"};
  };
  auto& m = result.metrics;
  m["fleet.enroll_s"] = seconds("fleet.enroll", false);
  m["puf.crp_wal.sync_s"] = seconds("puf.crp_wal.sync", false);
  m["fleet.campaign_s"] = seconds("fleet.campaign", false);
  m["fleet.rotation_s"] = seconds("fleet.rotation", false);
  m["puf.crp_wal.recovery_s"] = seconds("puf.crp_wal.recovery", true);
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const Iteration& it : iterations) values.push_back(field(it));
    return median(values);
  };
  m["puf.crp_db.lock_contended_share.enroll"] = {
      median_of([](const Iteration& it) { return it.contended_enroll; }),
      "ratio"};
  m["puf.crp_db.lock_contended_share.campaign"] = {
      median_of([](const Iteration& it) { return it.contended_campaign; }),
      "ratio"};
  // VmHWM only grows on the first enrollment of the process.
  m["puf.crp_db.bytes_per_crp"] = {iterations.front().bytes_per_crp, "B"};
  m["puf.crp_db.take_steals"] = {
      median_of([](const Iteration& it) {
        return static_cast<double>(it.take_steals);
      }),
      "count"};
  m["puf.crp_wal.replayed_records"] = {
      median_of([](const Iteration& it) {
        return static_cast<double>(it.replayed_records);
      }),
      "count"};
  finish_trace(options, spans, sessions_self, traced_total, untraced_total,
               checked_session, checked_total, result);
  return result;
}

}  // namespace perfbench
