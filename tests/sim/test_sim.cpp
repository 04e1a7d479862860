// System-simulator tests: scheduler semantics, cost models, peripherals,
// and the E10 secure-vs-insecure pipeline invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "accel/network.hpp"
#include "sim/system.hpp"

namespace neuropuls::sim {
namespace {

TEST(Scheduler, TimeAdvancesAndEventsFireInOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_after(100, [&] { order.push_back(2); });
  scheduler.schedule_after(50, [&] { order.push_back(1); });
  scheduler.schedule_after(100, [&] { order.push_back(3); });  // tie: FIFO
  scheduler.advance(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 200u);
  EXPECT_TRUE(scheduler.idle());
}

TEST(Scheduler, AdvancePartialWindow) {
  EventScheduler scheduler;
  bool fired = false;
  scheduler.schedule_after(100, [&] { fired = true; });
  scheduler.advance(99);
  EXPECT_FALSE(fired);
  scheduler.advance(1);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunDrainsQueue) {
  EventScheduler scheduler;
  int count = 0;
  scheduler.schedule_after(10, [&] {
    ++count;
    scheduler.schedule_after(10, [&] { ++count; });
  });
  EXPECT_EQ(scheduler.run(), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(scheduler.now(), 20u);
}

TEST(Scheduler, RejectsPastScheduling) {
  EventScheduler scheduler;
  scheduler.advance(100);
  EXPECT_THROW(scheduler.schedule_at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(ps_from_ns(-1.0), std::invalid_argument);
}

TEST(Stats, CountersTotalsDistributions) {
  StatsRegistry stats;
  stats.count("a");
  stats.count("a", 4);
  stats.add("t", 1.5);
  stats.add("t", 2.5);
  stats.sample("d", 1.0);
  stats.sample("d", 3.0);
  EXPECT_EQ(stats.counter("a"), 5u);
  EXPECT_DOUBLE_EQ(stats.total("t"), 4.0);
  EXPECT_EQ(stats.distribution("d").n, 2u);
  EXPECT_DOUBLE_EQ(stats.distribution("d").mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.distribution("d").min, 1.0);
  EXPECT_EQ(stats.counter("missing"), 0u);
  stats.clear();
  EXPECT_EQ(stats.counter("a"), 0u);
}

TEST(Stats, CsvExportRoundTrips) {
  StatsRegistry stats;
  stats.count("puf.evaluations", 3);
  stats.add("cpu.time_ns", 12.5);
  stats.sample("lat", 1.0);
  stats.sample("lat", 3.0);
  std::ostringstream os;
  stats.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,puf.evaluations,3"), std::string::npos);
  EXPECT_NE(csv.find("total,cpu.time_ns,12.5"), std::string::npos);
  EXPECT_NE(csv.find("distribution,lat,2,2,1,3"), std::string::npos);
}

TEST(CpuModel, TimeMatchesCycleBudget) {
  EventScheduler scheduler;
  StatsRegistry stats;
  CpuCosts costs;
  costs.frequency_hz = 1e9;  // 1 cycle = 1 ns
  CpuModel cpu(scheduler, stats, costs);
  cpu.execute_ops(1000);
  EXPECT_EQ(cpu.cycles(), 1000u);
  EXPECT_NEAR(scheduler.now_ns(), 1000.0, 1.0);
  EXPECT_GT(cpu.energy_nj(), 0.0);
}

TEST(CpuModel, CryptoCostsScaleWithBytes) {
  EventScheduler scheduler;
  StatsRegistry stats;
  CpuModel cpu(scheduler, stats);
  const auto c0 = cpu.cycles();
  cpu.hash_sha256(1000);
  const auto hash_cost = cpu.cycles() - c0;
  cpu.hash_sha256(2000);
  EXPECT_NEAR(static_cast<double>(cpu.cycles() - c0 - hash_cost),
              2.0 * static_cast<double>(hash_cost), 2.0);
  // Modexp dwarfs hashing — the EKE cost story.
  const auto before = cpu.cycles();
  cpu.modexp_2048();
  EXPECT_GT(cpu.cycles() - before, 100u * hash_cost);
}

TEST(MemoryModel, LatencyPlusBandwidth) {
  EventScheduler scheduler;
  StatsRegistry stats;
  MemoryCosts costs;
  costs.latency_ns = 100.0;
  costs.bandwidth_gb_per_s = 1.0;  // 1 byte/ns
  MemoryModel memory(scheduler, stats, costs);
  memory.transfer(1000);
  EXPECT_NEAR(scheduler.now_ns(), 1100.0, 1.0);
  EXPECT_GT(memory.energy_nj(), 0.0);
  EXPECT_EQ(stats.counter("mem.transfers"), 1u);
}

TEST(PufPeripheral, ChargesDeviceLatencyAndLogs) {
  EventScheduler scheduler;
  StatsRegistry stats;
  CpuModel cpu(scheduler, stats);
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 5, 0);
  PufPeripheral peripheral(scheduler, stats, cpu, device_puf,
                           device_puf.interrogation_time_s() * 1e9);
  const puf::Challenge c(device_puf.challenge_bytes(), 0x12);
  const auto response = peripheral.evaluate(c);
  EXPECT_EQ(response.size(), device_puf.response_bytes());
  EXPECT_GE(scheduler.now_ns(), peripheral.response_latency_ns());
  ASSERT_EQ(peripheral.log().size(), 1u);
  EXPECT_EQ(peripheral.log()[0].challenge, c);
  EXPECT_EQ(stats.counter("puf.evaluations"), 1u);
}

TEST(SecureSystem, PhasesProduceSaneNumbers) {
  SecureSystem system(SystemConfig{});
  const auto boot = system.boot_keys();
  EXPECT_GT(boot.time_ns, 0.0);
  EXPECT_GT(boot.cpu_energy_nj, 0.0);
  const auto auth = system.authenticate();
  EXPECT_GT(auth.time_ns, 0.0);
  const auto att = system.attest();
  EXPECT_GT(att.time_ns, 0.0);
  // Attestation hashes all memory: it must dominate one auth session.
  EXPECT_GT(att.time_ns, auth.time_ns);
}

TEST(SecureSystem, LoadBeforeBootThrows) {
  SecureSystem system(SystemConfig{});
  const auto network = accel::make_random_network({4, 4}, 1);
  EXPECT_THROW(system.load_network(network), std::logic_error);
  EXPECT_THROW(system.infer({1, 2, 3, 4}, 1), std::logic_error);
}

TEST(SecureSystem, SecurePipelineCompletesAndBreaksDown) {
  SecureSystem system(SystemConfig{});
  const auto network = accel::make_random_network({8, 16, 4}, 9);
  const std::vector<double> input(8, 0.25);
  const auto report = system.run_secure_pipeline(network, input, 10);
  ASSERT_EQ(report.phases.size(), 5u);
  EXPECT_GT(report.total_time_ns, 0.0);
  EXPECT_GT(report.total_energy_nj, 0.0);
  // Every named phase present.
  for (const char* name :
       {"boot_keys", "authenticate", "attest", "load_network", "infer"}) {
    ASSERT_NE(report.phase(name), nullptr) << name;
    EXPECT_GT(report.phase(name)->time_ns, 0.0) << name;
  }
  EXPECT_EQ(report.phase("missing"), nullptr);
}

TEST(SecureSystem, SecurityOverheadIsOneTimeDominated) {
  // The secure pipeline costs more than the insecure one, but the gap is
  // dominated by one-time services (boot/auth/attest): per-inference
  // marginal cost stays within a small factor.
  const auto network = accel::make_random_network({8, 16, 4}, 9);
  const std::vector<double> input(8, 0.25);

  SecureSystem secure_few(SystemConfig{});
  const auto secure_10 = secure_few.run_secure_pipeline(network, input, 10);
  SecureSystem secure_many(SystemConfig{});
  const auto secure_1000 =
      secure_many.run_secure_pipeline(network, input, 1000);

  SecureSystem insecure_few(SystemConfig{});
  const auto insecure_10 =
      insecure_few.run_insecure_pipeline(network, input, 10);
  SecureSystem insecure_many(SystemConfig{});
  const auto insecure_1000 =
      insecure_many.run_insecure_pipeline(network, input, 1000);

  EXPECT_GT(secure_10.total_time_ns, insecure_10.total_time_ns);

  // Marginal per-inference cost (time difference / added inferences).
  const double secure_marginal =
      (secure_1000.total_time_ns - secure_10.total_time_ns) / 990.0;
  const double insecure_marginal =
      (insecure_1000.total_time_ns - insecure_10.total_time_ns) / 990.0;
  EXPECT_LT(secure_marginal, 20.0 * insecure_marginal);
  // Amortized overhead shrinks with inference count.
  const double overhead_10 =
      secure_10.total_time_ns / insecure_10.total_time_ns;
  const double overhead_1000 =
      secure_1000.total_time_ns / insecure_1000.total_time_ns;
  EXPECT_LT(overhead_1000, overhead_10);
}

TEST(SecureSystem, EkePhaseDominatesAuth) {
  SecureSystem system(SystemConfig{});
  system.boot_keys();
  const auto auth = system.authenticate();
  const auto eke = system.establish_session_key();
  // Two 2048-bit modexps dwarf the hash/MAC session ("computationally
  // more expensive", §IV).
  EXPECT_GT(eke.time_ns, 50.0 * auth.time_ns);
}

TEST(SecureSystem, PipelineWithEkeHasExtraPhase) {
  SecureSystem system(SystemConfig{});
  const auto network = accel::make_random_network({8, 8}, 1);
  const std::vector<double> input(8, 0.1);
  const auto report =
      system.run_secure_pipeline(network, input, 5, /*with_eke=*/true);
  ASSERT_EQ(report.phases.size(), 6u);
  ASSERT_NE(report.phase("session_key"), nullptr);
  EXPECT_GT(report.phase("session_key")->time_ns, 0.0);
}

TEST(SecureSystem, StatsAccumulate) {
  SecureSystem system(SystemConfig{});
  system.boot_keys();
  system.authenticate();
  EXPECT_EQ(system.stats().counter("auth.sessions"), 1u);
  EXPECT_GT(system.stats().counter("puf.evaluations"), 0u);
  EXPECT_GT(system.stats().total("cpu.time_ns"), 0.0);
}

}  // namespace
}  // namespace neuropuls::sim
