#include "sim/peripherals.hpp"

#include <stdexcept>
#include <utility>

namespace neuropuls::sim {

PufPeripheral::PufPeripheral(EventScheduler& scheduler, StatsRegistry& stats,
                             CpuModel& cpu, puf::Puf& puf,
                             double response_latency_ns)
    : scheduler_(scheduler),
      stats_(stats),
      cpu_(cpu),
      response_latency_ns_(response_latency_ns),
      device_(scheduler, puf, response_latency_ns),
      bus_(cpu) {
  bus_.map(kBase, &device_);
}

puf::Response PufPeripheral::evaluate(const puf::Challenge& challenge) {
  auto response =
      mmio_puf_evaluate(bus_, kBase, challenge, cpu_, scheduler_);
  if (!response) {
    throw std::runtime_error("PufPeripheral: device reported ERROR");
  }
  stats_.count("puf.evaluations");
  stats_.add("puf.device_time_ns", response_latency_ns_);
  log_.push_back(puf::Crp{challenge, *response});
  return std::move(*response);
}

AcceleratorPeripheral::AcceleratorPeripheral(
    EventScheduler& scheduler, StatsRegistry& stats,
    accel::SecureAccelerator& accelerator, double mac_time_ps,
    MmioCosts costs)
    : scheduler_(scheduler),
      stats_(stats),
      accelerator_(accelerator),
      mac_time_ps_(mac_time_ps),
      costs_(costs) {}

void AcceleratorPeripheral::charge_crypto_engine(std::size_t bytes) {
  // Hardware AES-CTR + CMAC at 1 byte/ns (8 Gb/s crypto engine).
  scheduler_.advance(ps_from_ns(static_cast<double>(bytes)));
  stats_.add("accel.crypto_bytes", static_cast<double>(bytes));
}

void AcceleratorPeripheral::load_network(const crypto::Bytes& ciphered_network,
                                         CpuModel& cpu, MemoryModel& memory) {
  cpu.busy_ns(costs_.dma_setup_ns);
  memory.transfer(ciphered_network.size());
  charge_crypto_engine(ciphered_network.size());
  accelerator_.load_network(ciphered_network);
  stats_.count("accel.loads");
}

crypto::Bytes AcceleratorPeripheral::execute(const crypto::Bytes& ciphered_input,
                                             CpuModel& cpu,
                                             MemoryModel& memory) {
  cpu.busy_ns(costs_.dma_setup_ns);
  memory.transfer(ciphered_input.size());
  charge_crypto_engine(ciphered_input.size());

  const crypto::Bytes output = accelerator_.execute_network(ciphered_input);

  // Photonic compute time: MACs since the previous call.
  const std::uint64_t macs_now = accelerator_.stats().mac_operations;
  const double compute_ps =
      mac_time_ps_ * static_cast<double>(macs_now - macs_before_);
  macs_before_ = macs_now;
  scheduler_.advance(static_cast<Picoseconds>(compute_ps + 0.5));
  stats_.add("accel.compute_ns", compute_ps / 1e3);

  charge_crypto_engine(output.size());
  memory.transfer(output.size());
  stats_.count("accel.executions");
  return output;
}

}  // namespace neuropuls::sim
