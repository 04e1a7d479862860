// Memory-mapped peripherals: the PUF and the accelerator, as seen by the
// RISC-V core (§V: "define a peripheral module connected to the RISC-V
// microprocessor, providing the essential infrastructure for the delivery
// of the programming API").
//
// Each peripheral exposes a register-level API (submit / poll / read) and
// charges realistic MMIO + device latencies through the scheduler. The
// PUF peripheral additionally logs every CRP it serves into the stats
// registry feed so quality metrics can be computed offline, mirroring the
// gem5 logging workflow §V sketches.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/secure_api.hpp"
#include "puf/crp_db.hpp"
#include "sim/cpu.hpp"
#include "sim/mmio.hpp"

namespace neuropuls::sim {

struct MmioCosts {
  double dma_setup_ns = 200.0;
};

/// The PUF as a memory-mapped device: a PufMmioDevice mapped on the
/// peripheral's own MmioBus, read by the mmio_puf_evaluate firmware
/// sequence (sim/mmio.hpp).
class PufPeripheral {
 public:
  /// Bus address of the PUF's register map.
  static constexpr std::uint32_t kBase = 0x4000'0000;

  /// `response_latency_ns` is the device-side interrogation time (for the
  /// photonic PUF: PhotonicPuf::interrogation_time_s * 1e9). Register
  /// accesses and polls are charged to `cpu`.
  PufPeripheral(EventScheduler& scheduler, StatsRegistry& stats,
                CpuModel& cpu, puf::Puf& puf, double response_latency_ns);
  PufPeripheral(const PufPeripheral&) = delete;
  PufPeripheral& operator=(const PufPeripheral&) = delete;

  /// Firmware-level operation: write the challenge registers, trigger,
  /// poll until ready, read the response registers. Advances time
  /// accordingly and returns the response.
  puf::Response evaluate(const puf::Challenge& challenge);

  /// CRPs served so far (the gem5-style log).
  const std::vector<puf::Crp>& log() const noexcept { return log_; }

  double response_latency_ns() const noexcept { return response_latency_ns_; }

 private:
  EventScheduler& scheduler_;
  StatsRegistry& stats_;
  CpuModel& cpu_;
  double response_latency_ns_;
  PufMmioDevice device_;
  MmioBus bus_;
  std::vector<puf::Crp> log_;
};

/// The secure accelerator (Table I API) as a DMA peripheral.
class AcceleratorPeripheral {
 public:
  /// `mac_time_ps` is the photonic core's time per MAC in picoseconds
  /// (sub-ps values allowed via double).
  AcceleratorPeripheral(EventScheduler& scheduler, StatsRegistry& stats,
                        accel::SecureAccelerator& accelerator,
                        double mac_time_ps = 0.02, MmioCosts costs = {});

  /// DMA the ciphered network in and run hardware load (decrypt+verify
  /// happen at wire speed in the crypto engine).
  void load_network(const crypto::Bytes& ciphered_network, CpuModel& cpu,
                    MemoryModel& memory);

  /// DMA in, execute, DMA the ciphered output back.
  crypto::Bytes execute(const crypto::Bytes& ciphered_input, CpuModel& cpu,
                        MemoryModel& memory);

 private:
  void charge_crypto_engine(std::size_t bytes);

  EventScheduler& scheduler_;
  StatsRegistry& stats_;
  accel::SecureAccelerator& accelerator_;
  double mac_time_ps_;
  MmioCosts costs_;
  std::uint64_t macs_before_ = 0;
};

}  // namespace neuropuls::sim
