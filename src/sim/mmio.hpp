// Register-level MMIO bus and the PUF device's register map — the
// "peripheral module connected to the RISC-V microprocessor, providing
// the essential infrastructure for the delivery of the programming API"
// of §V. `PufPeripheral` maps one PufMmioDevice on its own bus and
// reads the PUF through `mmio_puf_evaluate`.
//
// PUF device register map (32-bit registers, byte offsets):
//   0x000  CTRL     W   bit0 START (begin interrogation), bit1 RESET
//   0x004  STATUS   R   bit0 BUSY, bit1 DONE, bit2 ERROR
//   0x008  CHAL_LEN R   challenge length in bytes
//   0x00C  RESP_LEN R   response length in bytes
//   0x100+ CHAL[i]  W   challenge window (4 bytes per register, BE)
//   0x200+ RESP[i]  R   response window (valid while DONE)
//
// Writing START with a partially written challenge raises ERROR. Reading
// RESP while BUSY returns zero. The device's interrogation latency is
// modelled through the event scheduler, so a polling driver observes a
// realistic BUSY period.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "puf/puf.hpp"
#include "sim/cpu.hpp"

namespace neuropuls::sim {

/// A device mapped on the MMIO bus.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual std::uint32_t read32(std::uint32_t offset) = 0;
  virtual void write32(std::uint32_t offset, std::uint32_t value) = 0;
  virtual std::uint32_t size() const = 0;
};

/// Address-dispatching bus; charges CPU time per access.
class MmioBus {
 public:
  MmioBus(CpuModel& cpu, double access_ns = 20.0)
      : cpu_(cpu), access_ns_(access_ns) {}

  /// Maps `device` at [base, base + device->size()). Throws
  /// std::invalid_argument on overlap or misalignment.
  void map(std::uint32_t base, MmioDevice* device);

  /// Aligned 32-bit access; throws std::out_of_range for unmapped
  /// addresses, std::invalid_argument for misaligned ones.
  std::uint32_t read32(std::uint32_t address);
  void write32(std::uint32_t address, std::uint32_t value);

 private:
  struct Mapping {
    std::uint32_t base;
    MmioDevice* device;
  };
  Mapping& resolve(std::uint32_t address);

  CpuModel& cpu_;
  double access_ns_;
  std::map<std::uint32_t, Mapping> mappings_;  // keyed by base
};

/// The PUF behind the register map above.
class PufMmioDevice final : public MmioDevice {
 public:
  static constexpr std::uint32_t kCtrl = 0x000;
  static constexpr std::uint32_t kStatus = 0x004;
  static constexpr std::uint32_t kChalLen = 0x008;
  static constexpr std::uint32_t kRespLen = 0x00C;
  static constexpr std::uint32_t kChalWindow = 0x100;
  static constexpr std::uint32_t kRespWindow = 0x200;

  static constexpr std::uint32_t kCtrlStart = 1u << 0;
  static constexpr std::uint32_t kCtrlReset = 1u << 1;
  static constexpr std::uint32_t kStatusBusy = 1u << 0;
  static constexpr std::uint32_t kStatusDone = 1u << 1;
  static constexpr std::uint32_t kStatusError = 1u << 2;

  PufMmioDevice(EventScheduler& scheduler, puf::Puf& puf,
                double response_latency_ns);

  std::uint32_t read32(std::uint32_t offset) override;
  void write32(std::uint32_t offset, std::uint32_t value) override;
  std::uint32_t size() const override { return 0x300; }

 private:
  void start();
  void reset();

  EventScheduler& scheduler_;
  puf::Puf& puf_;
  double response_latency_ns_;
  std::vector<std::uint8_t> challenge_;
  std::vector<bool> challenge_written_;
  puf::Response response_;
  std::uint32_t status_ = 0;
};

/// Firmware-style driver: writes the challenge, starts, polls, reads the
/// response. Returns std::nullopt if the device reports ERROR.
std::optional<puf::Response> mmio_puf_evaluate(MmioBus& bus,
                                               std::uint32_t base,
                                               const puf::Challenge& challenge,
                                               CpuModel& cpu,
                                               EventScheduler& scheduler);

}  // namespace neuropuls::sim
