#include "crypto/bytes.hpp"

#include <bit>
#include <cstring>

namespace neuropuls::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

void secure_wipe(void* data, std::size_t size) noexcept {
  if (data == nullptr || size == 0) return;
  // The asm barrier below makes the cleared bytes observable, so the
  // store cannot be removed by dead-store elimination.
  std::memset(data, 0, size);  // ctlint:allow(raw-memset-wipe) sanctioned primitive
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(data) : "memory");
#else
  // Fallback: a volatile pass the optimizer must preserve. This is a
  // dead-store-elimination barrier, not inter-thread synchronization.
  // ctlint:allow(atomic-misuse) wipe barrier, not synchronization
  volatile std::uint8_t* p = static_cast<volatile std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) p[i] = 0;
#endif
}

std::string to_hex(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0F]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ct_equal(ByteView a, ByteView b) noexcept {
  // Fold the length difference into the accumulator instead of returning
  // early so the scan length is a function of the inputs' sizes only.
  std::uint32_t acc = static_cast<std::uint32_t>(a.size() ^ b.size());
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    acc |= static_cast<std::uint32_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

Bytes xor_bytes(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("xor_bytes: length mismatch");
  }
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

void xor_into(std::span<std::uint8_t> dst, ByteView src) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("xor_into: length mismatch");
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes bytes_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

void put_u32_be(std::span<std::uint8_t> out, std::uint32_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value >> 24);
  out[1] = static_cast<std::uint8_t>(value >> 16);
  out[2] = static_cast<std::uint8_t>(value >> 8);
  out[3] = static_cast<std::uint8_t>(value);
}

void put_u64_be(std::span<std::uint8_t> out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (56 - 8 * i));
  }
}

std::uint32_t get_u32_be(ByteView in) noexcept {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

std::uint64_t get_u64_be(ByteView in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | in[static_cast<std::size_t>(i)];
  }
  return v;
}

void append_u64_be(Bytes& out, std::uint64_t value) {
  std::uint8_t buf[8];
  put_u64_be(buf, value);
  out.insert(out.end(), buf, buf + 8);
}

void append_u32_be(Bytes& out, std::uint32_t value) {
  std::uint8_t buf[4];
  put_u32_be(buf, value);
  out.insert(out.end(), buf, buf + 4);
}

void append_f64_le(Bytes& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void append_prefixed(Bytes& out, ByteView data) {
  append_u32_be(out, static_cast<std::uint32_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

double fractional_hamming_distance(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("fractional_hamming_distance: length mismatch");
  }
  if (a.empty()) return 0.0;
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
  }
  return static_cast<double>(diff) / (8.0 * static_cast<double>(a.size()));
}

std::size_t popcount(ByteView data) noexcept {
  std::size_t n = 0;
  for (std::uint8_t b : data) {
    n += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(b)));
  }
  return n;
}

}  // namespace neuropuls::crypto
