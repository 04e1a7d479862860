// Byte-buffer helpers shared by every cryptographic primitive in the stack.
//
// All protocol-level code in NEUROPULS passes around `Bytes` (a plain
// std::vector<std::uint8_t>): message frames, PUF responses, keys, MAC tags.
// This header centralises the small amount of glue every module needs —
// hex encoding for logs and test vectors, constant-time comparison for tag
// checks, and XOR combination used by the Fig. 4 mutual-authentication
// protocol (`r_{i+1} ^ r_i`) and the code-offset fuzzy extractor.
//
// `ByteReader` is the one decoder cursor: every byte format that crosses a
// trust boundary (message frames, network and vector blobs, helper data,
// WAL records, snapshots, the manifest) is parsed through it. Every read
// is bounds-checked, and every element count taken from input is checked
// against the bytes left before the caller sizes a container. Encoders
// are the free `append_*` functions below.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace neuropuls::crypto {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Zeroises `size` bytes at `data` through a compiler barrier, so the
/// store cannot be elided as dead even when the buffer is freed right
/// after (the behaviour a plain `memset` does NOT guarantee). This is the
/// one sanctioned wipe primitive — `ctlint` flags raw `memset` wipes.
void secure_wipe(void* data, std::size_t size) noexcept;

/// Wipes a whole vector of trivially-copyable elements, then empties it.
/// Covers the two buffer types secrets live in: `Bytes` key material and
/// `std::vector<double>` accelerator plaintext.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void secure_wipe(std::vector<T>& buffer) noexcept {
  secure_wipe(buffer.data(), buffer.size() * sizeof(T));
  buffer.clear();
}

/// Encodes a byte buffer as lowercase hex (two chars per byte).
std::string to_hex(ByteView data);

/// Decodes a hex string (case-insensitive, even length) into bytes.
/// Throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Constant-time equality check. Both operands are always scanned in full,
/// so the running time depends only on the lengths, never on the contents.
/// Unequal lengths compare unequal (length is considered public).
bool ct_equal(ByteView a, ByteView b) noexcept;

/// Element-wise XOR of two equal-length buffers.
/// Throws std::invalid_argument when lengths differ.
Bytes xor_bytes(ByteView a, ByteView b);

/// In-place XOR: dst ^= src. Throws when lengths differ.
void xor_into(std::span<std::uint8_t> dst, ByteView src);

/// Concatenates any number of buffers into a fresh one.
Bytes concat(std::initializer_list<ByteView> parts);

/// Interprets a string's bytes as a buffer (no copy of the terminator).
Bytes bytes_of(std::string_view text);

/// Serialises a 32/64-bit unsigned integer big-endian (network order).
void put_u32_be(std::span<std::uint8_t> out, std::uint32_t value) noexcept;
void put_u64_be(std::span<std::uint8_t> out, std::uint64_t value) noexcept;
std::uint32_t get_u32_be(ByteView in) noexcept;
std::uint64_t get_u64_be(ByteView in) noexcept;

/// Big-endian u64 appended to a buffer (protocol framing helper).
void append_u64_be(Bytes& out, std::uint64_t value);
void append_u32_be(Bytes& out, std::uint32_t value);
/// IEEE-754 double appended little-endian (the network blob's float
/// encoding).
void append_f64_le(Bytes& out, double value);
/// u32 big-endian length, then the bytes: the inverse of
/// `ByteReader::prefixed()`.
void append_prefixed(Bytes& out, ByteView data);

/// Bounds-checked read cursor over an input buffer. Every read past the
/// end, and every count that cannot fit in the bytes left, throws `Error`
/// with a message prefixed by `what`, so malformed input surfaces as the
/// decoder's documented exception, never as out-of-bounds reads or huge
/// allocations. Returned views alias the input; `what` must outlive the
/// reader (decoders pass a string literal).
template <typename Error = std::runtime_error>
class ByteReader {
 public:
  ByteReader(ByteView data, const char* what) : data_(data), what_(what) {}

  ByteView bytes(std::size_t n) {
    if (data_.size() - pos_ < n) fail("truncated");
    const ByteView view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  std::uint8_t u8() { return bytes(1)[0]; }
  std::uint32_t u32() { return get_u32_be(bytes(4)); }
  std::uint64_t u64() { return get_u64_be(bytes(8)); }
  /// Little-endian IEEE-754 double (the network blob's float encoding).
  double f64() {
    const ByteView raw = bytes(8);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    }
    return std::bit_cast<double>(bits);
  }
  /// A u32 length, then that many bytes.
  ByteView prefixed() { return bytes(u32()); }

  /// Returns `n` if `n` items of at least `min_item_bytes` (> 0) each can
  /// fit in the bytes left; throws otherwise. Call before sizing a
  /// container.
  std::size_t count(std::uint64_t n, std::size_t min_item_bytes) const {
    if (n > remaining() / min_item_bytes) fail("count exceeds input");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

  [[noreturn]] void fail(std::string_view why) const {
    throw Error(std::string(what_) + ": " + std::string(why));
  }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Fraction of positions at which two equal-length buffers differ,
/// counted bit-wise. This is the "fractional Hamming distance" the paper
/// quotes for intra/inter-device PUF statistics (Section II-A).
double fractional_hamming_distance(ByteView a, ByteView b);

/// Number of set bits across the buffer.
std::size_t popcount(ByteView data) noexcept;

}  // namespace neuropuls::crypto
