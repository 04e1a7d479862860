// Deterministic mutation fuzzing of every byte decoder (ctest label: fuzz).
//
// Each decoder parses bytes that crossed a trust boundary: message
// frames, network and vector blobs, fuzzy-extractor helper data, WAL
// images, snapshots and the manifest. Starting from one valid image per
// decoder, the sweep applies
//
//   * every truncation,
//   * seeded single- and multi-bit flips,
//   * every u32 and u64 window (so every length and count field) set to
//     0, 1 and the maximum,
//   * seeded splices of the image's head onto its own tail,
//
// and asserts that each decode either succeeds or throws the decoder's
// documented exception type (std::runtime_error, or wal::CrpStoreError
// for the store codec), never std::bad_alloc, std::length_error or
// another logic_error, and that its heap high-water growth stays within a
// small multiple of the input size. Snapshot, manifest and WAL record
// mutations are re-sealed with a valid checksum so they reach the parser
// instead of stopping at the integrity check.
//
// The iteration counts are fixed so the sweep takes seconds; the ASan and
// UBSan builds of scripts/check.sh run it like every other test.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <typeinfo>
#include <vector>

#include "accel/network.hpp"
#include "common/alloc_probe.hpp"
#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/prng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"
#include "ecc/fuzzy_extractor.hpp"
#include "net/message.hpp"
#include "puf/crp_wal.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

namespace neuropuls {
namespace {

using crypto::Bytes;
using crypto::ByteView;
namespace alloc_probe = common::alloc_probe;

constexpr int kFlipRounds = 20000;
constexpr int kSpliceRounds = 2000;
// Heap growth allowed per decode: decoded structures may be a few times
// larger than their encoding (one byte per sketch bit, 48-byte snapshot
// entry views), plus exception messages.
constexpr std::uint64_t kAllocPerInputByte = 16;
constexpr std::uint64_t kAllocSlackBytes = 4096;

// The store codec's fixed public framing key (puf/crp_wal.cpp), needed to
// re-seal mutated WAL records and manifests.
constexpr std::array<std::uint8_t, 16> kWalKey = {
    'n', 'p', '-', 'c', 'r', 'p', '-', 'w',
    'a', 'l', '-', 'c', 'k', 's', 'u', 'm'};

enum class Cuts { kRejected, kAccepted };

Bytes identity(ByteView body) { return Bytes(body.begin(), body.end()); }

Bytes seal_snapshot(ByteView body) {
  Bytes image(body.begin(), body.end());
  const auto digest = crypto::Sha256::digest(body);
  image.insert(image.end(), digest.begin(), digest.end());
  return image;
}

Bytes seal_manifest(ByteView body) {
  Bytes image(body.begin(), body.end());
  crypto::append_u64_be(image, crypto::siphash24(kWalKey, body));
  return image;
}

Bytes frame_wal_record(ByteView payload) {
  Bytes image;
  const auto len = static_cast<std::uint32_t>(payload.size());
  crypto::append_u32_be(image, len);
  crypto::append_u32_be(image, len ^ puf::wal::kLenCheck);
  crypto::append_u64_be(image, crypto::siphash24(kWalKey, payload));
  image.insert(image.end(), payload.begin(), payload.end());
  return image;
}

/// Mutates `body`, seals each mutant with `seal` and feeds it to
/// `decode`. Truncations must all be rejected, or all accepted when the
/// format tolerates a torn tail.
template <typename Error, typename Decode, typename Seal>
void fuzz_decoder(const Bytes& body, Decode decode, Seal seal, Cuts cuts,
                  std::uint64_t seed) {
  // Returns whether `decode` accepted the sealed mutant.
  const auto run = [&](ByteView mutant, const char* mutation,
                       std::size_t at) {
    const Bytes input = seal(mutant);
    alloc_probe::reset_peak();
    const std::uint64_t live_before = alloc_probe::live_bytes();
    bool accepted = false;
    try {
      decode(ByteView(input));
      accepted = true;
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << mutation << " at " << at << ": threw "
                    << typeid(e).name() << " (" << e.what() << ")";
    }
    const std::uint64_t growth = alloc_probe::peak_bytes() - live_before;
    EXPECT_LE(growth, kAllocPerInputByte * input.size() + kAllocSlackBytes)
        << mutation << " at " << at << " (" << input.size()
        << "-byte input)";
    return accepted;
  };

  ASSERT_TRUE(run(body, "valid image", 0));

  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const bool accepted = run(ByteView(body).first(cut), "truncation", cut);
    EXPECT_EQ(accepted, cuts == Cuts::kAccepted) << "cut " << cut;
  }

  for (std::size_t at = 0; at < body.size(); ++at) {
    for (const std::uint64_t value :
         {std::uint64_t{0}, std::uint64_t{1},
          std::numeric_limits<std::uint64_t>::max()}) {
      Bytes mutant = body;
      if (at + 4 <= body.size()) {
        crypto::put_u32_be({mutant.data() + at, 4},
                           static_cast<std::uint32_t>(value));
        run(mutant, "u32 field", at);
      }
      if (at + 8 <= body.size()) {
        mutant = body;
        crypto::put_u64_be({mutant.data() + at, 8}, value);
        run(mutant, "u64 field", at);
      }
    }
  }

  rng::Xoshiro256 rng(seed);
  for (int round = 0; round < kFlipRounds; ++round) {
    Bytes mutant = body;
    const std::uint64_t flips = 1 + rng.next() % 4;
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.next() % (8 * body.size());
      mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    run(mutant, "bit flips", static_cast<std::size_t>(round));
  }

  const ByteView view(body);
  for (int round = 0; round < kSpliceRounds; ++round) {
    const std::size_t head = rng.next() % (body.size() + 1);
    const std::size_t tail = rng.next() % (body.size() + 1);
    run(crypto::concat({view.first(head), view.subspan(tail)}), "splice",
        static_cast<std::size_t>(round));
  }
}

TEST(DecoderFuzz, MessageFrame) {
  const net::Message message{net::MessageType::kAuthResponse,
                             0x0123456789ABCDEFULL, Bytes(40, 0x5A)};
  fuzz_decoder<std::runtime_error>(
      net::encode_message(message),
      [](ByteView wire) { net::decode_message(wire); }, identity,
      Cuts::kRejected, 1);
}

TEST(DecoderFuzz, NetworkBlob) {
  const accel::MlpNetwork network = accel::make_random_network({3, 4, 2}, 7);
  fuzz_decoder<std::runtime_error>(
      accel::serialize_network(network),
      [](ByteView blob) { accel::deserialize_network(blob); }, identity,
      Cuts::kRejected, 2);
}

TEST(DecoderFuzz, VectorBlob) {
  fuzz_decoder<std::runtime_error>(
      accel::serialize_vector({1.5, -2.0, 3.25, 0.0, 1e300}),
      [](ByteView blob) { accel::deserialize_vector(blob); }, identity,
      Cuts::kRejected, 3);
}

TEST(DecoderFuzz, HelperBlobThrowsAtEveryCut) {
  const ecc::FuzzyExtractor fe = ecc::make_default_extractor();
  crypto::ChaChaDrbg drbg(crypto::bytes_of("trunc"));
  rng::Xoshiro256 noise(49);
  ecc::BitVec w(fe.response_bits());
  for (auto& b : w) b = noise.coin() ? 1 : 0;
  fuzz_decoder<std::runtime_error>(
      ecc::serialize_helper(fe.generate(w, drbg).helper),
      [](ByteView blob) { ecc::deserialize_helper(blob); }, identity,
      Cuts::kRejected, 4);
}

Bytes wal_image() {
  const Bytes challenge = {1, 2, 3, 4, 5, 6, 7, 8};
  puf::CrpHealth health;
  health.successes = 3;
  health.failures = 2;
  health.consecutive_failures = 2;
  health.quarantined = true;
  Bytes image;
  puf::wal::append_insert_record(image, 1, challenge, Bytes{9, 9, 9, 9});
  puf::wal::append_take_record(image, 2, challenge);
  puf::wal::append_health_record(image, 3, challenge, health);
  puf::wal::append_evict_record(image, 4, challenge);
  return image;
}

TEST(DecoderFuzz, WalImage) {
  fuzz_decoder<puf::wal::CrpStoreError>(
      wal_image(), [](ByteView image) { puf::wal::decode_wal(image); },
      identity, Cuts::kAccepted, 5);
}

TEST(DecoderFuzz, WalRecordPayloads) {
  // One re-framed record per type, so payload mutations pass the
  // record checksum and reach the payload parser.
  const Bytes image = wal_image();
  const auto records = puf::wal::decode_wal(image).records;
  ASSERT_EQ(records.size(), 4u);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint32_t len = crypto::get_u32_be(ByteView(image).subspan(pos));
    const ByteView payload = ByteView(image).subspan(pos + 16, len);
    fuzz_decoder<puf::wal::CrpStoreError>(
        Bytes(payload.begin(), payload.end()),
        [](ByteView framed) { puf::wal::decode_wal(framed); },
        frame_wal_record, Cuts::kRejected, 6 + i);
    pos += 16 + len;
  }
}

TEST(DecoderFuzz, Snapshot) {
  puf::wal::SnapshotBuilder builder(1, 4, 17);
  puf::CrpHealth health;
  health.failures = 1;
  builder.add(Bytes{1, 2, 3, 4}, Bytes{5, 6}, health);
  builder.add(Bytes{}, Bytes{7}, puf::CrpHealth{});
  builder.add(Bytes(8, 0xEE), Bytes(3, 0x11), health);
  const Bytes image = builder.finish();
  fuzz_decoder<puf::wal::CrpStoreError>(
      Bytes(image.begin(), image.end() - crypto::Sha256::kDigestSize),
      [](ByteView sealed) { puf::wal::decode_snapshot(sealed); },
      seal_snapshot, Cuts::kRejected, 10);
}

TEST(DecoderFuzz, Manifest) {
  puf::wal::Manifest manifest;
  manifest.generation = 3;
  manifest.shard_count = 4;
  manifest.take_cursor = 99;
  const Bytes image = puf::wal::encode_manifest(manifest);
  fuzz_decoder<puf::wal::CrpStoreError>(
      Bytes(image.begin(), image.end() - 8),
      [](ByteView sealed) { puf::wal::decode_manifest(sealed); },
      seal_manifest, Cuts::kRejected, 11);
}

// Regressions: each decoder once sized a container from an input count
// before checking that the bytes for it exist.

TEST(DecoderRegression, VectorCountCheckedBeforeAllocation) {
  const Bytes blob = {0x01, 0x00, 0x00, 0x00};  // 2^24 doubles, no data
  alloc_probe::reset_peak();
  const std::uint64_t live_before = alloc_probe::live_bytes();
  EXPECT_THROW(accel::deserialize_vector(blob), std::runtime_error);
  EXPECT_LT(alloc_probe::peak_bytes() - live_before, 64u * 1024u);
}

TEST(DecoderRegression, NetworkLayerShapeCheckedBeforeAllocation) {
  // Version 1, one layer of 2^20 x 2^20 inputs/outputs, no weights.
  Bytes blob;
  crypto::append_u32_be(blob, 1);
  crypto::append_u32_be(blob, 1);
  crypto::append_u32_be(blob, 1u << 20);
  crypto::append_u32_be(blob, 1u << 20);
  blob.push_back(0);
  ASSERT_EQ(blob.size(), 17u);
  EXPECT_THROW(accel::deserialize_network(blob), std::runtime_error);
  // With room for one weight and one bias, the weight count itself is
  // what must be rejected.
  blob.resize(blob.size() + 16);
  EXPECT_THROW(accel::deserialize_network(blob), std::runtime_error);
}

TEST(DecoderRegression, SnapshotEntryCountCheckedBeforeAllocation) {
  Bytes body = puf::wal::SnapshotBuilder(0, 1, 0).finish();
  body.resize(body.size() - crypto::Sha256::kDigestSize);
  // The entry count is the header's last u64.
  crypto::put_u64_be({body.data() + body.size() - 8, 8}, 1ULL << 62);
  EXPECT_THROW(puf::wal::decode_snapshot(seal_snapshot(body)),
               puf::wal::CrpStoreError);
}

}  // namespace
}  // namespace neuropuls
