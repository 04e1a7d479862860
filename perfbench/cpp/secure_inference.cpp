// secure_inference: the Fig. 1 lifecycle as one model owner runs it.
//
// Session open = KeyManager::derive on the full-size photonic PUF, then
// attestation against the verifier's PUF model, then a 2048-bit EKE, then
// load_network of a 16-wide 3-layer net on a DigitalMvm. A burst of
// encrypt_input -> execute_network -> decrypt_output follows, each output
// checked bit for bit against a plaintext Accelerator twin. One client,
// closed loop: the next call starts when the previous one returned.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "accel/secure_api.hpp"
#include "common.hpp"
#include "core/aka_eke.hpp"
#include "core/attestation.hpp"
#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "crypto/dh.hpp"
#include "puf/photonic_puf.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::uint64_t kSessionKind = 3;
/// One set-up sample per this many sessions of an untraced run.
constexpr std::uint64_t kSetupEvery = 4;

crypto::ChaChaDrbg seeded_rng(std::uint64_t seed, const char* label) {
  crypto::Bytes bytes = crypto::bytes_of(label);
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
  }
  return crypto::ChaChaDrbg(bytes);
}

/// Everything the model owner and the device hold before a session opens.
struct Fixture {
  std::unique_ptr<puf::PhotonicPuf> device_puf;
  std::unique_ptr<puf::PhotonicPuf> model_puf;
  std::unique_ptr<TimingPuf> device_timed;
  std::unique_ptr<TimingPuf> model_timed;
  std::unique_ptr<core::KeyManager> key_manager;
  core::DeviceKeyRecord record;
  /// The owner's copy of the device encryption key (from enrollment).
  common::SecretBytes owner_key;
  crypto::Bytes firmware;
  core::AttestationConfig att_config;
  std::unique_ptr<core::AttestDevice> att_device;
  std::unique_ptr<core::AttestVerifier> att_verifier;
  core::ProvisioningResult eke_crp;
  accel::MlpNetwork network;
  std::unique_ptr<accel::Accelerator> plain;
  std::vector<std::vector<double>> inputs;
};

std::unique_ptr<Fixture> make_fixture(std::uint64_t seed, bool tiny) {
  auto f = std::make_unique<Fixture>();
  const auto config =
      tiny ? puf::small_photonic_config() : puf::PhotonicPufConfig{};
  f->device_puf = std::make_unique<puf::PhotonicPuf>(config, seed, 0);
  f->model_puf = std::make_unique<puf::PhotonicPuf>(config, seed, 0);
  f->device_timed =
      std::make_unique<TimingPuf>(*f->device_puf, "puf.photonic.evaluate");
  f->model_timed =
      std::make_unique<TimingPuf>(*f->model_puf, "puf.photonic.evaluate");

  auto rng = seeded_rng(seed, "perfbench-inference");
  f->key_manager = std::make_unique<core::KeyManager>(*f->device_timed);
  f->record = f->key_manager->enroll(rng);
  auto keys = f->key_manager->derive(f->record);
  if (!keys) throw std::runtime_error("enrollment-time derive failed");
  f->owner_key = std::move(keys->encryption_key);

  f->firmware = rng.generate(16 * 1024);
  f->att_config.chunk_size = 1024;
  f->att_device = std::make_unique<core::AttestDevice>(
      *f->device_timed, f->firmware, f->att_config);
  f->att_verifier = std::make_unique<core::AttestVerifier>(
      *f->model_timed, f->firmware, f->att_config,
      core::AttestationCostModel{});
  f->eke_crp = core::provision(*f->device_puf, rng);
  (void)crypto::DhGroup::modp2048();  // group constants built once, here

  f->network = accel::make_random_network({16, 16, 16, 16}, seed ^ 0x4E7);
  f->plain = std::make_unique<accel::Accelerator>(
      std::make_unique<accel::DigitalMvm>());
  f->plain->load(f->network);
  const crypto::Bytes raw = rng.generate(256 * 16 * 2);
  for (std::size_t i = 0; i < 256; ++i) {
    std::vector<double> input(16);
    for (std::size_t j = 0; j < 16; ++j) {
      const std::size_t at = (i * 16 + j) * 2;
      const int word = (raw[at] << 8) | raw[at + 1];
      input[j] = static_cast<double>(word) / 32768.0 - 1.0;
    }
    f->inputs.push_back(std::move(input));
  }
  return f;
}

struct SessionTimes {
  double open_ns = 0.0;
  double total_ns = 0.0;  // open + burst, as the client saw it
  std::vector<double> inference_ns;
};

/// One client session: open, then `burst` verified inferences.
SessionTimes run_session(Fixture& f, std::uint64_t index, std::size_t burst,
                         std::uint64_t& nonce, Result& result) {
  using Scope = Tracer::Scope;
  const std::uint64_t sid = session_id(kSessionKind, index);
  SessionTimes times;
  const std::int64_t t0 = now_ns();
  {
    Scope root("bench.session", sid);
    std::optional<core::DeviceKeys> keys;
    {
      Scope s("core.key_manager.derive", sid);
      keys = f.key_manager->derive(f.record);
    }
    ++result.attempted;
    const bool key_ok =
        keys.has_value() && common::ct_equal(keys->encryption_key, f.owner_key);
    result.gate("derived_key_matches_enrollment", key_ok);
    if (!key_ok) {
      ++result.failed;
      return times;
    }

    std::optional<net::Message> report;
    net::Message request;
    {
      Scope s("core.attestation.verify", sid);
      crypto::ChaChaDrbg rng = seeded_rng(index, "perfbench-attest");
      request = f.att_verifier->start(index + 1, 1000 + index, rng);
    }
    {
      Scope s("core.attestation.device", sid);
      report = f.att_device->handle_request(request);
    }
    bool accepted = false;
    {
      Scope s("core.attestation.verify", sid);
      accepted = report.has_value() &&
                 f.att_verifier
                     ->check(*report, f.att_verifier->honest_time_ns())
                     .accepted;
    }
    ++result.attempted;
    result.gate("attestation_accepted", accepted);
    if (!accepted) ++result.failed;

    const auto& group = crypto::DhGroup::modp2048();
    std::optional<core::EkeParty> initiator;
    std::optional<core::EkeParty> responder;
    net::Message hello;
    std::optional<net::Message> server_hello;
    std::optional<net::Message> confirm;
    bool finalized = false;
    {
      Scope s("core.aka_eke.initiator", sid);
      initiator.emplace(f.eke_crp.verifier_secret, group,
                        seeded_rng(index, "perfbench-eke-i"));
      hello = initiator->initiate(index + 1);
    }
    {
      Scope s("core.aka_eke.responder", sid);
      responder.emplace(f.eke_crp.device_crp.response, group,
                        seeded_rng(index, "perfbench-eke-r"));
      server_hello = responder->respond(hello);
    }
    {
      Scope s("core.aka_eke.initiator", sid);
      if (server_hello) confirm = initiator->confirm(*server_hello);
    }
    {
      Scope s("core.aka_eke.responder", sid);
      finalized = confirm.has_value() && responder->finalize(*confirm);
    }
    ++result.attempted;
    const bool eke_ok =
        finalized && !initiator->session_key().empty() &&
        common::ct_equal(initiator->session_key(), responder->session_key());
    result.gate("eke_keys_match", eke_ok);
    if (!eke_ok) ++result.failed;

    crypto::Bytes blob;
    {
      Scope s("accel.encrypt_network", sid);
      blob = accel::SecureAccelerator::encrypt_network(
          f.network, f.owner_key.reveal(), ++nonce);
    }
    std::unique_ptr<accel::SecureAccelerator> accelerator;
    {
      Scope s("accel.load_network", sid);
      accelerator = std::make_unique<accel::SecureAccelerator>(
          std::make_unique<accel::DigitalMvm>(),
          std::move(keys->encryption_key));
      accelerator->load_network(blob);
    }
    times.open_ns = static_cast<double>(now_ns() - t0);

    for (std::size_t i = 0; i < burst; ++i) {
      const std::vector<double>* input = nullptr;
      {
        Scope s("bench.glue", sid);
        input = &f.inputs[(index * burst + i) % f.inputs.size()];
      }
      const std::int64_t u0 = now_ns();
      crypto::Bytes cipher_in;
      crypto::Bytes cipher_out;
      std::vector<double> output;
      {
        Scope s("accel.encrypt_input", sid);
        cipher_in = accel::SecureAccelerator::encrypt_input(
            *input, f.owner_key.reveal(), ++nonce);
      }
      {
        Scope s("accel.execute_network", sid);
        cipher_out = accelerator->execute_network(cipher_in);
      }
      {
        Scope s("accel.decrypt_output", sid);
        output = accel::SecureAccelerator::decrypt_output(
            cipher_out, f.owner_key.reveal());
      }
      times.inference_ns.push_back(static_cast<double>(now_ns() - u0));
      std::vector<double> expected;
      {
        Scope s("accel.plain_infer", sid);
        expected = f.plain->infer(*input);
      }
      {
        Scope s("bench.glue", sid);
        ++result.attempted;
        const bool same =
            output.size() == expected.size() &&
            std::memcmp(output.data(), expected.data(),
                        output.size() * sizeof(double)) == 0;
        result.gate("outputs_bit_equal_plaintext", same);
        if (!same) ++result.failed;
      }
    }
  }
  times.total_ns = static_cast<double>(now_ns() - t0);
  return times;
}

}  // namespace

Result run_secure_inference(const Options& options) {
  Result result;
  const std::size_t burst = options.tiny ? 4 : 64;

  // Set-up is sampled over the whole run, between sessions, so that it
  // sees the same host as the sessions do: one burst of back-to-back
  // set-ups right after start measures whatever the shared host was doing
  // in those milliseconds. Each sample builds a fixture and throws it away.
  std::vector<double> setup_s;
  auto time_setup = [&] {
    const std::int64_t s0 = now_ns();
    std::unique_ptr<Fixture> built = make_fixture(options.seed, options.tiny);
    setup_s.push_back(seconds_between(s0, now_ns()));
    return built;
  };
  const std::unique_ptr<Fixture> fixture = time_setup();

  // Warm-up session: lazy tables and the allocator settle before timing.
  std::uint64_t nonce = 0;
  Result warm;
  run_session(*fixture, 0, burst, nonce, warm);
  Tracer::clear();

  // The client is rotated over every CPU, one session per turn. The
  // figures come from the least disturbed tenth of the sessions (shortest
  // open + burst): a neighbour on a shared host only ever adds time.
  // One summary per session, not its samples: peak RSS stays the
  // program's, whatever the run length.
  struct Summary {
    double open_ns;
    double total_ns;
    double busy_ns;  // open + every inference
    double p50_ns;
    double p90_ns;
    std::size_t inferences;
  };
  std::vector<Summary> sessions;
  std::vector<double> traced_total;
  std::vector<double> untraced_total;
  std::uint64_t index = 1;
  std::uint64_t checked_session = 0;
  double checked_total = 0.0;
  const std::int64_t start = now_ns();
  while (seconds_between(start, now_ns()) < options.seconds || index <= 8) {
    // The traced run alternates traced and untraced sessions: the pair
    // difference is what tracing costs.
    const bool traced = options.trace && index % 2 == 1;
    rotate_cpu(index);
    if (!options.trace && index % kSetupEvery == 0) time_setup();
    Tracer::set_enabled(traced);
    const SessionTimes t =
        run_session(*fixture, index, burst, nonce, result);
    Tracer::set_enabled(false);
    if (traced && checked_session == 0) {
      checked_session = session_id(kSessionKind, index);
      checked_total = t.total_ns;
    }
    (traced ? traced_total : untraced_total).push_back(t.total_ns);
    double busy_ns = t.open_ns;
    for (double ns : t.inference_ns) busy_ns += ns;
    sessions.push_back({t.open_ns, t.total_ns, busy_ns,
                        quantile(t.inference_ns, 0.5),
                        quantile(t.inference_ns, 0.9), t.inference_ns.size()});
    ++index;
  }

  std::vector<double> total_ns;
  for (const Summary& t : sessions) total_ns.push_back(t.total_ns);
  // Latency quantiles are taken per session and their medians reported: a
  // pooled p90 would be set by the few most disturbed sessions.
  std::vector<double> open_ns;
  std::vector<double> p50s;
  std::vector<double> p90s;
  double busy_ns = 0.0;
  std::size_t inferences = 0;
  for (std::size_t i : least_disturbed(total_ns, 0.1)) {
    const Summary& t = sessions[i];
    open_ns.push_back(t.open_ns);
    p50s.push_back(t.p50_ns);
    p90s.push_back(t.p90_ns);
    busy_ns += t.busy_ns;
    inferences += t.inferences;
  }
  const double goodput = static_cast<double>(inferences) / (busy_ns * 1e-9);
  const double p50_ns = median(p50s);
  const double p90_ns = median(p90s);
  result.named["session_open_ms"] = {median(open_ns) * 1e-6, "ms"};
  result.named["inference_p50_us"] = {p50_ns * 1e-3, "us"};
  result.named["inference_p90_us"] = {p90_ns * 1e-3, "us"};
  std::printf("secure_inference: %zu sessions of %zu inferences, figures "
              "from the %zu least disturbed\n",
              sessions.size(), burst, open_ns.size());

  result.metrics["workload.latency_p90_ms"] = {p90_ns * 1e-6, "ms"};
  if (!options.trace) {
    result.metrics["setup_s"] = {median(setup_s), "s"};
    result.metrics["goodput_per_s"] = {goodput, "1/s"};
    result.metrics["latency_p50_ms"] = {p50_ns * 1e-6, "ms"};
    return result;
  }

  const std::vector<Span> spans = Tracer::collect();
  const auto sessions_self = self_times_by_session(spans);
  auto ms = [&](const char* name) {
    return Metric{median_self_ns(sessions_self, name, false) * 1e-6, "ms"};
  };
  auto us_per_call = [&](const char* name) {
    return Metric{median_self_ns(sessions_self, name, true) * 1e-3, "us"};
  };
  auto& m = result.metrics;
  m["puf.photonic.evaluate_ms"] = ms("puf.photonic.evaluate");
  m["core.key_manager.derive_self_ms"] = ms("core.key_manager.derive");
  m["core.attestation.device_ms"] = ms("core.attestation.device");
  m["core.attestation.verify_ms"] = ms("core.attestation.verify");
  m["core.aka_eke.initiator_ms"] = ms("core.aka_eke.initiator");
  m["core.aka_eke.responder_ms"] = ms("core.aka_eke.responder");
  m["accel.load_network_ms"] = ms("accel.load_network");
  m["accel.encrypt_input_us"] = us_per_call("accel.encrypt_input");
  m["accel.execute_network_us"] = us_per_call("accel.execute_network");
  m["accel.decrypt_output_us"] = us_per_call("accel.decrypt_output");
  m["accel.plain_infer_us"] = us_per_call("accel.plain_infer");
  finish_trace(options, spans, sessions_self, traced_total, untraced_total,
               checked_session, checked_total, result);
  return result;
}

}  // namespace perfbench
