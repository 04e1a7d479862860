// The one driver of every protocol exchange in this stack: a bounded
// retry/timeout/backoff state machine around the Fig. 4 mutual
// authentication and the §IV EKE.
//
// A real link drops, corrupts, duplicates and delays frames
// (faults::FaultyChannel models them), and a shared inbox holds frames of
// other sessions. The SessionDriver therefore takes only the frame it
// expects and fails an attempt, never the process, on a lost one:
//
//   attempt k (session id = base + k):
//     run the handshake, each receive bounded by `receive_poll_budget`
//     channel polls (DuplexChannel::receive_with_budget semantics, with
//     stale/wrong-type frames of other sessions or attempts discarded,
//     not consumed against the budget);
//   on failure: drain both directions, back off for a deterministic
//     jittered number of poll ticks, and retry with a fresh session id —
//     up to `max_attempts` attempts, then report kExhausted.
//
// Security invariants (asserted by tests/chaos):
//   * no false accept — a corrupted frame can only fail a MAC/length
//     check and trigger a retry, never complete a session with divergent
//     secrets;
//   * bounded work — every receive and every backoff consumes budget, so
//     the driver terminates for any fault schedule (no deadlock at 100%
//     drop);
//   * determinism — nonces and backoff jitter come from a ChaCha DRBG
//     seeded by `RetryPolicy::seed` (protocol layer: crypto DRBG, never
//     the simulation PRNGs), so the same seeds reproduce the same
//     transcript byte-for-byte.
//
// The retry loop itself lives in the resumable SessionMachine classes
// below: step() advances a session until its next channel poll (the unit
// of simulated time) and then yields. SessionDriver::run_* simply steps
// one machine to completion, so a blocking serial run and a multiplexed
// core::SessionEngine run execute the identical operation sequence per
// session — that equivalence is what the engine's determinism tests pin.
// `run_auth_session` and `run_eke_handshake` (end of this file) are
// one-attempt driver runs, so examples, benches, the attack battery and
// the §V simulator take the same frame path as the verifier engine.
#pragma once

#include <cstdint>
#include <optional>

#include "core/aka_eke.hpp"
#include "core/mutual_auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/channel.hpp"

namespace neuropuls::core {

struct RetryPolicy {
  unsigned max_attempts = 4;
  /// Channel polls a single receive may burn before declaring the frame
  /// lost (also how long a delayed frame can be outwaited).
  std::size_t receive_poll_budget = 8;
  /// Exponential backoff between attempts, in poll ticks: attempt k waits
  /// min(base << (k-1), max) + jitter ticks, jitter in [0, base).
  std::size_t backoff_base_polls = 2;
  std::size_t backoff_max_polls = 32;
  /// Seeds the driver DRBG (nonces + backoff jitter).
  std::uint64_t seed = 1;
};

enum class SessionResult {
  kConverged,  // both parties completed and agree
  kExhausted,  // retry budget spent without convergence
  kShed,       // rejected by admission control before any protocol work
  kEvicted,    // killed half-open by admission control's eviction policy
};

/// DRBG seed bytes of a session-driver stream ("np-session-driver" ||
/// seed big-endian) — shared by SessionDriver and core::SessionEngine so
/// an engine session with seed s reproduces a serial driver constructed
/// with RetryPolicy::seed == s byte-for-byte.
crypto::Bytes session_driver_seed_bytes(std::uint64_t seed);

struct SessionReport {
  SessionResult result = SessionResult::kExhausted;
  unsigned attempts = 0;           // attempts started (1-based)
  std::uint64_t poll_ticks = 0;    // polls burned waiting on receives
  std::uint64_t backoff_ticks = 0;  // polls burned backing off
  std::uint64_t discarded_frames = 0;  // stale/wrong-type frames skipped
  /// Frames that matched the expected (direction, type, sid) but were
  /// oversized or failed protocol processing — the sender either garbled
  /// a frame or is attacking; an admission controller charges these
  /// against the client's rate bucket.
  std::uint64_t malformed_frames = 0;
  /// Last verifier-side status of a failed mutual-auth attempt (kOk when
  /// the session converged; meaningless for EKE).
  AuthStatus last_auth_status = AuthStatus::kOk;
};

/// One retried protocol exchange as a resumable state machine. step()
/// advances the session until it performs exactly one channel poll (or
/// terminates), so a scheduler can hold many sessions in flight without
/// any session blocking a thread. The retry/backoff/expect semantics and
/// the DRBG draw order (backoff jitter at backoff entry, nonce per
/// attempt) are exactly those of the former blocking driver loops.
///
/// The machine borrows everything it touches — channel, DRBG, protocol
/// endpoints — and owns only control state, so the caller decides sharing
/// (the serial driver reuses one DRBG across runs; the engine gives every
/// session its own).
class SessionMachine {
 public:
  virtual ~SessionMachine() = default;
  SessionMachine(const SessionMachine&) = delete;
  SessionMachine& operator=(const SessionMachine&) = delete;

  /// Advances until the next channel poll or a terminal state. Returns
  /// true while the session is still running.
  bool step();

  bool done() const noexcept { return mode_ == Mode::kDone; }
  const SessionReport& report() const noexcept { return report_; }

  /// Scheduling hint for reactors: how many channel polls this machine
  /// will necessarily burn before it can make protocol progress, absent
  /// any externally injected frame. 0 means "may progress now" (a frame
  /// is readable, or an attempt is about to start). Stepping earlier
  /// than the hint is always *correct* — every poll is an explicit step,
  /// so the transcript cannot depend on when a scheduler chooses to run
  /// them — the hint only tells a reactor how long parking is profitable.
  std::size_t wait_hint() const noexcept;

 protected:
  SessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                 crypto::ChaChaDrbg& rng, std::uint64_t session_base);

  /// What a protocol did with a matching frame.
  enum class FrameOutcome {
    kAdvance,      // sent the next frame and updated the expectation
    kConverged,    // exchange complete
    kFailAttempt,  // processing failed — retry with the next attempt
  };

  /// Sends the attempt's opening frame(s) and installs the first
  /// expectation via expect_next(). `sid_` is already set.
  virtual void begin_attempt() = 0;
  /// Handles a frame matching the current expectation.
  virtual FrameOutcome on_frame(const net::Message& frame) = 0;

  /// Installs the next expected (direction, type); resets the per-receive
  /// poll budget, mirroring the per-expect() budget of the serial driver.
  void expect_next(net::Direction direction, net::MessageType type);

  net::DuplexChannel& channel_;
  RetryPolicy policy_;
  crypto::ChaChaDrbg& rng_;
  std::uint64_t sid_ = 0;
  SessionReport report_;

 private:
  enum class Mode { kStartAttempt, kBackoff, kExpect, kDone };

  void start_attempt();
  void fail_attempt();
  std::size_t backoff_ticks(unsigned attempt);
  void drain();

  std::uint64_t session_base_;
  Mode mode_ = Mode::kStartAttempt;
  unsigned attempt_ = 1;
  std::size_t backoff_remaining_ = 0;
  std::size_t expect_polls_ = 0;
  net::Direction expect_direction_ = net::Direction::kAtoB;
  net::MessageType expect_type_{};
};

/// HSC-IoT mutual authentication as a SessionMachine. Session ids are
/// `session_base + attempt` so late frames of a failed attempt can never
/// satisfy a later one.
class AuthSessionMachine final : public SessionMachine {
 public:
  AuthSessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                     crypto::ChaChaDrbg& rng, AuthVerifier& verifier,
                     AuthDevice& device, std::uint64_t session_base);

 private:
  void begin_attempt() override;
  FrameOutcome on_frame(const net::Message& frame) override;

  AuthVerifier& verifier_;
  AuthDevice& device_;
  unsigned phase_ = 0;
};

/// EKE AKA as a SessionMachine. On kConverged both parties hold matching
/// session keys (asserted via common::ct_equal in tests).
class EkeSessionMachine final : public SessionMachine {
 public:
  EkeSessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                    crypto::ChaChaDrbg& rng, EkeParty& initiator,
                    EkeParty& responder, std::uint64_t session_base);

 private:
  void begin_attempt() override;
  FrameOutcome on_frame(const net::Message& frame) override;

  EkeParty& initiator_;
  EkeParty& responder_;
  unsigned phase_ = 0;
};

/// Drives one protocol exchange at a time over `channel`. Both endpoints
/// run in-process (as everywhere in this stack); the driver owns the
/// retry loop, not the endpoints' secrets. Implemented by stepping one
/// SessionMachine to completion.
class SessionDriver {
 public:
  explicit SessionDriver(net::DuplexChannel& channel, RetryPolicy policy = {});

  /// HSC-IoT mutual authentication with retries.
  SessionReport run_mutual_auth(AuthVerifier& verifier, AuthDevice& device,
                                std::uint64_t session_base);

  /// EKE AKA with retries.
  SessionReport run_eke(EkeParty& initiator, EkeParty& responder,
                        std::uint64_t session_base);

  const RetryPolicy& policy() const noexcept { return policy_; }

 private:
  net::DuplexChannel& channel_;
  RetryPolicy policy_;
  crypto::ChaChaDrbg rng_;
};

/// One Fig. 4 session as a single-attempt SessionDriver run: session id
/// `session_id` on the wire, nonce drawn from the driver DRBG seeded by
/// `seed`. Returns true iff both sides authenticated and rotated.
bool run_auth_session(AuthVerifier& verifier, AuthDevice& device,
                      net::DuplexChannel& channel, std::uint64_t session_id,
                      std::uint64_t seed);

struct EkeResult {
  bool succeeded = false;
  common::SecretBytes session_key;  // 32 bytes when succeeded
};

struct EkeHandshakeOutcome {
  EkeResult initiator;
  EkeResult responder;
  bool keys_match = false;
};

/// One EKE handshake as a single-attempt SessionDriver run over a private
/// in-process channel. The parties' DRBGs are seeded from `seed` ("eke-i"
/// / "eke-r" || seed), so a given (secrets, group, session_id, seed)
/// always yields the same session keys.
EkeHandshakeOutcome run_eke_handshake(const crypto::Bytes& initiator_secret,
                                      const crypto::Bytes& responder_secret,
                                      const crypto::DhGroup& group,
                                      std::uint64_t session_id,
                                      std::uint64_t seed);

}  // namespace neuropuls::core
