// Scripted protocol attacks against the Fig. 4 mutual-authentication
// scheme — the §IV threat classes that act on messages rather than on
// the PUF itself. Each harness sets up a fresh device/verifier pair,
// mounts the attack through the adversarial channel, and reports whether
// the protocol held. The attack_lab example prints the battery's
// reports; the unit tests pin the expected verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mutual_auth.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::attacks {

struct ProtocolAttackReport {
  std::string attack;
  bool attacker_succeeded = false;   // attacker reached its goal
  bool honest_parties_recovered = true;  // system usable afterwards
};

/// Replay: record a full honest session, then replay the device's
/// response to a fresh verifier challenge. Goal: authenticate without
/// the device.
ProtocolAttackReport replay_attack(std::uint64_t seed);

/// Man-in-the-middle relay: the attacker re-frames the verifier's request
/// under a session id of its own and grafts the device's answer back onto
/// the verifier's session, feeding both endpoints directly.
ProtocolAttackReport mitm_session_graft(std::uint64_t seed);

/// Desynchronisation: drop confirm messages for `lossy_sessions`
/// consecutive sessions, then measure whether an honest session still
/// succeeds. Goal: permanently wedge the pair.
ProtocolAttackReport desync_attack(std::uint64_t seed,
                                   unsigned lossy_sessions = 3);

/// Bit-flip forgery: tamper with every byte position of the device's
/// response in turn; success if any forgery authenticates.
ProtocolAttackReport forgery_scan(std::uint64_t seed);

/// Runs the whole battery.
std::vector<ProtocolAttackReport> run_protocol_battery(std::uint64_t seed);

}  // namespace neuropuls::attacks
