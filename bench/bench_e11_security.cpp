// Experiment E11 (paper Section 4.2): security. Two parts:
//  (a) per-frame overhead of authenticated (+encrypted) communication on
//      CAN vs FlexRay vs Ethernet payloads — the paper's claim that CAN is
//      "unsuitable for a secure communication due to the limited message
//      size";
//  (b) the charging-plug attack/defence matrix with the man-in-the-middle
//      from refs [35][36].
#include <cstdio>

#include "ev/security/charging.h"
#include "ev/security/hmac.h"
#include "ev/security/secure_channel.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::security;

void run_experiment() {
  std::puts("E11 — security: frame overhead, primitives, charging MITM\n");

  // --- (a) secure-channel overhead per transport ----------------------------
  SecureChannel channel(Key(32, 0x5A), 1);
  ev::util::Table overhead("authenticated-frame overhead per transport",
                           {"transport", "frame payload", "security overhead",
                            "plaintext capacity", "verdict"});
  struct Transport {
    const char* name;
    std::size_t payload;
  };
  for (const Transport t : {Transport{"CAN 2.0", 8}, Transport{"CAN FD", 64},
                            Transport{"FlexRay slot", 32}, Transport{"Ethernet", 1500}}) {
    const auto cap = channel.max_plaintext(t.payload);
    overhead.add_row({t.name, std::to_string(t.payload) + " B",
                      std::to_string(channel.overhead_bytes()) + " B",
                      cap ? std::to_string(*cap) + " B" : "none",
                      cap ? (static_cast<double>(*cap) / t.payload > 0.5 ? "suitable"
                                                                          : "marginal")
                          : "UNSUITABLE"});
  }
  overhead.print();

  // --- (b) charging attack/defence matrix ------------------------------------
  ev::util::Rng rng(17);
  const Key credential(16, 0x77);
  ev::util::Table matrix("charging-session MITM (11 kW, 30 min)",
                         {"attack", "authentication", "billed vs delivered",
                          "V2G cmds accepted", "messages rejected", "outcome"});
  const MitmAttacker::Attack attacks[] = {
      MitmAttacker::Attack::kNone, MitmAttacker::Attack::kInflateBilling,
      MitmAttacker::Attack::kInjectV2g, MitmAttacker::Attack::kReplayMeter};
  const char* names[] = {"none", "inflate billing", "inject V2G", "replay meter"};
  int defended = 0;
  for (bool auth : {false, true}) {
    for (int a = 0; a < 4; ++a) {
      MitmAttacker attacker(attacks[a]);
      ChargingConfig cfg;
      cfg.authenticate = auth;
      const SessionOutcome out =
          run_charging_session(credential, cfg, attacker, 11.0, 1800.0, rng);
      const bool fraud = out.billed_kwh > out.delivered_kwh + 1e-9 ||
                         out.accepted_v2g_commands > 0;
      if (auth && !fraud) ++defended;
      matrix.add_row({names[a], auth ? "challenge-response + MAC" : "none",
                      ev::util::fmt(out.billed_kwh, 3) + " / " +
                          ev::util::fmt(out.delivered_kwh, 3) + " kWh",
                      std::to_string(out.accepted_v2g_commands),
                      std::to_string(out.rejected_messages),
                      fraud ? "ATTACK SUCCEEDED" : "defended"});
    }
  }
  matrix.print();
  evbench::set_gauge("e11.authenticated.defended_attacks",
                     static_cast<double>(defended));
  std::puts("expected shape: every armed attack succeeds without authentication "
            "and is rejected with it; CAN cannot even carry the protected "
            "frames while Ethernet absorbs the overhead.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e11_security");
}
