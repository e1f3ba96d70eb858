#include "ev/security/charging.h"

#include <algorithm>
#include <cstring>

namespace ev::security {

namespace {

std::vector<std::uint8_t> encode_double_le(double v) {
  std::vector<std::uint8_t> out(sizeof(double));
  std::memcpy(out.data(), &v, sizeof(double));
  return out;
}

/// Meter report body: 4-byte sequence number + 8-byte energy value. The
/// sequence number is what lets an authenticated receiver reject replays.
std::vector<std::uint8_t> encode_meter(std::uint32_t seq, double kwh) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  const auto e = encode_double_le(kwh);
  out.insert(out.end(), e.begin(), e.end());
  return out;
}

void decode_meter(const std::vector<std::uint8_t>& body, std::uint32_t* seq, double* kwh) {
  *seq = 0;
  *kwh = 0.0;
  if (body.size() < 12) return;
  for (int i = 0; i < 4; ++i) *seq |= static_cast<std::uint32_t>(body[static_cast<std::size_t>(i)]) << (8 * i);
  std::memcpy(kwh, body.data() + 4, sizeof(double));
}

std::vector<std::uint8_t> mac_input(const ChargeMessage& msg) {
  std::vector<std::uint8_t> in;
  in.push_back(static_cast<std::uint8_t>(msg.type));
  in.insert(in.end(), msg.body.begin(), msg.body.end());
  return in;
}

void sign(ChargeMessage& msg, const Key& key) {
  const Digest d = hmac_sha256(key, mac_input(msg));
  msg.tag.assign(d.begin(), d.begin() + 16);
}

bool verify(const ChargeMessage& msg, const Key& key) {
  if (msg.tag.size() != 16) return false;
  const Digest d = hmac_sha256(key, mac_input(msg));
  return constant_time_equal(msg.tag,
                             std::span<const std::uint8_t>(d.data(), 16));
}

}  // namespace

std::vector<ChargeMessage> MitmAttacker::intercept(const ChargeMessage& msg) {
  std::vector<ChargeMessage> out;
  switch (attack_) {
    case Attack::kNone:
      out.push_back(msg);
      break;
    case Attack::kInflateBilling: {
      ChargeMessage m = msg;
      if (m.type == ChargeMessage::Type::kMeterReport && m.body.size() >= 12) {
        // Triple the metered energy in place (sequence number untouched);
        // the tag (if any) no longer matches the body.
        double metered = 0.0;
        std::memcpy(&metered, m.body.data() + 4, sizeof(double));
        metered *= 3.0;
        std::memcpy(m.body.data() + 4, &metered, sizeof(double));
        ++tampered_;
      }
      out.push_back(std::move(m));
      break;
    }
    case Attack::kInjectV2g: {
      out.push_back(msg);
      if (msg.type == ChargeMessage::Type::kMeterReport) {
        // Ride along each meter report with a forged discharge command.
        ChargeMessage forged;
        forged.type = ChargeMessage::Type::kV2gCommand;
        forged.body = encode_double_le(-50.0);  // demand 50 kW discharge
        out.push_back(std::move(forged));
        ++tampered_;
      }
      break;
    }
    case Attack::kReplayMeter: {
      out.push_back(msg);
      if (msg.type == ChargeMessage::Type::kMeterReport) {
        if (!captured_meter_) {
          captured_meter_ = msg;  // capture the first report...
        } else {
          out.push_back(*captured_meter_);  // ...and replay it from then on
          ++tampered_;
        }
      }
      break;
    }
  }
  return out;
}

SessionOutcome run_charging_session(const Key& credential, const ChargingConfig& config,
                                    MitmAttacker& attacker, double power_kw,
                                    double duration_s, util::Rng& rng) {
  SessionOutcome outcome;

  // Session keys: both sides derive from the provisioned credential.
  const std::vector<std::uint8_t> context = {'c', 'h', 'g'};
  const Key session_key = derive_key(credential, context);

  // --- Challenge-response mutual authentication ([36]) ----------------------
  if (config.authenticate) {
    std::vector<std::uint8_t> challenge(16);
    for (auto& b : challenge) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Vehicle answers HMAC(session_key, challenge); the station verifies.
    const Digest answer = hmac_sha256(session_key, challenge);
    const Digest expected = hmac_sha256(session_key, challenge);
    if (!constant_time_equal(answer, expected)) {
      outcome.abort_reason = "authentication failed";
      return outcome;
    }
    outcome.authenticated = true;
  }

  // --- Energy transfer with periodic metering ---------------------------------
  // The vehicle meters delivered energy and reports increments with a signed
  // sequence number. The authenticated station rejects bad tags (tampering)
  // and stale sequence numbers (replays); without authentication every
  // message on the wire is believed — the legacy scheme the paper warns
  // about.
  double delivered_kwh = 0.0;
  double billed_kwh = 0.0;
  const int reports = std::max(1, static_cast<int>(duration_s / config.meter_period_s));
  const double kwh_per_report = power_kw * config.meter_period_s / 3600.0;
  std::uint32_t last_seq = 0;

  for (int k = 0; k < reports; ++k) {
    delivered_kwh += kwh_per_report;
    ChargeMessage report;
    report.type = ChargeMessage::Type::kMeterReport;
    report.body = encode_meter(static_cast<std::uint32_t>(k + 1), kwh_per_report);
    if (config.authenticate) sign(report, session_key);

    for (const ChargeMessage& on_wire : attacker.intercept(report)) {
      if (config.authenticate && !verify(on_wire, session_key)) {
        ++outcome.rejected_messages;
        continue;
      }
      switch (on_wire.type) {
        case ChargeMessage::Type::kMeterReport: {
          std::uint32_t seq = 0;
          double kwh = 0.0;
          decode_meter(on_wire.body, &seq, &kwh);
          if (config.authenticate) {
            if (seq <= last_seq) {
              ++outcome.rejected_messages;  // replayed or reordered
              break;
            }
            last_seq = seq;
          }
          billed_kwh += kwh;
          break;
        }
        case ChargeMessage::Type::kV2gCommand:
          ++outcome.accepted_v2g_commands;
          break;
        default:
          break;
      }
    }
  }

  outcome.completed = true;
  outcome.billed_kwh = billed_kwh;
  outcome.delivered_kwh = delivered_kwh;
  return outcome;
}

}  // namespace ev::security
