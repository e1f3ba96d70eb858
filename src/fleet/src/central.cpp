#include "ev/fleet/central.h"

#include <algorithm>
#include <cstring>

#include "ev/security/sha256.h"

namespace ev::fleet {

namespace {

/// Challenge for (station, session): the first 16 bytes of
/// SHA-256(master || "chal" || station || session). A pure function of the
/// tuple — no central RNG — so challenge bytes are identical regardless of
/// message arrival order or worker count.
std::array<std::uint8_t, 16> derive_challenge(std::span<const std::uint8_t> master,
                                              std::uint32_t station,
                                              std::uint32_t session) {
  security::Sha256 hasher;
  hasher.update(master);
  static constexpr std::uint8_t kLabel[4] = {'c', 'h', 'a', 'l'};
  hasher.update(kLabel);
  std::uint8_t ids[8];
  std::memcpy(ids, &station, 4);
  std::memcpy(ids + 4, &session, 4);
  hasher.update(ids);
  const security::Digest digest = hasher.finish();
  std::array<std::uint8_t, 16> challenge{};
  std::copy_n(digest.begin(), challenge.size(), challenge.begin());
  return challenge;
}

/// The tag a genuine station produces for a challenge (same layout as
/// ChargePoint::deliver builds).
security::Digest expected_tag(std::span<const std::uint8_t> credential,
                              const std::array<std::uint8_t, 16>& challenge,
                              std::uint32_t station, std::uint32_t session) {
  std::uint8_t buf[24];
  std::memcpy(buf, challenge.data(), 16);
  std::memcpy(buf + 16, &station, 4);
  std::memcpy(buf + 20, &session, 4);
  return security::hmac_sha256(credential, buf);
}

}  // namespace

std::string to_string(GridMode mode) {
  switch (mode) {
    case GridMode::kNormal: return "normal";
    case GridMode::kConstrained: return "constrained";
    case GridMode::kShedLoad: return "shed_load";
    case GridMode::kIsland: return "island";
  }
  return "unknown";
}

security::Key station_credential(std::span<const std::uint8_t> master,
                                 std::uint32_t station) {
  std::uint8_t context[8] = {'s', 't', 'n', ':'};
  std::memcpy(context + 4, &station, 4);
  return security::derive_key(master, context);
}

CentralSystem::CentralSystem(const CentralConfig& config, security::Key master)
    : config_(config), master_(std::move(master)), accounts_(config.station_count) {
  last_capacity_kw_ = config_.capacity_kw;
}

bool CentralSystem::stale(const Account& acc, double now_s) const noexcept {
  return !acc.heard || now_s - acc.last_heard_s >= config_.lease_s;
}

double CentralSystem::reserve_a(const Account& acc, double now_s) const noexcept {
  if (acc.tx_session == 0) return 0.0;
  // Mirrors ChargePoint's throttled draw: the safe minimum, or the grant
  // when that is lower.
  if (stale(acc, now_s)) return std::min(acc.allocated_a, config_.safe_current_a);
  return acc.allocated_a;
}

double CentralSystem::committed_a(double now_s) const noexcept {
  double total = 0.0;
  for (const Account& acc : accounts_) total += reserve_a(acc, now_s);
  return total;
}

double CentralSystem::station_reserve_a(std::uint32_t station, double now_s) const {
  return reserve_a(accounts_.at(station), now_s);
}

std::uint32_t CentralSystem::open_transactions() const noexcept {
  std::uint32_t open = 0;
  for (const Account& acc : accounts_)
    if (acc.tx_session != 0) ++open;
  return open;
}

Reply CentralSystem::process(const Message& msg, double now_s) {
  Account& acc = accounts_.at(msg.station);
  // Mirror of the station's reconnect rule: while it was lease-stale only
  // the ThrottleAlive safe minimum was reserved for it, so its pre-silence
  // grant is void until the next rebalance hands out a fresh one.
  if (acc.tx_session != 0 && stale(acc, now_s))
    acc.allocated_a = std::min(acc.allocated_a, config_.safe_current_a);
  acc.heard = true;
  acc.last_heard_s = now_s;
  stats_.decision_latency_s.add(now_s - msg.created_s);

  Reply reply;
  reply.in_reply_to = msg.type;
  reply.session = msg.session;
  switch (msg.type) {
    case MessageType::kBootNotification:
      ++stats_.boots;
      acc.booted = true;
      reply.status = ReplyStatus::kAccepted;
      break;
    case MessageType::kHeartbeat:
      ++stats_.heartbeats;
      reply.status = ReplyStatus::kAccepted;
      break;
    case MessageType::kAuthorize:
      reply = handle_authorize(msg, acc);
      break;
    case MessageType::kStartTransaction:
      reply = handle_start(msg, acc, now_s);
      break;
    case MessageType::kMeterValues:
      if (acc.tx_session == msg.session && msg.session != 0) {
        ++stats_.meter_updates;
        // Cumulative meters: the maximum seen is the session total so far,
        // no matter how often a reading is redelivered.
        acc.tx_meter_kwh = std::max(acc.tx_meter_kwh, msg.meter_kwh);
      }
      reply.status = ReplyStatus::kAccepted;
      break;
    case MessageType::kStopTransaction:
      reply = handle_stop(msg, acc);
      break;
  }
  return reply;
}

Reply CentralSystem::handle_authorize(const Message& msg, Account& acc) {
  Reply reply;
  reply.in_reply_to = MessageType::kAuthorize;
  reply.session = msg.session;
  if (msg.auth_phase == 0) {
    ++stats_.authorize_challenges;
    const auto challenge = derive_challenge(master_, msg.station, msg.session);
    const security::Key credential = station_credential(master_, msg.station);
    acc.challenge_session = msg.session;
    acc.expected_tag = expected_tag(credential, challenge, msg.station, msg.session);
    reply.status = ReplyStatus::kChallenge;
    reply.challenge = challenge;
    return reply;
  }
  if (acc.challenge_session == msg.session && msg.session != 0 &&
      security::constant_time_equal(msg.tag, acc.expected_tag)) {
    ++stats_.authorize_accepted;
    acc.authorized_session = msg.session;
    acc.challenge_session = 0;
    reply.status = ReplyStatus::kAccepted;
  } else {
    ++stats_.authorize_rejected;
    acc.challenge_session = 0;
    reply.status = ReplyStatus::kRejected;
  }
  return reply;
}

Reply CentralSystem::handle_start(const Message& msg, Account& acc, double now_s) {
  Reply reply;
  reply.in_reply_to = MessageType::kStartTransaction;
  reply.session = msg.session;
  if (acc.authorized_session != msg.session || msg.session == 0 ||
      acc.tx_session != 0) {
    ++stats_.starts_rejected;
    reply.status = ReplyStatus::kRejected;
    return reply;
  }
  acc.authorized_session = 0;
  acc.tx_session = msg.session;
  acc.tx_start_s = now_s;
  acc.tx_meter_kwh = 0.0;
  // Initial grant from the headroom left by every other reservation at the
  // last-known capacity; below the usable minimum the session starts
  // suspended and waits for the next rebalance (never rejected for power).
  const double capacity_a = last_capacity_kw_ * 1000.0 / config_.voltage_v;
  const double headroom = capacity_a - committed_a(now_s);
  if (headroom >= config_.min_current_a) {
    acc.allocated_a = std::min(config_.max_current_a, headroom);
    ++stats_.starts_accepted;
  } else {
    acc.allocated_a = 0.0;
    ++stats_.starts_suspended;
  }
  reply.status = ReplyStatus::kAccepted;
  reply.allocated_a = acc.allocated_a;
  return reply;
}

Reply CentralSystem::handle_stop(const Message& msg, Account& acc) {
  Reply reply;
  reply.in_reply_to = MessageType::kStopTransaction;
  reply.session = msg.session;
  reply.status = ReplyStatus::kAccepted;
  if (acc.tx_session == msg.session && msg.session != 0) {
    ++stats_.stops;
    stats_.billed_kwh += std::max(acc.tx_meter_kwh, msg.meter_kwh);
    acc.tx_session = 0;
    acc.tx_meter_kwh = 0.0;
    acc.allocated_a = 0.0;
  } else {
    // Redelivered after an earlier copy was billed, or for a session the
    // central never saw start: acknowledge, never double-bill.
    ++stats_.stop_duplicates;
  }
  return reply;
}

std::vector<double> CentralSystem::rebalance(double now_s, double capacity_kw,
                                             const std::vector<bool>& reachable,
                                             bool island_active) {
  ++stats_.rebalances;
  last_capacity_kw_ = capacity_kw;
  const double capacity_a = capacity_kw * 1000.0 / config_.voltage_v;

  std::vector<double> grants(accounts_.size(), -1.0);
  double reserved = 0.0;
  std::vector<std::uint32_t> active;  // reachable, fresh, open transaction
  for (std::uint32_t i = 0; i < accounts_.size(); ++i) {
    const Account& acc = accounts_[i];
    if (acc.tx_session == 0) {
      if (i < reachable.size() && reachable[i]) grants[i] = 0.0;
      continue;
    }
    const bool up = i < reachable.size() && reachable[i];
    if (!up || stale(acc, now_s)) {
      if (stale(acc, now_s)) ++stats_.stale_reservations;
      reserved += reserve_a(acc, now_s);
    } else {
      active.push_back(i);
    }
  }

  const double budget = std::max(0.0, capacity_a - reserved);
  bool constrained = false;
  bool shed = false;
  if (!active.empty()) {
    const double share = budget / static_cast<double>(active.size());
    if (share >= config_.max_current_a) {
      for (std::uint32_t i : active) {
        accounts_[i].allocated_a = config_.max_current_a;
        grants[i] = config_.max_current_a;
      }
    } else if (share >= config_.min_current_a) {
      constrained = true;
      for (std::uint32_t i : active) {
        accounts_[i].allocated_a = share;
        grants[i] = share;
      }
    } else {
      // Shed load: the oldest sessions keep power (first-come-first-served,
      // station index breaks ties deterministically); the rest are
      // suspended at 0 A but their transactions stay open — a capacity drop
      // never strands an authorized session.
      shed = true;
      std::sort(active.begin(), active.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (accounts_[a].tx_start_s != accounts_[b].tx_start_s)
                    return accounts_[a].tx_start_s < accounts_[b].tx_start_s;
                  return a < b;
                });
      const auto keep = std::min<std::size_t>(
          active.size(),
          static_cast<std::size_t>(budget / config_.min_current_a));
      const double keep_share =
          keep == 0 ? 0.0
                    : std::min(config_.max_current_a,
                               budget / static_cast<double>(keep));
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::uint32_t i = active[k];
        const double grant = k < keep ? keep_share : 0.0;
        if (grant <= 0.0) ++stats_.shed_suspensions;
        accounts_[i].allocated_a = grant;
        grants[i] = grant;
      }
    }
  }

  if (island_active)
    mode_ = GridMode::kIsland;
  else if (shed)
    mode_ = GridMode::kShedLoad;
  else if (constrained)
    mode_ = GridMode::kConstrained;
  else
    mode_ = GridMode::kNormal;
  return grants;
}

}  // namespace ev::fleet
