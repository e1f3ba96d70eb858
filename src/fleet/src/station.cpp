#include "ev/fleet/station.h"

#include <algorithm>
#include <cstring>

namespace ev::fleet {

std::string to_string(StationState state) {
  switch (state) {
    case StationState::kOffline: return "offline";
    case StationState::kAvailable: return "available";
    case StationState::kAuthorizing: return "authorizing";
    case StationState::kStarting: return "starting";
    case StationState::kCharging: return "charging";
    case StationState::kSuspended: return "suspended";
  }
  return "unknown";
}

ChargePoint::ChargePoint(std::uint32_t index, const StationConfig& config,
                         security::Key credential, std::uint64_t seed)
    : index_(index),
      config_(config),
      credential_(std::move(credential)),
      rng_(seed),
      retry_(config.retry) {
  // Stagger boots and heartbeats across the fleet so the central system is
  // not hit by a synchronized thundering herd on every period boundary.
  boot_at_s_ = rng_.uniform(0.0, config_.heartbeat_period_s);
  hb_phase_s_ = rng_.uniform(0.0, config_.heartbeat_period_s);
}

void ChargePoint::advance(double now_s, double dt_s, bool channel_up,
                          std::vector<Message>& outbox) {
  if (!boot_enqueued_ && now_s >= boot_at_s_) {
    boot_enqueued_ = true;
    enqueue(MessageType::kBootNotification, now_s, now_s);
  }

  // ThrottleAlive: a full lease without hearing the central system drops an
  // active session to the safe minimum, autonomously.
  if (has_contact_ && !throttled_ && now_s - last_contact_s_ >= config_.lease_s) {
    throttled_ = true;
    ++stats_.lease_expiries;
  }

  if (state_ == StationState::kAvailable) {
    if (!arrival_armed_) {
      arrival_armed_ = true;
      next_arrival_s_ = now_s + rng_.exponential(config_.arrival_rate_per_h / 3600.0);
    }
    if (now_s >= next_arrival_s_) {
      arrival_armed_ = false;
      ++stats_.arrivals;
      session_ = next_session_++;
      need_kwh_ = rng_.uniform(config_.energy_min_kwh, config_.energy_max_kwh);
      session_kwh_ = 0.0;
      auth_created_s_ = now_s;
      state_ = StationState::kAuthorizing;
      enqueue(MessageType::kAuthorize, now_s, now_s);
    }
  }

  draw_a_ = compute_draw();
  if (session_ != 0 &&
      (state_ == StationState::kCharging || state_ == StationState::kSuspended)) {
    if (throttled_) ++stats_.throttle_ticks;
    const double kwh = draw_a_ * config_.voltage_v * dt_s / 3.6e6;
    session_kwh_ += kwh;
    stats_.energy_delivered_kwh += kwh;
    if (session_kwh_ >= need_kwh_) {
      ++stats_.sessions_completed;
      enqueue(MessageType::kStopTransaction, now_s, now_s);
      end_session_locally(now_s);
      draw_a_ = 0.0;
    } else if (now_s >= next_meter_s_) {
      ++stats_.meter_reports;
      enqueue(MessageType::kMeterValues, now_s, now_s);
      next_meter_s_ += config_.meter_period_s;
    }
  }

  if (state_ != StationState::kOffline && !heartbeat_pending_ &&
      now_s >= next_heartbeat_s_) {
    heartbeat_pending_ = true;
    enqueue(MessageType::kHeartbeat, now_s, now_s);
    next_heartbeat_s_ = now_s + config_.heartbeat_period_s;
  }

  bool reboot = false;
  retry_.pump(
      now_s, rng_,
      [&](const Message& msg) {
        if (!channel_up) return false;
        if (config_.loss_probability > 0.0 && rng_.bernoulli(config_.loss_probability))
          return false;
        outbox.push_back(msg);
        return true;
      },
      [&](const Message& msg) {
        ++stats_.dead_letters;
        switch (msg.type) {
          case MessageType::kMeterValues:
          case MessageType::kStopTransaction:
            // Accounting must converge: journal and redeliver on reconnect.
            journal_.push_back(msg);
            break;
          case MessageType::kAuthorize:
          case MessageType::kStartTransaction:
            if (msg.session == session_) {
              ++stats_.sessions_abandoned;
              end_session_locally(now_s);
            }
            break;
          case MessageType::kHeartbeat:
            heartbeat_pending_ = false;
            break;
          case MessageType::kBootNotification:
            reboot = true;
            break;
        }
      });
  if (reboot && state_ == StationState::kOffline) {
    // Budget spent while unreachable: cool down one period, then re-boot
    // with a fresh message (and a fresh attempt budget).
    boot_enqueued_ = false;
    boot_at_s_ = now_s + config_.heartbeat_period_s;
  }
}

void ChargePoint::deliver(const Reply& reply, double now_s) {
  has_contact_ = true;
  last_contact_s_ = now_s;
  if (throttled_) {
    throttled_ = false;
    ++stats_.reconnects;
    // The central system has been reserving only the safe minimum for us
    // while we were silent (and may have granted the rest away), so the old
    // allocation is void: stay at the safe level until a fresh grant.
    allocated_a_ = std::min(allocated_a_, config_.safe_current_a);
  }
  if (!journal_.empty()) {
    // Reconnected: push the dead-lettered accounting backlog through the
    // retry queue again, original timestamps intact.
    for (const Message& msg : journal_) {
      retry_.enqueue(msg, now_s);
      ++stats_.redelivered;
    }
    journal_.clear();
  }

  switch (reply.in_reply_to) {
    case MessageType::kBootNotification:
      if (state_ == StationState::kOffline && reply.status == ReplyStatus::kAccepted) {
        state_ = StationState::kAvailable;
        next_heartbeat_s_ = now_s + hb_phase_s_;
      }
      break;
    case MessageType::kHeartbeat:
      heartbeat_pending_ = false;
      break;
    case MessageType::kAuthorize: {
      if (reply.session != session_ || state_ != StationState::kAuthorizing) break;
      if (reply.status == ReplyStatus::kChallenge) {
        // Answer: HMAC-SHA-256 over challenge || station || session under
        // the provisioned credential. The original created_s rides along so
        // the central's authorize latency spans the whole round trip.
        std::uint8_t buf[24];
        std::memcpy(buf, reply.challenge.data(), 16);
        std::memcpy(buf + 16, &index_, 4);
        std::memcpy(buf + 20, &session_, 4);
        const security::Digest tag = security::hmac_sha256(credential_, buf);
        Message answer;
        answer.type = MessageType::kAuthorize;
        answer.station = index_;
        answer.session = session_;
        answer.auth_phase = 1;
        answer.created_s = auth_created_s_;
        std::copy(tag.begin(), tag.end(), answer.tag.begin());
        retry_.enqueue(answer, now_s);
      } else if (reply.status == ReplyStatus::kAccepted) {
        state_ = StationState::kStarting;
        enqueue(MessageType::kStartTransaction, now_s, now_s);
      } else {
        ++stats_.sessions_rejected;
        end_session_locally(now_s);
      }
      break;
    }
    case MessageType::kStartTransaction:
      if (reply.session != session_ || state_ != StationState::kStarting) break;
      if (reply.status == ReplyStatus::kAccepted) {
        ++stats_.sessions_started;
        next_meter_s_ = now_s + config_.meter_period_s;
        allocated_a_ = reply.allocated_a >= 0.0
                           ? std::min(reply.allocated_a, config_.max_current_a)
                           : config_.safe_current_a;
        if (allocated_a_ > 0.0) {
          state_ = StationState::kCharging;
        } else {
          state_ = StationState::kSuspended;
          ++stats_.suspend_events;
        }
      } else {
        ++stats_.sessions_rejected;
        end_session_locally(now_s);
      }
      break;
    case MessageType::kMeterValues:
    case MessageType::kStopTransaction:
      break;  // Pure acks; accounting lives on the central side.
  }
}

void ChargePoint::set_allocated(double current_a, double /*now_s*/) {
  allocated_a_ = std::clamp(current_a, 0.0, config_.max_current_a);
  if (session_ == 0) return;
  if (state_ == StationState::kCharging && allocated_a_ <= 0.0) {
    state_ = StationState::kSuspended;
    ++stats_.suspend_events;
  } else if (state_ == StationState::kSuspended && allocated_a_ > 0.0) {
    state_ = StationState::kCharging;
  }
}

void ChargePoint::enqueue(MessageType type, double now_s, double created_s) {
  Message msg;
  msg.type = type;
  msg.station = index_;
  msg.session = session_;
  msg.created_s = created_s;
  msg.meter_kwh = session_kwh_;
  retry_.enqueue(msg, now_s);
}

void ChargePoint::end_session_locally(double /*now_s*/) {
  session_ = 0;
  need_kwh_ = 0.0;
  session_kwh_ = 0.0;
  allocated_a_ = 0.0;
  arrival_armed_ = false;
  if (state_ != StationState::kOffline) state_ = StationState::kAvailable;
}

double ChargePoint::compute_draw() const noexcept {
  if (session_ == 0 || state_ != StationState::kCharging) return 0.0;
  // ThrottleAlive caps the draw at the safe minimum, never raises it: a
  // station holding a grant below safe (shed-load shares) keeps its grant,
  // which is all the central system reserves for it.
  if (throttled_)
    return std::min({config_.safe_current_a, config_.max_current_a, allocated_a_});
  return std::clamp(allocated_a_, 0.0, config_.max_current_a);
}

}  // namespace ev::fleet
