/// \file station.h
/// Charge-point model of the fleet backend. A ChargePoint owns everything a
/// real station firmware would: its session state machine (boot, authorize,
/// charge, stop), the cumulative session meter, its retry queue, and the
/// heartbeat liveness lease. Robustness contract (ThrottleAlive): whenever
/// the station has heard nothing from the central system for a full lease
/// period it *autonomously* throttles an active session to the safe minimum
/// current (never above its grant) and keeps it there until the next central
/// reply — so a fleet that loses its control plane degrades to a known-safe
/// draw the central system can reserve for, instead of an unbounded one.
///
/// advance() is called once per tick and touches only this station's state
/// plus its private seeded RNG; deliver() touches only this station. That is
/// what lets run_fleet fold each station's messages right after its advance
/// instead of after the whole population has advanced.
#pragma once

#include <cstdint>
#include <vector>

#include "ev/fleet/messages.h"
#include "ev/fleet/retry.h"
#include "ev/security/hmac.h"
#include "ev/util/rng.h"

namespace ev::fleet {

/// Station lifecycle (kSuspended keeps the session; it resumes when the
/// load balancer grants current again).
enum class StationState : std::uint8_t {
  kOffline,      ///< Not yet booted (BootNotification pending).
  kAvailable,    ///< Booted, no vehicle.
  kAuthorizing,  ///< Vehicle plugged, challenge-response in flight.
  kStarting,     ///< Authorized, StartTransaction in flight.
  kCharging,     ///< Transaction open, drawing allocated (or safe) current.
  kSuspended,    ///< Transaction open, shed to 0 A by the load balancer.
};

[[nodiscard]] std::string to_string(StationState state);

/// Everything one station accumulates; folded in station-index order.
struct StationStats {
  std::uint64_t arrivals = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t sessions_abandoned = 0;  ///< Retry budget spent on auth/start.
  std::uint64_t suspend_events = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t throttle_ticks = 0;
  std::uint64_t meter_reports = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t redelivered = 0;
  double energy_delivered_kwh = 0.0;
};

/// Per-station constants, derived once from the FleetSpec.
struct StationConfig {
  double max_current_a = 32.0;
  double min_current_a = 6.0;
  double safe_current_a = 8.0;
  double voltage_v = 400.0;
  double heartbeat_period_s = 10.0;
  double lease_s = 30.0;
  double arrival_rate_per_h = 0.6;
  double energy_min_kwh = 5.0;
  double energy_max_kwh = 30.0;
  double meter_period_s = 60.0;
  double loss_probability = 0.0;
  RetryPolicy retry;
};

class ChargePoint {
 public:
  /// \p credential is the provisioned key material for the authorize
  /// round-trip (a rogue station simply holds the wrong bytes); \p seed
  /// feeds the station's private RNG (arrivals, session energy, backoff
  /// jitter, heartbeat phase).
  ChargePoint(std::uint32_t index, const StationConfig& config,
              security::Key credential, std::uint64_t seed);

  /// One control tick: lease check, vehicle arrival, charge integration,
  /// meter/heartbeat cadence, then one retry-queue pump. Messages that got
  /// through the channel this tick are appended to \p outbox (for the
  /// central fold). \p channel_up reflects partitions/blackouts;
  /// per-send Bernoulli loss comes on top from the station RNG.
  void advance(double now_s, double dt_s, bool channel_up, std::vector<Message>& outbox);

  /// Fold phase: a central reply reached the station. Renews the
  /// liveness lease, flushes the dead-letter journal, and drives the
  /// session state machine.
  void deliver(const Reply& reply, double now_s);

  /// Load-balancer push (only invoked while the station is reachable).
  /// 0 A while a transaction is open suspends the session; a positive grant
  /// resumes it.
  void set_allocated(double current_a, double now_s);

  /// Current drawn during the last advance() tick [A].
  [[nodiscard]] double draw_a() const noexcept { return draw_a_; }
  [[nodiscard]] StationState state() const noexcept { return state_; }
  [[nodiscard]] bool throttled() const noexcept { return throttled_; }
  [[nodiscard]] double allocated_a() const noexcept { return allocated_a_; }
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] const StationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const RetryQueue& retry_queue() const noexcept { return retry_; }
  /// Journaled (dead-lettered, not yet redelivered) accounting messages.
  [[nodiscard]] std::size_t journal_size() const noexcept { return journal_.size(); }

 private:
  void enqueue(MessageType type, double now_s, double created_s);
  void end_session_locally(double now_s);
  [[nodiscard]] double compute_draw() const noexcept;

  std::uint32_t index_;
  StationConfig config_;
  security::Key credential_;
  util::Rng rng_;
  RetryQueue retry_;

  StationState state_ = StationState::kOffline;
  StationStats stats_;
  std::vector<Message> journal_;  ///< Dead-lettered Meter/Stop awaiting contact.

  double boot_at_s_ = 0.0;
  double hb_phase_s_ = 0.0;  ///< Seeded stagger of the first heartbeat after boot.
  bool boot_enqueued_ = false;
  bool has_contact_ = false;
  double last_contact_s_ = 0.0;
  bool throttled_ = false;

  double next_arrival_s_ = 0.0;
  bool arrival_armed_ = false;

  std::uint32_t session_ = 0;        ///< Ordinal of the open session (0 = none).
  std::uint32_t next_session_ = 1;
  double need_kwh_ = 0.0;
  double session_kwh_ = 0.0;
  double auth_created_s_ = 0.0;      ///< First-enqueue time of the Authorize.

  double allocated_a_ = 0.0;
  double draw_a_ = 0.0;
  double next_meter_s_ = 0.0;
  double next_heartbeat_s_ = 0.0;
  bool heartbeat_pending_ = false;
};

}  // namespace ev::fleet
