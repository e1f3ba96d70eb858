/// \file central.h
/// OCPP-style central system: the fleet's single point of truth for
/// authorization (challenge-response over the security layer), transaction
/// accounting (idempotent under retry and dead-letter redelivery — cumulative
/// meters, bill the maximum seen), and grid-aware load balancing. The
/// degradation ladder normal -> constrained -> shed-load -> island is decided
/// here at every rebalance; the grid-safety invariant is that the sum of
/// per-station reservations never exceeds the live grid capacity, where an
/// unreachable or silent station is reserved its last grant until its
/// heartbeat lease runs out and the ThrottleAlive safe minimum (capped at
/// that grant) afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ev/fleet/messages.h"
#include "ev/security/hmac.h"
#include "ev/util/stats.h"

namespace ev::fleet {

/// Depth of degraded operation, decided per rebalance.
enum class GridMode : std::uint8_t {
  kNormal,       ///< Every active session at full current.
  kConstrained,  ///< Uniformly reduced grants, everyone still charging.
  kShedLoad,     ///< Not enough for all: newest sessions suspended at 0 A.
  kIsland,       ///< A feeder partition split the fleet from the control plane.
};

[[nodiscard]] std::string to_string(GridMode mode);

/// The credential provisioned to station \p station and expected by the
/// central system — one derivation both sides share (a rogue station is one
/// holding anything else).
[[nodiscard]] security::Key station_credential(std::span<const std::uint8_t> master,
                                               std::uint32_t station);

/// Central-side configuration (mirrors the FleetSpec station/grid block).
struct CentralConfig {
  std::uint32_t station_count = 0;
  double voltage_v = 400.0;
  double max_current_a = 32.0;
  double min_current_a = 6.0;
  double safe_current_a = 8.0;
  double lease_s = 30.0;
  double capacity_kw = 600.0;
};

/// Central-side totals; every counter is driven by message processing or
/// rebalancing, never by wall-clock.
struct CentralStats {
  std::uint64_t boots = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t authorize_challenges = 0;
  std::uint64_t authorize_accepted = 0;
  std::uint64_t authorize_rejected = 0;
  std::uint64_t starts_accepted = 0;
  std::uint64_t starts_suspended = 0;  ///< Accepted with a 0 A initial grant.
  std::uint64_t starts_rejected = 0;
  std::uint64_t meter_updates = 0;
  std::uint64_t stops = 0;
  std::uint64_t stop_duplicates = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t shed_suspensions = 0;   ///< Grants forced to 0 A by shedding.
  std::uint64_t stale_reservations = 0; ///< Stale stations seen at rebalances.
  double billed_kwh = 0.0;
  util::SampleSeries decision_latency_s;  ///< now - Message.created_s.
};

class CentralSystem {
 public:
  CentralSystem(const CentralConfig& config, security::Key master);

  /// Handles one delivered charge-point call and returns the reply (replies
  /// to a delivered call are not lost separately; the call leg carries the
  /// loss model). Also renews the station's liveness record.
  [[nodiscard]] Reply process(const Message& msg, double now_s);

  /// Re-solves every per-station grant against \p capacity_kw. Entry i of
  /// the result is the new grant for station i, or -1 when the central
  /// system must not push to it (unreachable, or no open transaction).
  /// Unreachable and lease-stale stations keep a reservation instead: their
  /// last grant until last_heard + lease, the ThrottleAlive safe minimum
  /// (or the grant, when lower) beyond it — so the reachable stations'
  /// budget can never overcommit the grid even while part of the fleet is
  /// silent.
  std::vector<double> rebalance(double now_s, double capacity_kw,
                                const std::vector<bool>& reachable,
                                bool island_active);

  [[nodiscard]] GridMode mode() const noexcept { return mode_; }
  [[nodiscard]] const CentralStats& stats() const noexcept { return stats_; }
  [[nodiscard]] CentralStats& stats() noexcept { return stats_; }
  /// Transactions currently open (started, no stop billed yet).
  [[nodiscard]] std::uint32_t open_transactions() const noexcept;
  /// Sum of reservations/grants for all open transactions at \p now_s [A].
  [[nodiscard]] double committed_a(double now_s) const noexcept;
  /// Central-side grant/reservation view of one station (test hook) [A].
  [[nodiscard]] double station_reserve_a(std::uint32_t station, double now_s) const;

 private:
  struct Account {
    bool booted = false;
    bool heard = false;
    double last_heard_s = 0.0;
    // Challenge-response in flight.
    std::uint32_t challenge_session = 0;
    security::Digest expected_tag{};
    // Authorized-but-not-started session (0 = none).
    std::uint32_t authorized_session = 0;
    // Open transaction (0 = none).
    std::uint32_t tx_session = 0;
    double tx_start_s = 0.0;
    double tx_meter_kwh = 0.0;
    double allocated_a = 0.0;
  };

  [[nodiscard]] bool stale(const Account& acc, double now_s) const noexcept;
  [[nodiscard]] double reserve_a(const Account& acc, double now_s) const noexcept;
  [[nodiscard]] Reply handle_authorize(const Message& msg, Account& acc);
  [[nodiscard]] Reply handle_start(const Message& msg, Account& acc, double now_s);
  [[nodiscard]] Reply handle_stop(const Message& msg, Account& acc);

  CentralConfig config_;
  security::Key master_;
  std::vector<Account> accounts_;
  CentralStats stats_;
  GridMode mode_ = GridMode::kNormal;
  double last_capacity_kw_ = 0.0;
};

}  // namespace ev::fleet
