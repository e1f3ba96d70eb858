/// \file topology.h
/// Builder for the paper's Fig. 1 reference topology: five heterogeneous
/// domain buses (body LIN sub-network, comfort CAN, infotainment MOST,
/// safety CAN, chassis FlexRay) interconnected by a central gateway, loaded
/// with a representative periodic message set and cross-domain flows.
/// Experiment E1 measures this network.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ev/network/can.h"
#include "ev/network/flexray.h"
#include "ev/network/gateway.h"
#include "ev/network/lin.h"
#include "ev/network/most.h"
#include "ev/sim/simulator.h"
#include "ev/util/stats.h"

namespace ev::network {

/// Well-known frame ids of the Fig. 1 message set (public so co-simulations
/// and examples can publish/observe real data on these flows).
inline constexpr std::uint32_t kFrameIdBrakeCmd = 0x100;
inline constexpr std::uint32_t kFrameIdTorqueCmd = 0x104;
inline constexpr std::uint32_t kFrameIdBmsStatus = 0x106;
inline constexpr std::uint32_t kFrameIdBmsOnMost = 0x840;
inline constexpr std::uint32_t kFrameIdCrashOnChassis = 0x150;

/// One periodic traffic source.
struct PeriodicSource {
  Bus* bus = nullptr;
  std::uint32_t frame_id = 0;  ///< Wire identifier (after any arch remap).
  NodeId source = 0;
  std::size_t payload_bytes = 8;
  double period_s = 0.01;
  double offset_s = 0.0;
  std::string description;
  std::uint32_t base_id = 0;   ///< Original Fig. 1 identifier (arch key).
};

/// A monitored cross-domain flow (traverses the central gateway).
struct CrossDomainFlow {
  std::string name;
  Bus* destination_bus = nullptr;
  std::uint32_t destination_id = 0;
};

/// Architecture overrides applied on top of the default Fig. 1 deployment
/// (the network-level mirror of config::ArchSpec). Every entry is keyed by
/// the *original* frame identifier; the builder validates feasibility and
/// throws std::invalid_argument on anchored or unknown frames.
struct ArchOverrides {
  struct FrameBus {
    std::uint32_t frame_id = 0;
    std::size_t bus_index = 0;  ///< Index into Figure1Network::buses() order.
  };
  struct FrameId {
    std::uint32_t frame_id = 0;
    std::uint32_t new_id = 0;
  };
  struct FrSlot {
    std::uint32_t frame_id = 0;
    std::size_t slot = 0;  ///< 0-based chassis static-slot index.
  };
  std::vector<FrameBus> frame_buses;  ///< Move sources across buses.
  std::vector<FrameId> frame_ids;     ///< Renumber frames on CAN buses.
  std::vector<FrSlot> fr_slots;       ///< Permute chassis static slots.

  [[nodiscard]] bool empty() const {
    return frame_buses.empty() && frame_ids.empty() && fr_slots.empty();
  }
};

/// Scaling knobs for the generated load.
struct Figure1Config {
  double load_scale = 1.0;   ///< Multiplies message rates (1.0 = nominal).
  double can_bit_rate = 500e3;
  double lin_bit_rate = 19200.0;
  double flexray_bit_rate = 10e6;
  /// When false, the synthetic BMS status source is omitted so a
  /// co-simulation can publish real battery data under the same frame id.
  bool synthetic_bms_source = true;
  ArchOverrides arch;        ///< Deployment overrides (may be empty).
};

/// The instantiated Fig. 1 network. Owns the buses, the gateway, the traffic
/// sources, and per-flow end-to-end latency probes.
class Figure1Network {
 public:
  /// Builds buses, schedule tables, routes, and traffic per \p config on
  /// \p sim (which must outlive this object).
  Figure1Network(sim::Simulator& sim, const Figure1Config& config = {});

  /// Starts scheduled buses and all periodic sources.
  void start();

  /// Domain buses.
  [[nodiscard]] LinBus& body_lin() noexcept { return *body_lin_; }
  [[nodiscard]] CanBus& comfort_can() noexcept { return *comfort_can_; }
  [[nodiscard]] MostBus& infotainment_most() noexcept { return *most_; }
  [[nodiscard]] CanBus& safety_can() noexcept { return *safety_can_; }
  [[nodiscard]] FlexRayBus& chassis_flexray() noexcept { return *chassis_fr_; }
  /// The central gateway.
  [[nodiscard]] Gateway& gateway() noexcept { return *gateway_; }
  /// All five buses for iteration (stable order: LIN, comfort CAN, MOST,
  /// safety CAN, chassis FlexRay).
  [[nodiscard]] std::vector<Bus*> buses() noexcept;
  /// Configured traffic sources.
  [[nodiscard]] const std::vector<PeriodicSource>& sources() const noexcept {
    return sources_;
  }
  /// End-to-end latency summary per monitored cross-domain flow [s], kept
  /// in constant memory like Bus::latency().
  [[nodiscard]] const std::map<std::string, util::RunningStats>& flow_latency()
      const noexcept {
    return flow_latency_;
  }

 private:
  void add_source(PeriodicSource src);
  void apply_arch_overrides();
  void monitor_flow(const CrossDomainFlow& flow);

  sim::Simulator* sim_;
  Figure1Config config_;
  std::unique_ptr<LinBus> body_lin_;
  std::unique_ptr<CanBus> comfort_can_;
  std::unique_ptr<MostBus> most_;
  std::unique_ptr<CanBus> safety_can_;
  std::unique_ptr<FlexRayBus> chassis_fr_;
  std::unique_ptr<Gateway> gateway_;
  std::vector<PeriodicSource> sources_;
  std::map<std::string, util::RunningStats> flow_latency_;
  bool started_ = false;
};

}  // namespace ev::network
