/// \file oracle.h
/// The bound-vs-observation oracle: the one place that checks the claim a
/// static timing analysis can gate deployment on — its worst-case bounds
/// dominate what the co-simulated vehicle actually does. E19, E23, E24 and
/// the fuzzer all call it and keep only their own reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ev/analysis/diagnostics.h"
#include "ev/analysis/model.h"
#include "ev/analysis/prob.h"
#include "ev/config/scenario.h"

namespace ev::core {
class VehicleSystem;
}  // namespace ev::core

namespace ev::analysis {

/// Which deterministic bound a BoundCheck compares.
enum class BoundSurface : std::uint8_t {
  kBusFrame,    ///< rta.bus: worst end-to-end frame response of one bus.
  kPubSub,      ///< Worst rta.pubsub bound vs cockpit pub/sub delivery.
  kGatewayHop,  ///< gw.delay: gateway store-and-forward hop.
};

/// One static bound paired with the observed maximum of its histogram.
struct BoundCheck {
  BoundSurface surface = BoundSurface::kBusFrame;
  std::string subject;  ///< Bus scenario name, "<ecu> pub/sub" or "gateway hop".
  double bound_us = 0.0;
  double observed_us = 0.0;  ///< Histogram maximum.
  std::size_t samples = 0;   ///< Histogram sample count (> 0).

  [[nodiscard]] bool sound() const noexcept { return observed_us <= bound_us; }
};

/// Every comparable (static bound, observed maximum) pair of one simulated
/// run of \p model, in a fixed order: the rta.bus bound of each bus in model
/// order, then the worst rta.pubsub bound against the cockpit pub/sub
/// delivery histogram, then gw.delay against the gateway hop histogram.
/// Routed frames keep their origin timestamp, so a destination bus's
/// latency histogram carries the full multi-hop latency rta.bus covers.
///
/// The deterministic bounds make no claim under faults, so surfaces a
/// declared fault can perturb are left out: a faulted bus and every bus it
/// routes into, transitively; the pub/sub pair under any partition fault;
/// the gateway pair under any bus fault. Bounds whose histogram never fired
/// are skipped; a vehicle without the obs subsystem yields no pairs.
[[nodiscard]] std::vector<BoundCheck> bound_checks(
    const VehicleModel& model, const Report& report, core::VehicleSystem& vehicle,
    const std::vector<config::FaultEventSpec>& faults);

/// Per-frame tally of one testbed run.
struct FrameTally {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t missed = 0;  ///< Delivered later than one period after queuing.
};

/// The CAN buses of \p analyzer's model with an armed error model, in model
/// order — the buses run_prob_testbed can cross-validate.
[[nodiscard]] std::vector<std::size_t> armed_can_buses(ProbabilisticCanAnalyzer& analyzer);

/// One standalone fault-injection run of CAN bus \p bus of \p model: every
/// analyzer-modelled frame (payload <= 8 bytes, model order — the order of
/// ProbOutcome::frames) is sent on its period from t = 0, the synchronous
/// critical instant, until \p send_s; \p error_model, seeded from \p seed
/// and the bus index, destroys transmissions; the backlog drains for
/// \p drain_s more. Deliveries later than one period count as misses. A
/// pure function of its arguments (private simulator), safe on any worker.
[[nodiscard]] std::vector<FrameTally> run_prob_testbed(const VehicleModel& model,
                                                       std::size_t bus,
                                                       const BusErrorModel& error_model,
                                                       std::uint64_t seed, double send_s,
                                                       double drain_s);

/// Two-sided Hoeffding slack on a frequency observed over \p n samples,
/// failure mass 1e-9 per comparison: an observation beyond analytic +
/// tolerance is a real soundness violation, not sampling noise. 1 at n = 0.
[[nodiscard]] double hoeffding_tolerance(std::size_t n);

}  // namespace ev::analysis
