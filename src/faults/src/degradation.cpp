#include "ev/faults/degradation.h"

namespace ev::faults {

std::string to_string(DriveMode mode) {
  switch (mode) {
    case DriveMode::kNormal: return "normal";
    case DriveMode::kDerated: return "derated";
    case DriveMode::kLimpHome: return "limp_home";
    case DriveMode::kSafeStop: return "safe_stop";
  }
  return "?";
}

DegradationManager::DegradationManager(sim::Simulator& sim, DegradationPolicy policy)
    : sim_(&sim), policy_(policy) {}

void DegradationManager::on_bms(bms::SafetyAction action) {
  if (action == bms::SafetyAction::kNone) return;
  count_event(bms_metric_);
  if (action == bms::SafetyAction::kOpenContactor)
    escalate(DriveMode::kSafeStop, "bms_contactor_open");
  else
    escalate(DriveMode::kDerated, "bms_derate");
}

void DegradationManager::on_motor(const std::optional<motor::FaultDiagnosis>& diagnosis) {
  if (!diagnosis) return;
  count_event(motor_metric_);
  escalate(DriveMode::kLimpHome, "motor_open_switch");
}

void DegradationManager::on_bywire(const bywire::VoteResult& vote) {
  if (!vote.valid) {
    count_event(bywire_metric_);
    escalate(DriveMode::kSafeStop, "bywire_no_majority");
    return;
  }
  if (vote.disagreeing > 0) {
    count_event(bywire_metric_);
    escalate(DriveMode::kDerated, "bywire_disagreement");
  }
}

void DegradationManager::on_partition_restart() {
  ++restarts_;
  count_event(partition_metric_);
  if (restarts_ >= policy_.restarts_to_limp)
    escalate(DriveMode::kLimpHome, "partition_restarts");
  else if (restarts_ >= policy_.restarts_to_derate)
    escalate(DriveMode::kDerated, "partition_restart");
}

void DegradationManager::on_bus_fault() {
  ++bus_faults_;
  count_event(bus_metric_);
  if (bus_faults_ >= policy_.bus_faults_to_limp)
    escalate(DriveMode::kLimpHome, "bus_faults");
  else if (bus_faults_ >= policy_.bus_faults_to_derate)
    escalate(DriveMode::kDerated, "bus_fault");
}

double DegradationManager::torque_limit_fraction() const noexcept {
  switch (mode_) {
    case DriveMode::kNormal: return 1.0;
    case DriveMode::kDerated: return policy_.derated_torque_fraction;
    case DriveMode::kLimpHome: return policy_.limp_torque_fraction;
    case DriveMode::kSafeStop: return 0.0;
  }
  return 0.0;
}

double DegradationManager::speed_limit_mps() const noexcept {
  switch (mode_) {
    case DriveMode::kNormal: return std::numeric_limits<double>::infinity();
    case DriveMode::kDerated: return policy_.derated_speed_limit_mps;
    case DriveMode::kLimpHome: return policy_.limp_speed_limit_mps;
    case DriveMode::kSafeStop: return 0.0;
  }
  return 0.0;
}

void DegradationManager::escalate(DriveMode target, const std::string& cause) {
  if (target <= mode_) return;  // escalate-only latch
  const DriveMode from = mode_;
  mode_ = target;
  ++transitions_;
  if (metrics_) {
    metrics_->set(mode_metric_, static_cast<double>(static_cast<std::uint8_t>(mode_)));
    metrics_->add(transitions_metric_);
    if (injected_at_) {
      metrics_->observe(latency_metric_, (sim_->now() - *injected_at_).to_us());
      injected_at_.reset();
    }
  } else {
    injected_at_.reset();
  }
  if (listener_) listener_(from, mode_, cause);
}

void DegradationManager::count_event(obs::MetricId id) {
  if (metrics_ && id != obs::kInvalidId) metrics_->add(id);
}

void DegradationManager::attach_observer(obs::MetricsRegistry& registry) {
  metrics_ = &registry;
  mode_metric_ = registry.gauge("deg.mode");
  transitions_metric_ = registry.counter("deg.transitions");
  latency_metric_ = registry.histogram("deg.detection_latency_us", 0.0, 1e7, 64);
  bms_metric_ = registry.counter("deg.events.bms");
  motor_metric_ = registry.counter("deg.events.motor");
  bywire_metric_ = registry.counter("deg.events.bywire");
  partition_metric_ = registry.counter("deg.events.partition");
  bus_metric_ = registry.counter("deg.events.bus");
  registry.set(mode_metric_, static_cast<double>(static_cast<std::uint8_t>(mode_)));
}

}  // namespace ev::faults
