#include "ev/core/subsystems.h"

#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>

#include "ev/network/bus.h"
#include "ev/network/can.h"
#include "ev/obs/export.h"

namespace ev::core {
namespace {

/// Scenario-facing bus names (stable, independent of display names).
network::Bus* resolve_bus(VehicleSystem& vehicle, const std::string& target) {
  network::Figure1Network& net = vehicle.network();
  if (target == "body_lin") return &net.body_lin();
  if (target == "comfort_can") return &net.comfort_can();
  if (target == "infotainment_most") return &net.infotainment_most();
  if (target == "safety_can") return &net.safety_can();
  if (target == "chassis_flexray") return &net.chassis_flexray();
  throw std::invalid_argument("FaultsSubsystem: unknown bus '" + target + "'");
}

std::size_t resolve_partition(VehicleSystem& vehicle, const std::string& target) {
  middleware::Middleware& cockpit = vehicle.cockpit();
  for (std::size_t p = 0; p < cockpit.partition_count(); ++p)
    if (cockpit.partition(p).name() == target) return p;
  throw std::invalid_argument("FaultsSubsystem: unknown cockpit partition '" + target +
                              "'");
}

/// The pack cell a bms.stuck_voltage fault names, checked against the pack
/// before the run starts — the same grammar and range `evsys check` uses.
std::size_t resolve_cell(VehicleSystem& vehicle, const std::string& target) {
  const std::size_t cells = vehicle.powertrain().pack().cell_count();
  const std::optional<std::uint64_t> cell = config::parse_u64(target);
  if (!cell || *cell >= cells)
    throw std::invalid_argument("FaultsSubsystem: sensor fault targets cell '" + target +
                                "' outside the pack (" + std::to_string(cells) +
                                " cells)");
  return static_cast<std::size_t>(*cell);
}
}  // namespace

// ----------------------------------------------------------- observability --

ObservabilitySubsystem::~ObservabilitySubsystem() {
  if (sim_ && sim_->observer() == observer_.get()) sim_->set_observer(nullptr);
}

void ObservabilitySubsystem::attach(VehicleSystem& vehicle) {
  sim_ = &vehicle.simulator();
  observer_ = std::make_unique<obs::SimObserver>(metrics_);
  vehicle.simulator().set_observer(observer_.get());
  for (network::Bus* bus : vehicle.network().buses()) bus->attach_observer(metrics_);
  vehicle.network().gateway().attach_observer(metrics_);
  vehicle.cockpit().attach_observer(metrics_, &trace_);
}

void ObservabilitySubsystem::after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) {
  out.set("events_dispatched",
          static_cast<double>(vehicle.simulator().dispatched()));
  out.set("spans_recorded", static_cast<double>(trace_.spans().size()));
}

bool ObservabilitySubsystem::export_files(const std::string& base) const {
  bool ok = obs::write_metrics_json_file(metrics_, base + ".metrics.json");
  ok = obs::write_metrics_csv_file(metrics_, base + ".metrics.csv") && ok;
  if (!trace_.spans().empty())
    ok = obs::write_chrome_trace_file(trace_, base + ".trace.json") && ok;
  return ok;
}

// ------------------------------------------------------------------ faults --

FaultsSubsystem::FaultsSubsystem(Options options) : options_(std::move(options)) {}

void FaultsSubsystem::attach(VehicleSystem& vehicle) {
  sim::Simulator& sim = vehicle.simulator();
  degradation_ = std::make_unique<faults::DegradationManager>(sim, options_.policy);
  degradation_->set_listener([this, &vehicle, &sim](faults::DriveMode from,
                                                    faults::DriveMode to,
                                                    const std::string& cause) {
    vehicle.powertrain().set_drive_limits(degradation_->torque_limit_fraction(),
                                          degradation_->speed_limit_mps());
    mode_changes_.push_back(ModeChange{sim.now().to_seconds(), from, to, cause});
  });

  watcher_ = std::make_unique<faults::NetworkHealthWatcher>(sim, *degradation_,
                                                            options_.watch);
  for (network::Bus* bus : vehicle.network().buses()) watcher_->watch(*bus);

  plan_ = std::make_unique<faults::FaultPlan>(options_.seed);
  plan_->set_degradation(degradation_.get());

  if (auto* obs = vehicle.find_subsystem<ObservabilitySubsystem>()) {
    degradation_->attach_observer(obs->metrics());
    watcher_->attach_observer(obs->metrics());
    plan_->attach_observer(obs->metrics());
  }
}

void FaultsSubsystem::before_run(VehicleSystem& vehicle) {
  sim::Simulator& sim = vehicle.simulator();
  for (const config::FaultEventSpec& event : options_.events) {
    const sim::Time at = sim::Time::seconds(event.at_s);
    const std::string label = config::to_string(event.kind) + "." + event.target;
    switch (event.kind) {
      case config::FaultKind::kBusDrop: {
        network::Bus* bus = resolve_bus(vehicle, event.target);
        const auto frames = static_cast<std::size_t>(event.value);
        plan_->add(at, label, [bus, frames] { bus->inject_drop(frames); });
        break;
      }
      case config::FaultKind::kBusCorrupt: {
        network::Bus* bus = resolve_bus(vehicle, event.target);
        const auto frames = static_cast<std::size_t>(event.value);
        plan_->add(at, label, [bus, frames] { bus->inject_corruption(frames); });
        break;
      }
      case config::FaultKind::kBusOff: {
        network::Bus* bus = resolve_bus(vehicle, event.target);
        const sim::Time recovery = sim::Time::seconds(event.value);
        plan_->add(at, label, [bus, recovery] { bus->inject_bus_off(recovery); });
        break;
      }
      case config::FaultKind::kBusBabble: {
        network::Bus* bus = resolve_bus(vehicle, event.target);
        babblers_.push_back(std::make_unique<faults::BabblingIdiot>(sim, *bus));
        faults::BabblingIdiot* idiot = babblers_.back().get();
        const sim::Time duration = sim::Time::seconds(event.value);
        plan_->add(at, label, [&sim, idiot, duration] {
          idiot->start();
          sim.schedule_in(duration, [idiot] { idiot->stop(); });
        });
        break;
      }
      case config::FaultKind::kPartitionCrash: {
        const std::size_t p = resolve_partition(vehicle, event.target);
        middleware::Middleware* cockpit = &vehicle.cockpit();
        plan_->add(at, label, [cockpit, p] { cockpit->partition(p).inject_crash(); });
        break;
      }
      case config::FaultKind::kPartitionHang: {
        const std::size_t p = resolve_partition(vehicle, event.target);
        middleware::Middleware* cockpit = &vehicle.cockpit();
        const auto windows = static_cast<std::uint32_t>(event.value);
        plan_->add(at, label,
                   [cockpit, p, windows] { cockpit->partition(p).inject_hang(windows); });
        break;
      }
      case config::FaultKind::kBusErrorRate:
      case config::FaultKind::kBusErrorProb: {
        auto* can = dynamic_cast<network::CanBus*>(resolve_bus(vehicle, event.target));
        if (can == nullptr)
          throw std::invalid_argument("fault '" + label +
                                      "': stochastic error models need a CAN bus");
        // Arm at the scheduled instant; rate and probability specs on the
        // same bus share one model, so stage the merge here and (re)arm with
        // the combined figures. The RNG stream is derived from the plan seed
        // so campaigns replay bit-identically per seed.
        network::CanErrorModel* staged = &staged_errors_[can];
        if (event.kind == config::FaultKind::kBusErrorRate)
          staged->poisson_rate_per_s += event.value;
        else if (staged->per_attempt_prob == 0.0)  // exact for the single-spec case
          staged->per_attempt_prob = event.value;
        else
          staged->per_attempt_prob =
              1.0 - (1.0 - staged->per_attempt_prob) * (1.0 - event.value);
        staged->seed = options_.seed ^ (0x9e3779b97f4a7c15ULL +
                                        std::hash<std::string>{}(event.target));
        const network::CanErrorModel armed = *staged;
        plan_->add(at, label, [can, armed] { can->arm_error_model(armed); });
        break;
      }
      case config::FaultKind::kSensorStuck: {
        const std::size_t cell = resolve_cell(vehicle, event.target);
        bms::BatteryManager* bms = &vehicle.powertrain().bms();
        const double stuck_v = event.value;
        plan_->add(at, label, [bms, cell, stuck_v] {
          battery::SensorFault stuck;
          stuck.mode = battery::SensorFaultMode::kStuckAt;
          stuck.stuck_value = stuck_v;
          bms->inject_voltage_sensor_fault(cell, stuck);
        });
        break;
      }
    }
  }
  plan_->arm(sim);
  watcher_->start();

  // BMS detection input: feed the safety verdict of each control period into
  // the mode machine. Scheduled before run() queues the plant stepping event,
  // so at equal timestamps this reads the previous period's report — one
  // period of latency, deterministically.
  const sim::Time period = sim::Time::seconds(vehicle.config().control_period_s);
  powertrain::PowertrainSimulation* plant = &vehicle.powertrain();
  faults::DegradationManager* degradation = degradation_.get();
  sim.schedule_periodic(period, period, [plant, degradation] {
    degradation->on_bms(plant->bms().report().action);
  });
}

void FaultsSubsystem::after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) {
  (void)vehicle;
  out.set("final_mode",
          static_cast<double>(static_cast<std::uint8_t>(degradation_->mode())));
  out.set("transitions", static_cast<double>(degradation_->transitions()));
  out.set("injections_planned", static_cast<double>(plan_->planned()));
  out.set("injections_fired", static_cast<double>(plan_->injections().size()));
  out.set("bus_fault_episodes", static_cast<double>(watcher_->faults_reported()));
  out.set("partition_restarts", static_cast<double>(degradation_->partition_restarts()));
  out.set("torque_limit_fraction", degradation_->torque_limit_fraction());
}

// ------------------------------------------------------------------ health --

HealthSubsystem::HealthSubsystem(middleware::HealthConfig config) : config_(config) {}

void HealthSubsystem::attach(VehicleSystem& vehicle) { (void)vehicle; }

void HealthSubsystem::before_run(VehicleSystem& vehicle) {
  monitor_ = std::make_unique<middleware::HealthMonitor>(vehicle.simulator(),
                                                         vehicle.cockpit(), config_);
  if (auto* faults = vehicle.find_subsystem<FaultsSubsystem>()) {
    faults::DegradationManager* degradation = &faults->degradation();
    monitor_->set_listener(
        [degradation](std::size_t, middleware::HealthEvent event, sim::Time) {
          if (event == middleware::HealthEvent::kRestart)
            degradation->on_partition_restart();
        });
  }
  if (auto* obs = vehicle.find_subsystem<ObservabilitySubsystem>())
    monitor_->attach_observer(obs->metrics());
  monitor_->start();
}

void HealthSubsystem::after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) {
  (void)vehicle;
  out.set("restarts", static_cast<double>(monitor_->restarts()));
  out.set("heartbeat_misses", static_cast<double>(monitor_->heartbeat_misses()));
}

// ---------------------------------------------------------------- security --

SecuritySubsystem::SecuritySubsystem() : SecuritySubsystem(Options{}) {}

SecuritySubsystem::SecuritySubsystem(Options options) : options_(options) {}

void SecuritySubsystem::attach(VehicleSystem& vehicle) {
  // Deterministic pre-shared key: what a production system would provision
  // at manufacturing; a fixed value keeps same-seed runs byte-identical.
  security::Key master(32);
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 29));
  sender_ = std::make_unique<security::SecureChannel>(master, kFrameIdSecureTelemetry,
                                                      options_.channel);
  receiver_ = std::make_unique<security::SecureChannel>(master, kFrameIdSecureTelemetry,
                                                        options_.channel);

  vehicle.network().chassis_flexray().subscribe(
      [this](const network::Frame& f, sim::Time) {
        if (f.id != kFrameIdSecureTelemetry) return;
        if (receiver_->unprotect(f.payload))
          ++verified_;
        else
          ++rejected_;
      });
}

void SecuritySubsystem::before_run(VehicleSystem& vehicle) {
  sim::Simulator& sim = vehicle.simulator();
  network::FlexRayBus* chassis = &vehicle.network().chassis_flexray();
  powertrain::PowertrainSimulation* plant = &vehicle.powertrain();
  const sim::Time period = sim::Time::seconds(options_.publish_period_s);
  sim.schedule_periodic(period, period, [this, &sim, chassis, plant] {
    std::uint8_t telemetry[2 * sizeof(double)];
    const double soc = plant->bms().report().pack_soc;
    const double t_s = sim.now().to_seconds();
    std::memcpy(telemetry, &soc, sizeof(double));
    std::memcpy(telemetry + sizeof(double), &t_s, sizeof(double));
    network::Frame f;
    f.id = kFrameIdSecureTelemetry;
    f.source = 8;
    f.payload = sender_->protect(telemetry);
    f.payload_size = f.payload.size();
    if (chassis->send(std::move(f))) ++sent_;
  });
}

void SecuritySubsystem::after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) {
  (void)vehicle;
  out.set("frames_protected", static_cast<double>(sent_));
  out.set("frames_authenticated", static_cast<double>(verified_));
  out.set("frames_rejected", static_cast<double>(rejected_));
  out.set("overhead_bytes", static_cast<double>(sender_->overhead_bytes()));
}

}  // namespace ev::core
