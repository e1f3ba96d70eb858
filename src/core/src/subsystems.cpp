#include "ev/core/subsystems.h"

#include <cstring>
#include <functional>

#include "ev/network/bus.h"
#include "ev/network/can.h"
#include "ev/obs/export.h"

namespace ev::core {

// ----------------------------------------------------------- observability --

void ObservabilitySubsystem::attach(VehicleSystem& vehicle) {
  kernel_ = obs::KernelCounters(metrics_);
  for (network::Bus* bus : vehicle.network().buses()) bus->attach_observer(metrics_);
  vehicle.network().gateway().attach_observer(metrics_);
  vehicle.cockpit().attach_observer(metrics_, &trace_);
}

void ObservabilitySubsystem::after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) {
  kernel_.add(metrics_, vehicle.simulator());
  out.set("events_dispatched", static_cast<double>(vehicle.simulator().dispatched()));
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
  const std::vector<network::Bus*> buses = vehicle.network().buses();
  middleware::Middleware* cockpit = &vehicle.cockpit();
  // Rate and probability specs on the same bus share one model: each event
  // (re)arms the merge of every spec on its bus so far.
  network::CanErrorModel staged[config::kArchBusCount];
  for (const PlannedFault& fault : options_.faults) {
    const config::FaultEventSpec& event = fault.event;
    const sim::Time at = sim::Time::seconds(event.at_s);
    const std::string label = config::to_string(event.kind) + "." + event.target;
    const FaultTargetKind target = fault_target_kind(event.kind);
    network::Bus* bus = target == FaultTargetKind::kBus || target == FaultTargetKind::kCanBus
                            ? buses[fault.index]
                            : nullptr;
    switch (event.kind) {
      case config::FaultKind::kBusDrop: {
        const auto frames = static_cast<std::size_t>(event.value);
        plan_->add(at, label, [bus, frames] { bus->inject_drop(frames); });
        break;
      }
      case config::FaultKind::kBusCorrupt: {
        const auto frames = static_cast<std::size_t>(event.value);
        plan_->add(at, label, [bus, frames] { bus->inject_corruption(frames); });
        break;
      }
      case config::FaultKind::kBusOff: {
        const sim::Time recovery = sim::Time::seconds(event.value);
        plan_->add(at, label, [bus, recovery] { bus->inject_bus_off(recovery); });
        break;
      }
      case config::FaultKind::kBusBabble: {
        babblers_.push_back(std::make_unique<faults::BabblingIdiot>(sim, *bus));
        faults::BabblingIdiot* idiot = babblers_.back().get();
        const sim::Time duration = sim::Time::seconds(event.value);
        plan_->add(at, label, [&sim, idiot, duration] {
          idiot->start();
          sim.schedule_in(duration, [idiot] { idiot->stop(); });
        });
        break;
      }
      case config::FaultKind::kPartitionCrash:
        plan_->add(at, label,
                   [cockpit, p = fault.index] { cockpit->partition(p).inject_crash(); });
        break;
      case config::FaultKind::kPartitionHang: {
        const auto windows = static_cast<std::uint32_t>(event.value);
        plan_->add(at, label, [cockpit, p = fault.index, windows] {
          cockpit->partition(p).inject_hang(windows);
        });
        break;
      }
      case config::FaultKind::kBusErrorRate:
      case config::FaultKind::kBusErrorProb: {
        // The resolver admits error models on CAN buses only. The RNG stream
        // is derived from the plan seed so campaigns replay bit-identically
        // per seed.
        network::CanErrorModel& model = staged[fault.index];
        merge_error_event(event, model);
        model.seed = options_.seed ^ (0x9e3779b97f4a7c15ULL +
                                      std::hash<std::string>{}(event.target));
        plan_->add(at, label, [can = static_cast<network::CanBus*>(bus), armed = model] {
          can->arm_error_model(armed);
        });
        break;
      }
      case config::FaultKind::kSensorStuck: {
        bms::BatteryManager* bms = &vehicle.powertrain().bms();
        const double stuck_v = event.value;
        plan_->add(at, label, [bms, cell = fault.index, stuck_v] {
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
