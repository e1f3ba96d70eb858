/// \file sensors.h
/// Measurement-chain models. The BMS never sees simulation ground truth: it
/// observes cell voltages, temperatures, and the pack current through these
/// noisy, biased sensors, which is what makes SoC *estimation* (rather than
/// lookup) a real problem. Sensors also carry the injectable measurement
/// faults (stuck-at, offset drift, dropout) that feed the SafetyMonitor's
/// debounced detection path in fault-injection experiments.
#pragma once

#include <cstdint>

#include "ev/util/rng.h"

namespace ev::battery {

/// Injectable sensor failure modes.
enum class SensorFaultMode : std::uint8_t {
  kNone,
  kStuckAt,      ///< Output frozen at a fixed value (ADC latch-up, open wire
                 ///< with a pull-up).
  kOffsetDrift,  ///< Bias grows by a fixed increment every sample (thermal
                 ///< drift, reference degradation).
  kDropout,      ///< Output collapses to a fixed floor (lost connection).
};

/// One injected sensor fault. Inject via ScalarSensor::inject_fault().
struct SensorFault {
  SensorFaultMode mode = SensorFaultMode::kNone;
  double stuck_value = 0.0;       ///< kStuckAt output.
  double drift_per_sample = 0.0;  ///< kOffsetDrift bias increment per measure().
  double dropout_value = 0.0;     ///< kDropout output.
};

/// Additive-Gaussian-noise-plus-bias sensor for a scalar quantity.
class ScalarSensor {
 public:
  /// \p noise_sigma standard deviation and constant \p bias in the measured
  /// quantity's unit; optional \p quantization step (0 disables).
  explicit ScalarSensor(double noise_sigma = 0.0, double bias = 0.0,
                        double quantization = 0.0) noexcept
      : noise_sigma_(noise_sigma), bias_(bias), quantization_(quantization) {}

  /// Produces a measurement of \p true_value using randomness from \p rng.
  /// An injected fault overrides or perturbs the healthy measurement chain;
  /// stuck-at and dropout outputs bypass noise and quantization entirely
  /// (the front-end no longer sees the cell at all).
  [[nodiscard]] double measure(double true_value, util::Rng& rng);

  /// Arms \p fault; it stays in force for the rest of the run.
  void inject_fault(const SensorFault& fault) noexcept {
    fault_ = fault;
    drift_accum_ = 0.0;
  }
  /// True while a fault is armed.
  [[nodiscard]] bool faulted() const noexcept {
    return fault_.mode != SensorFaultMode::kNone;
  }
  /// The armed fault (mode kNone when healthy).
  [[nodiscard]] const SensorFault& fault() const noexcept { return fault_; }

  [[nodiscard]] double noise_sigma() const noexcept { return noise_sigma_; }
  [[nodiscard]] double bias() const noexcept { return bias_; }

 private:
  double noise_sigma_;
  double bias_;
  double quantization_;
  SensorFault fault_;
  double drift_accum_ = 0.0;
};

/// Cell voltage sensor: typical BMS front-end, ~1 mV noise, 1 mV LSB.
class VoltageSensor : public ScalarSensor {
 public:
  explicit VoltageSensor(double noise_sigma = 1e-3, double bias = 0.0) noexcept
      : ScalarSensor(noise_sigma, bias, 1e-3) {}
};

/// Pack current sensor: shunt/hall hybrid, ~0.1 A noise plus a small bias —
/// the bias is what makes pure coulomb counting drift over time.
class CurrentSensor : public ScalarSensor {
 public:
  explicit CurrentSensor(double noise_sigma = 0.1, double bias = 0.05) noexcept
      : ScalarSensor(noise_sigma, bias, 0.01) {}
};

/// Cell temperature sensor (NTC): ~0.2 K noise.
class TemperatureSensor : public ScalarSensor {
 public:
  explicit TemperatureSensor(double noise_sigma = 0.2, double bias = 0.0) noexcept
      : ScalarSensor(noise_sigma, bias, 0.1) {}
};

}  // namespace ev::battery
