/// \file units.h
/// Unit conversion helpers. evsys represents physical quantities as doubles
/// in SI base units (seconds, volts, amperes, watts, joules, kilograms,
/// meters, kelvin offsets in celsius); these helpers convert common
/// engineering units to and from the SI convention used across the code base.
#pragma once

namespace ev::util {

/// Converts kilometers per hour to meters per second.
[[nodiscard]] constexpr double kmh_to_mps(double kmh) noexcept { return kmh / 3.6; }
/// Converts meters per second to kilometers per hour.
[[nodiscard]] constexpr double mps_to_kmh(double mps) noexcept { return mps * 3.6; }

/// Converts revolutions per minute to mechanical radians per second.
[[nodiscard]] constexpr double rpm_to_rad_s(double rpm) noexcept {
  return rpm * 2.0 * 3.14159265358979323846 / 60.0;
}
/// Converts mechanical radians per second to revolutions per minute.
[[nodiscard]] constexpr double rad_s_to_rpm(double rad_s) noexcept {
  return rad_s * 60.0 / (2.0 * 3.14159265358979323846);
}

/// Converts watt-hours to joules.
[[nodiscard]] constexpr double wh_to_j(double wh) noexcept { return wh * 3600.0; }
/// Converts joules to watt-hours.
[[nodiscard]] constexpr double j_to_wh(double j) noexcept { return j / 3600.0; }
/// Converts joules to kilowatt-hours.
[[nodiscard]] constexpr double j_to_kwh(double j) noexcept { return j / 3.6e6; }

/// Converts ampere-hours to coulombs.
[[nodiscard]] constexpr double ah_to_coulomb(double ah) noexcept { return ah * 3600.0; }

}  // namespace ev::util
