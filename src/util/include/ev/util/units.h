/// \file units.h
/// Unit conversion helpers. evsys represents physical quantities as doubles
/// in SI base units (seconds, volts, amperes, watts, joules, kilograms,
/// meters, kelvin offsets in celsius); these helpers convert common
/// engineering units to and from the SI convention used across the code base.
#pragma once

namespace ev::util {

/// Converts kilometers per hour to meters per second.
[[nodiscard]] constexpr double kmh_to_mps(double kmh) noexcept { return kmh / 3.6; }

/// Converts joules to watt-hours.
[[nodiscard]] constexpr double j_to_wh(double j) noexcept { return j / 3600.0; }

}  // namespace ev::util
