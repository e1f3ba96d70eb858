/// \file math.h
/// Small math helpers shared across evsys modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace ev::util {

/// Mathematical constant pi as double.
inline constexpr double kPi = std::numbers::pi;
/// Two pi, the full circle in radians.
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Clamps \p x into the closed interval [lo, hi].
[[nodiscard]] constexpr double clamp(double x, double lo, double hi) noexcept {
  return std::min(std::max(x, lo), hi);
}

/// Linear interpolation between \p a and \p b with parameter \p t in [0,1].
[[nodiscard]] constexpr double lerp(double a, double b, double t) noexcept {
  return a + (b - a) * t;
}

/// Wraps an angle in radians into [0, 2*pi).
[[nodiscard]] inline double wrap_angle(double theta) noexcept {
  double t = std::fmod(theta, kTwoPi);
  if (t < 0.0) t += kTwoPi;
  return t;
}


/// Integer ceiling division for non-negative operands.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t num, std::int64_t den) noexcept {
  return (num + den - 1) / den;
}

/// Greatest common divisor (Euclid); both operands must be positive.
[[nodiscard]] constexpr std::int64_t gcd64(std::int64_t a, std::int64_t b) noexcept {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace ev::util
