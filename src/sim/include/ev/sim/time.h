/// \file time.h
/// Simulation time as a strong integer type with nanosecond resolution.
/// Integer time makes event ordering exact (no floating-point ties) — a
/// prerequisite for deterministic time-triggered schedules, which the paper
/// identifies as the basis of next-generation EV architectures.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace ev::sim {

/// A point in (or duration of) simulation time, in integer nanoseconds.
/// Supports the usual affine arithmetic; factory functions convert from
/// engineering units.
class Time {
 public:
  /// Zero time.
  constexpr Time() noexcept = default;

  /// Duration of \p n nanoseconds.
  [[nodiscard]] static constexpr Time ns(std::int64_t n) noexcept { return Time{n}; }
  /// Duration of \p n microseconds.
  [[nodiscard]] static constexpr Time us(std::int64_t n) noexcept { return Time{n * 1000}; }
  /// Duration of \p n milliseconds.
  [[nodiscard]] static constexpr Time ms(std::int64_t n) noexcept { return Time{n * 1'000'000}; }
  /// Duration of \p n whole seconds.
  [[nodiscard]] static constexpr Time s(std::int64_t n) noexcept {
    return Time{n * 1'000'000'000};
  }
  /// Duration of \p sec fractional seconds, rounded to the nearest ns.
  [[nodiscard]] static constexpr Time seconds(double sec) noexcept {
    return Time{static_cast<std::int64_t>(sec * 1e9 + (sec >= 0 ? 0.5 : -0.5))};
  }
  /// The largest representable time; used as "never".
  [[nodiscard]] static constexpr Time max() noexcept {
    return Time{INT64_MAX};
  }

  /// Raw nanosecond count.
  [[nodiscard]] constexpr std::int64_t count_ns() const noexcept { return ns_; }
  /// Value in fractional seconds.
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(ns_) * 1e-9;
  }
  /// Value in fractional milliseconds.
  [[nodiscard]] constexpr double to_ms() const noexcept {
    return static_cast<double>(ns_) * 1e-6;
  }
  /// Value in fractional microseconds.
  [[nodiscard]] constexpr double to_us() const noexcept {
    return static_cast<double>(ns_) * 1e-3;
  }

  constexpr auto operator<=>(const Time&) const noexcept = default;

  constexpr Time& operator+=(Time rhs) noexcept {
    ns_ += rhs.ns_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) noexcept {
    ns_ -= rhs.ns_;
    return *this;
  }
  [[nodiscard]] friend constexpr Time operator+(Time a, Time b) noexcept {
    return Time{a.ns_ + b.ns_};
  }
  [[nodiscard]] friend constexpr Time operator-(Time a, Time b) noexcept {
    return Time{a.ns_ - b.ns_};
  }
  [[nodiscard]] friend constexpr Time operator*(Time a, std::int64_t k) noexcept {
    return Time{a.ns_ * k};
  }
  [[nodiscard]] friend constexpr Time operator*(std::int64_t k, Time a) noexcept {
    return Time{a.ns_ * k};
  }
  /// Integer division: how many whole multiples of \p b fit into \p a.
  [[nodiscard]] friend constexpr std::int64_t operator/(Time a, Time b) noexcept {
    return a.ns_ / b.ns_;
  }
  /// Remainder of a modulo b (both as durations).
  [[nodiscard]] friend constexpr Time operator%(Time a, Time b) noexcept {
    return Time{a.ns_ % b.ns_};
  }

 private:
  explicit constexpr Time(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

}  // namespace ev::sim
