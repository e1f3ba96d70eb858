/// \file kv_text.h
/// Internal helpers shared by the `key = value` spec parsers (ScenarioSpec,
/// FleetSpec): scalar parsing with uniform error messages, whitespace
/// handling, and line splitting. Every parser passes its own context prefix
/// ("scenario", "fleet") so diagnostics name the format being read.
///
/// The scalar grammars accept exactly what `to_text()` emits — and nothing
/// more — so that `from_text` is a closed inverse of `to_text`:
///
///   double:  -?digits[.digits][(e|E)[+|-]digits]
///   u64:     digits
///   i64:     -?digits
///
/// strtod/strtoull extensions (leading '+', hex floats like `0x1p3`,
/// `inf`/`nan`, embedded whitespace) are rejected: `format_double` can never
/// produce them, so accepting them would make the round trip lossy. Range
/// errors (overflow to ±inf / integer clamp, underflow to zero) fail typed
/// instead of silently saturating.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ev/config/scenario.h"

namespace ev::config::detail {

[[noreturn]] inline void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

/// True when \p s matches the decimal grammar above. \p allow_sign permits a
/// single leading '-'; \p allow_fraction permits the fraction/exponent tail.
inline bool match_decimal(const std::string& s, bool allow_sign,
                          bool allow_fraction) {
  std::size_t i = 0;
  if (allow_sign && i < s.size() && s[i] == '-') ++i;
  std::size_t digits = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
    ++digits;
  }
  if (digits == 0) return false;
  if (allow_fraction && i < s.size() && s[i] == '.') {
    ++i;
    std::size_t frac = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
      ++frac;
    }
    if (frac == 0) return false;
  }
  if (allow_fraction && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    std::size_t exp = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
      ++exp;
    }
    if (exp == 0) return false;
  }
  return i == s.size();
}

[[noreturn]] inline void fail_range(const std::string& s, const std::string& key,
                                    const char* ctx) {
  fail(std::string(ctx) + ": '" + key + "' value out of range: '" + s + "'");
}

inline double parse_double(const std::string& s, const std::string& key,
                           const char* ctx) {
  if (!match_decimal(s, /*allow_sign=*/true, /*allow_fraction=*/true))
    fail(std::string(ctx) + ": '" + key + "' expects a number, got '" + s + "'");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    fail(std::string(ctx) + ": '" + key + "' expects a number, got '" + s + "'");
  // Overflow saturates to ±HUGE_VAL and total underflow to zero, both with
  // ERANGE. Denormal results may also set ERANGE on some libcs — those are
  // representable and round-trip through format_double, so keep them.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL || v == 0.0))
    fail_range(s, key, ctx);
  if (!std::isfinite(v)) fail_range(s, key, ctx);
  return v;
}

inline std::uint64_t parse_u64(const std::string& s, const std::string& key,
                               const char* ctx) {
  if (!match_decimal(s, /*allow_sign=*/false, /*allow_fraction=*/false))
    fail(std::string(ctx) + ": '" + key + "' expects a non-negative integer, got '" +
         s + "'");
  const std::optional<std::uint64_t> v = ::ev::config::parse_u64(s);
  if (!v) fail_range(s, key, ctx);
  return *v;
}

inline std::int64_t parse_i64(const std::string& s, const std::string& key,
                              const char* ctx) {
  if (!match_decimal(s, /*allow_sign=*/true, /*allow_fraction=*/false))
    fail(std::string(ctx) + ": '" + key + "' expects an integer, got '" + s + "'");
  const std::optional<std::int64_t> v = ::ev::config::parse_i64(s);
  if (!v) fail_range(s, key, ctx);
  return *v;
}

inline bool parse_bool(const std::string& s, const std::string& key, const char* ctx) {
  if (s == "true") return true;
  if (s == "false") return false;
  fail(std::string(ctx) + ": '" + key + "' expects true or false, got '" + s + "'");
}

inline std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

inline std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace ev::config::detail
