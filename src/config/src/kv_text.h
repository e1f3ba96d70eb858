/// \file kv_text.h
/// The machinery of the two `key = value` spec formats, ScenarioSpec (`.scn`)
/// and FleetSpec (`.fleet`). Each format spells its keys once, in one table:
/// `fields(spec, visit)` calls `visit(key, field)` for every key in to_text
/// order. A list field (`fault`, `arch.frame_bus`, ...) becomes one numbered
/// line per entry, `key.N = v1 v2 ...`, whose values are the entry type's own
/// table, `entry_fields(entry, visit)`, which calls `visit(placeholder,
/// field)` per value (`<at_s>`, `<kind>`, ...). TextWriter, read_text and
/// FiniteCheck walk those tables, so to_text, from_text and validate()'s
/// finiteness check cannot disagree on a key. Every diagnostic starts with
/// the format's context ("scenario", "fleet").
///
/// A field's C++ type is its grammar, and each grammar accepts exactly what
/// to_text emits and nothing more, so from_text is a closed inverse of
/// to_text:
///
///   double:         -?digits[.digits][(e|E)[+|-]digits]
///   std::uint64_t:  digits
///   std::int64_t:   -?digits
///   bool:           true | false
///   std::uint32_t:  a frame id: 0x then hex digits, at most 0x1fffffff
///                   (written 0x%03x, lowercase)
///   enum:           one of the names in its EnumNames specialisation
///   std::string:    the rest of the line, or one token in a list entry
///
/// strtod/strtoul extensions (a sign or a second `0x` before hex digits,
/// leading '+', hex floats like `0x1p3`, `inf`/`nan`, embedded whitespace)
/// are rejected: to_text can never produce them, so accepting them would make
/// the round trip lossy. Range errors (overflow to ±inf / integer clamp,
/// underflow to zero) fail typed instead of silently saturating.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ev/config/scenario.h"

namespace ev::config::detail {

/// Throws std::invalid_argument whose message is the concatenated parts.
template <typename... Parts>
[[noreturn]] void fail(const Parts&... parts) {
  std::string what;
  (what.append(std::string_view(parts)), ...);
  throw std::invalid_argument(what);
}

/// T or const T: one fields()/entry_fields() body serves writing and reading.
template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

/// The text names of enum E in enumerator order (`kNames`) and what a
/// diagnostic calls one (`kWhat`). Each format specialises it for its enums;
/// parsing and to_string both read that one array.
template <typename E>
struct EnumNames;

template <typename E>
std::string_view enum_name(E value) {
  const auto& names = EnumNames<E>::kNames;
  const auto i = static_cast<std::size_t>(value);
  return i < std::size(names) ? names[i] : names[0];
}

template <typename T>
inline constexpr bool kIsList = false;
template <typename E>
inline constexpr bool kIsList<std::vector<E>> = true;

/// True when \p s matches the decimal grammar above. \p allow_sign permits a
/// single leading '-'; \p allow_fraction permits the fraction/exponent tail.
inline bool match_decimal(std::string_view s, bool allow_sign, bool allow_fraction) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) ++i;
    return i > from;
  };
  if (allow_sign && i < s.size() && s[i] == '-') ++i;
  if (!digits()) return false;
  if (allow_fraction && i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (allow_fraction && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

[[noreturn]] inline void fail_expects(const char* ctx, std::string_view key,
                                      const char* what, std::string_view s) {
  fail(ctx, ": '", key, "' expects ", what, ", got '", s, "'");
}

[[noreturn]] inline void fail_range(const char* ctx, std::string_view key,
                                    std::string_view s) {
  fail(ctx, ": '", key, "' value out of range: '", s, "'");
}

/// Parses one value of \p key into \p out by the grammar of its type.
template <typename T>
void read_value(std::string_view s, std::string_view key, const char* ctx, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = s;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s != "true" && s != "false") fail_expects(ctx, key, "true or false", s);
    out = s == "true";
  } else if constexpr (std::is_enum_v<T>) {
    const auto& names = EnumNames<T>::kNames;
    const auto* it = std::find(std::begin(names), std::end(names), s);
    if (it == std::end(names)) fail(ctx, ": unknown ", EnumNames<T>::kWhat, " '", s, "'");
    out = static_cast<T>(it - std::begin(names));
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {  // a frame id
    // from_chars takes hex digits only, where strtoul would also take a sign
    // or a second 0x.
    std::uint64_t v = 0;
    std::from_chars_result hex{s.data(), std::errc::invalid_argument};
    if (s.starts_with("0x")) hex = std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
    if (hex.ec != std::errc{} || hex.ptr != s.data() + s.size() || v > 0x1FFFFFFF)
      fail_expects(ctx, key, "a 0x-prefixed frame id", s);
    out = static_cast<std::uint32_t>(v);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!match_decimal(s, /*allow_sign=*/true, /*allow_fraction=*/true))
      fail_expects(ctx, key, "a number", s);
    const std::string text(s);
    errno = 0;
    const double v = std::strtod(text.c_str(), nullptr);
    // Overflow saturates to ±HUGE_VAL and total underflow to zero, both with
    // ERANGE. Denormal results may also set ERANGE on some libcs — those are
    // representable and round-trip through format_double, so keep them.
    if (!std::isfinite(v) || (errno == ERANGE && v == 0.0)) fail_range(ctx, key, s);
    out = v;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    if (!match_decimal(s, /*allow_sign=*/false, /*allow_fraction=*/false))
      fail_expects(ctx, key, "a non-negative integer", s);
    const std::optional<std::uint64_t> v = parse_u64(s);
    if (!v) fail_range(ctx, key, s);
    out = *v;
  } else {
    static_assert(std::is_same_v<T, std::int64_t>);
    if (!match_decimal(s, /*allow_sign=*/true, /*allow_fraction=*/false))
      fail_expects(ctx, key, "an integer", s);
    const std::optional<std::int64_t> v = parse_i64(s);
    if (!v) fail_range(ctx, key, s);
    out = *v;
  }
}

/// Appends \p v as read_value reads it back.
template <typename T>
void write_value(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    out += v;
  } else if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    out += enum_name(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {  // a frame id
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%03x", v);
    out += buf;
  } else if constexpr (std::is_same_v<T, double>) {
    out += format_double(v);
  } else {
    out += std::to_string(v);
  }
}

inline bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// Removes and returns the first whitespace-separated token of \p rest
/// (empty when none is left).
inline std::string_view next_token(std::string_view& rest) {
  rest = trim(rest);
  std::size_t end = 0;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end);
  return token;
}

/// The to_text of a format: one `key = value` line per scalar field and one
/// `key.N = v1 v2 ...` line per list entry.
struct TextWriter {
  std::string& out;

  template <typename T>
  void operator()(std::string_view key, const T& field) const {
    if constexpr (kIsList<T>) {
      for (std::size_t i = 0; i < field.size(); ++i) {
        out.append(key).append(".").append(std::to_string(i)).append(" =");
        entry_fields(field[i], [this](std::string_view, const auto& value) {
          out += ' ';
          write_value(out, value);
        });
        out += '\n';
      }
    } else {
      out.append(key).append(" = ");
      write_value(out, field);
      out += '\n';
    }
  }
};

/// Reads the list entry `key = value` of \p list (named \p name): the index
/// must be the next one, and the value must hold one token per entry field.
template <typename Entry>
void read_entry(std::string_view key, std::string_view value, const char* ctx,
                std::string_view name, std::vector<Entry>& list) {
  std::uint64_t index = 0;
  read_value(key.substr(name.size() + 1), key, ctx, index);
  if (index != list.size())
    fail(ctx, ": ", name, " entries must be numbered consecutively from 0; got '", key,
         "'");
  Entry entry;
  std::size_t want = 0;
  entry_fields(entry, [&want](std::string_view, const auto&) { ++want; });
  std::size_t have = 0;
  for (std::string_view rest = value; !next_token(rest).empty();) ++have;
  if (have != want) {
    std::string expects;
    entry_fields(entry, [&expects](std::string_view placeholder, const auto&) {
      if (!expects.empty()) expects += ' ';
      expects += placeholder;
    });
    fail(ctx, ": '", key, "' expects '", expects, "'");
  }
  std::string_view rest = value;
  entry_fields(entry, [&](std::string_view, auto& field) {
    read_value(next_token(rest), key, ctx, field);
  });
  list.push_back(std::move(entry));
}

/// The from_text of a format: `#` comments and blank lines are skipped, and
/// every other line must be `key = value` with a key, a value, and a key not
/// seen before. `walk(visit)` runs the format's fields() table on the spec
/// being read; a line sets the field whose key it names.
template <typename Walk>
void read_text(std::string_view text, const char* ctx, Walk&& walk) {
  std::set<std::string_view> seen;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    const std::string_view line = trim(text.substr(0, newline));
    text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) fail(ctx, ": expected 'key = value', got '", line, "'");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) fail(ctx, ": empty key or value in '", line, "'");
    // Letting the last occurrence win would make two contradictory lines a
    // valid spec; reject the ambiguity instead.
    if (!seen.insert(key).second) fail(ctx, ": duplicate key '", key, "'");
    bool matched = false;
    walk([&](std::string_view name, auto& field) {
      if constexpr (kIsList<std::remove_reference_t<decltype(field)>>) {
        if (matched || key.size() <= name.size() || key[name.size()] != '.' ||
            !key.starts_with(name))
          return;
        read_entry(key, value, ctx, name, field);
      } else {
        if (matched || key != name) return;
        read_value(value, key, ctx, field);
      }
      matched = true;
    });
    if (!matched) fail(ctx, ": unknown key '", key, "'");
  }
}

/// validate()'s finiteness check: range checks written `v < lo || v > hi`
/// let NaN through (every comparison is false), and +inf passes one-sided
/// lower bounds, so the first non-finite double field in text order fails
/// first. A valid spec then holds only finite doubles, as the parser does.
struct FiniteCheck {
  const char* ctx;

  template <typename T>
  void operator()(std::string_view key, const T& field) const {
    if constexpr (std::is_same_v<T, double>) {
      if (!std::isfinite(field)) fail(ctx, ": ", key, " must be finite");
    }
  }
};

}  // namespace ev::config::detail
