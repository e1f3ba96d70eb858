/// \file json.h
/// The JSON string escaper every deterministic report and exporter shares.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace ev::util {

/// \p text as the body of a JSON string literal (no surrounding quotes):
/// `"` and `\` are backslash-escaped, newline and tab become `\n` and `\t`,
/// and every other byte below 0x20 becomes `\u00xx`. Bytes >= 0x20 pass
/// through unchanged, so UTF-8 stays UTF-8.
[[nodiscard]] inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ev::util
