/// \file json.h
/// The JSON string escaper every deterministic report and exporter shares.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace ev::util {

/// Hands the escaped form of \p text to \p emit as a sequence of
/// std::string_view pieces: runs of bytes that pass through unchanged, and
/// escape sequences. `"` and `\` are backslash-escaped, newline and tab
/// become `\n` and `\t`, and every other byte below 0x20 becomes `\u00xx`.
/// Bytes >= 0x20 pass through, so UTF-8 stays UTF-8. The one escaping
/// implementation behind json_escape and write_json_escaped.
template <typename Emit>
void json_escape_pieces(std::string_view text, Emit&& emit) {
  std::size_t run = 0;  // start of the pending pass-through run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool plain = c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
    if (plain) continue;
    if (i > run) emit(text.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': emit(std::string_view("\\\"")); break;
      case '\\': emit(std::string_view("\\\\")); break;
      case '\n': emit(std::string_view("\\n")); break;
      case '\t': emit(std::string_view("\\t")); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        emit(std::string_view(buf, 6));
      }
    }
  }
  if (text.size() > run) emit(text.substr(run));
}

/// \p text as the body of a JSON string literal (no surrounding quotes).
[[nodiscard]] inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json_escape_pieces(text, [&out](std::string_view piece) { out.append(piece); });
  return out;
}

/// Writes json_escape(\p text) to \p out without building the string.
inline void write_json_escaped(std::ostream& out, std::string_view text) {
  json_escape_pieces(text, [&out](std::string_view piece) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  });
}

}  // namespace ev::util
