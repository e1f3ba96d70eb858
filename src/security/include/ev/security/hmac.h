/// \file hmac.h
/// HMAC-SHA-256 (RFC 2104), constant-time tag comparison, and a minimal
/// HKDF-style key derivation — the authentication primitives behind secure
/// in-vehicle communication and the charging challenge-response ([36]).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ev/security/sha256.h"

namespace ev::security {

/// A symmetric key (arbitrary length; 32 bytes recommended).
using Key = std::vector<std::uint8_t>;

/// HMAC-SHA-256 under one key, kept as the inner and outer hashers after
/// they absorbed the ipad and opad blocks (RFC 2104 §4). A tag then costs
/// the message's own blocks plus one outer block, not two more for the pads.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key) noexcept;

  /// The inner hasher with the ipad block absorbed: update() it with the
  /// message, then hand it to finish().
  [[nodiscard]] Sha256 begin() const noexcept { return inner_; }

  /// The tag of the message \p inner (from begin()) has absorbed.
  [[nodiscard]] Digest finish(Sha256 inner) const noexcept;

  /// The tag of \p message.
  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const noexcept;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA-256 of \p message under \p key.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message) noexcept;

/// Constant-time equality of two byte strings (length leak only). Unequal
/// lengths compare false.
[[nodiscard]] bool constant_time_equal(std::span<const std::uint8_t> a,
                                       std::span<const std::uint8_t> b) noexcept;

/// Derives a sub-key from \p master bound to \p context (HKDF-expand-style,
/// single block): HMAC(master, context || 0x01) truncated to \p length
/// (max 32).
[[nodiscard]] Key derive_key(std::span<const std::uint8_t> master,
                             std::span<const std::uint8_t> context,
                             std::size_t length = 32);

}  // namespace ev::security
