/// \file chacha20.h
/// ChaCha20 stream cipher (RFC 8439), implemented from scratch: the
/// encryption half of the authenticated secure channel. Chosen over a block
/// cipher for its simplicity and constant-time software profile — properties
/// that matter on automotive-grade microcontrollers.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ev::security {

/// ChaCha20 keystream generator / XOR cipher.
class ChaCha20 {
 public:
  /// \p key is 32 bytes, \p nonce 12 bytes, \p counter the initial block
  /// counter (RFC 8439 layout).
  ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
           std::uint32_t counter = 1);

  /// Encrypts (== decrypts) \p data in place by XOR with the keystream.
  void apply(std::span<std::uint8_t> data) noexcept;

 private:
  void refill() noexcept;

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 64> block_{};
  std::size_t block_used_ = 64;  // force refill on first use
};

}  // namespace ev::security
