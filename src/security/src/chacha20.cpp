#include "ev/security/chacha20.h"

#include <stdexcept>

namespace ev::security {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) noexcept {
  return (x << n) | (x >> (32 - n));
}

void quarter_round(std::array<std::uint32_t, 16>& s, int a, int b, int c, int d) noexcept {
  std::uint32_t& A = s[static_cast<std::size_t>(a)];
  std::uint32_t& B = s[static_cast<std::size_t>(b)];
  std::uint32_t& C = s[static_cast<std::size_t>(c)];
  std::uint32_t& D = s[static_cast<std::size_t>(d)];
  A += B; D ^= A; D = rotl(D, 16);
  C += D; B ^= C; B = rotl(B, 12);
  A += B; D ^= A; D = rotl(D, 8);
  C += D; B ^= C; B = rotl(B, 7);
}

std::uint32_t load32(const std::uint8_t* p) noexcept {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16) |
         (std::uint32_t(p[3]) << 24);
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
                   std::uint32_t counter) {
  if (key.size() != 32) throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  if (nonce.size() != 12) throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[static_cast<std::size_t>(4 + i)] = load32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[static_cast<std::size_t>(13 + i)] = load32(nonce.data() + 4 * i);
}

void ChaCha20::refill() noexcept {
  std::array<std::uint32_t, 16> working = state_;
  for (int round = 0; round < 10; ++round) {
    quarter_round(working, 0, 4, 8, 12);
    quarter_round(working, 1, 5, 9, 13);
    quarter_round(working, 2, 6, 10, 14);
    quarter_round(working, 3, 7, 11, 15);
    quarter_round(working, 0, 5, 10, 15);
    quarter_round(working, 1, 6, 11, 12);
    quarter_round(working, 2, 7, 8, 13);
    quarter_round(working, 3, 4, 9, 14);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t v = working[i] + state_[i];
    block_[4 * i] = static_cast<std::uint8_t>(v);
    block_[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    block_[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    block_[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  ++state_[12];  // block counter
  block_used_ = 0;
}

void ChaCha20::apply(std::span<std::uint8_t> data) noexcept {
  for (std::uint8_t& byte : data) {
    if (block_used_ == 64) refill();
    byte ^= block_[block_used_++];
  }
}

}  // namespace ev::security
