#include "ev/security/hmac.h"

#include <algorithm>
#include <stdexcept>

namespace ev::security {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) noexcept {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k_block{};
  if (key.size() > kBlock) {
    const Digest d = Sha256::hash(key);
    std::copy(d.begin(), d.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }
  std::array<std::uint8_t, kBlock> ipad;
  std::array<std::uint8_t, kBlock> opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacSha256::finish(Sha256 inner) const noexcept {
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Digest HmacSha256::mac(std::span<const std::uint8_t> message) const noexcept {
  Sha256 inner = begin();
  inner.update(message);
  return finish(inner);
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) noexcept {
  return HmacSha256(key).mac(message);
}

bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

Key derive_key(std::span<const std::uint8_t> master, std::span<const std::uint8_t> context,
               std::size_t length) {
  if (length > 32) throw std::invalid_argument("derive_key: length must be <= 32");
  std::vector<std::uint8_t> info(context.begin(), context.end());
  info.push_back(0x01);
  const Digest d = hmac_sha256(master, info);
  return Key(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(length));
}

}  // namespace ev::security
