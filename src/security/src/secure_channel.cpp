#include "ev/security/secure_channel.h"

#include <array>
#include <stdexcept>

namespace ev::security {

namespace {

/// Key-derivation context of a channel key: a 3-byte label and the
/// big-endian channel id.
std::array<std::uint8_t, 7> context(const char (&label)[4], std::uint32_t channel_id) {
  return {static_cast<std::uint8_t>(label[0]), static_cast<std::uint8_t>(label[1]),
          static_cast<std::uint8_t>(label[2]), static_cast<std::uint8_t>(channel_id >> 24),
          static_cast<std::uint8_t>(channel_id >> 16),
          static_cast<std::uint8_t>(channel_id >> 8), static_cast<std::uint8_t>(channel_id)};
}

}  // namespace

SecureChannel::SecureChannel(Key master_key, std::uint32_t channel_id, ChannelConfig config)
    : config_(config),
      send_key_(derive_key(master_key, context("enc", channel_id), 32)),
      mac_(derive_key(master_key, context("mac", channel_id), 32)) {
  if (config.tag_bytes < 4 || config.tag_bytes > 32)
    throw std::invalid_argument("SecureChannel: tag must be 4..32 bytes");
  if (config.counter_bytes < 2 || config.counter_bytes > 8)
    throw std::invalid_argument("SecureChannel: counter must be 2..8 bytes");
}

std::optional<std::size_t> SecureChannel::max_plaintext(std::size_t frame_payload) const {
  if (frame_payload <= overhead_bytes()) return std::nullopt;
  return frame_payload - overhead_bytes();
}

std::vector<std::uint8_t> SecureChannel::crypt(std::uint64_t counter,
                                               std::span<const std::uint8_t> data) const {
  std::array<std::uint8_t, 12> nonce{};
  for (int i = 0; i < 8; ++i) nonce[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(counter >> (8 * i));
  ChaCha20 cipher(send_key_, nonce);
  std::vector<std::uint8_t> out(data.begin(), data.end());
  cipher.apply(out);
  return out;
}

Digest SecureChannel::tag_of(std::uint64_t counter,
                             std::span<const std::uint8_t> ciphertext) const {
  std::array<std::uint8_t, 8> counter_le;
  for (std::size_t i = 0; i < 8; ++i) counter_le[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  Sha256 inner = mac_.begin();
  inner.update(counter_le);
  inner.update(ciphertext);
  return mac_.finish(inner);
}

std::vector<std::uint8_t> SecureChannel::protect(std::span<const std::uint8_t> plaintext) {
  const std::uint64_t counter = ++send_counter_;
  const std::vector<std::uint8_t> ciphertext =
      config_.encrypt ? crypt(counter, plaintext)
                      : std::vector<std::uint8_t>(plaintext.begin(), plaintext.end());
  const Digest tag = tag_of(counter, ciphertext);

  std::vector<std::uint8_t> wire;
  wire.reserve(config_.counter_bytes + ciphertext.size() + config_.tag_bytes);
  for (std::size_t i = 0; i < config_.counter_bytes; ++i)
    wire.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
  wire.insert(wire.end(), ciphertext.begin(), ciphertext.end());
  wire.insert(wire.end(), tag.begin(), tag.begin() + static_cast<std::ptrdiff_t>(config_.tag_bytes));
  return wire;
}

std::optional<std::vector<std::uint8_t>> SecureChannel::unprotect(
    std::span<const std::uint8_t> wire, ChannelStatus* status) {
  auto fail = [&](ChannelStatus s) {
    if (status) *status = s;
    return std::nullopt;
  };
  if (wire.size() < overhead_bytes()) return fail(ChannelStatus::kMalformed);

  std::uint64_t counter = 0;
  for (std::size_t i = 0; i < config_.counter_bytes; ++i)
    counter |= static_cast<std::uint64_t>(wire[i]) << (8 * i);
  const std::span<const std::uint8_t> ciphertext =
      wire.subspan(config_.counter_bytes, wire.size() - overhead_bytes());
  const std::span<const std::uint8_t> tag = wire.subspan(wire.size() - config_.tag_bytes);

  const Digest expected = tag_of(counter, ciphertext);
  if (!constant_time_equal(tag, std::span<const std::uint8_t>(expected.data(),
                                                              config_.tag_bytes))) {
    ++bad_tag_;
    return fail(ChannelStatus::kBadTag);
  }
  if (counter <= highest_received_) return fail(ChannelStatus::kReplayed);
  highest_received_ = counter;
  if (status) *status = ChannelStatus::kOk;
  if (!config_.encrypt) return std::vector<std::uint8_t>(ciphertext.begin(), ciphertext.end());
  return crypt(counter, ciphertext);
}

}  // namespace ev::security
