/// \file secure_channel.h
/// Authenticated (and optionally encrypted) communication between ECUs.
/// Each protected message carries a monotonic counter (replay protection)
/// and a truncated HMAC tag. The per-frame overhead is what makes classic
/// CAN — with its 8-byte payload — "unsuitable for a secure communication"
/// per the paper, while Ethernet absorbs it easily; experiment E11
/// quantifies this.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ev/security/chacha20.h"
#include "ev/security/hmac.h"

namespace ev::security {

/// Channel configuration.
struct ChannelConfig {
  std::size_t tag_bytes = 8;      ///< Truncated MAC length (4..32).
  std::size_t counter_bytes = 4;  ///< Freshness counter length on the wire.
  bool encrypt = true;            ///< Encrypt payload with ChaCha20.
};

/// Result of unprotect().
enum class ChannelStatus {
  kOk,
  kBadTag,       ///< Authentication failed (tampered or wrong key).
  kReplayed,     ///< Counter not fresh.
  kMalformed,    ///< Too short to contain header + tag.
};

/// One endpoint of a bidirectional secure channel. Both endpoints derive
/// directional keys from the shared master; the sender counter provides
/// nonce uniqueness and replay protection.
class SecureChannel {
 public:
  /// \p master_key is the pre-shared or session key; \p channel_id binds the
  /// derived keys to this logical channel.
  SecureChannel(Key master_key, std::uint32_t channel_id, ChannelConfig config = {});

  /// Protects \p plaintext into a wire message: counter || ciphertext || tag.
  [[nodiscard]] std::vector<std::uint8_t> protect(std::span<const std::uint8_t> plaintext);

  /// Verifies and decrypts a wire message produced by the peer's protect().
  /// On success returns the plaintext and advances the replay window.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> unprotect(
      std::span<const std::uint8_t> wire, ChannelStatus* status = nullptr);

  /// Bytes added to every message (counter + tag).
  [[nodiscard]] std::size_t overhead_bytes() const noexcept {
    return config_.counter_bytes + config_.tag_bytes;
  }
  /// Largest plaintext that fits a frame of \p frame_payload bytes; nullopt
  /// when the overhead alone exceeds the frame (the CAN case).
  [[nodiscard]] std::optional<std::size_t> max_plaintext(std::size_t frame_payload) const;

  /// Messages rejected so far, by reason.
  [[nodiscard]] std::uint64_t rejected_bad_tag() const noexcept { return bad_tag_; }
  [[nodiscard]] std::uint64_t rejected_replayed() const noexcept { return replayed_; }

 private:
  [[nodiscard]] Digest tag_of(std::uint64_t counter,
                              std::span<const std::uint8_t> ciphertext) const;
  [[nodiscard]] std::vector<std::uint8_t> crypt(std::uint64_t counter,
                                                std::span<const std::uint8_t> data) const;

  ChannelConfig config_;
  Key send_key_;     ///< Both directions share it: the counter is the nonce.
  HmacSha256 mac_;
  std::uint64_t send_counter_ = 0;
  std::uint64_t highest_received_ = 0;
  std::uint64_t bad_tag_ = 0;
  std::uint64_t replayed_ = 0;
};

}  // namespace ev::security
