// Unit tests for the security layer: SHA-256 and HMAC against published
// test vectors, ChaCha20 against RFC 8439, the authenticated secure channel,
// and the charging-session attack/defence matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "ev/security/chacha20.h"
#include "ev/security/charging.h"
#include "ev/security/hmac.h"
#include "ev/security/secure_channel.h"
#include "ev/security/sha256.h"
#include "ev/util/rng.h"

namespace {

using namespace ev::security;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string hex_of(std::span<const std::uint8_t> data) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : data) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

// -------------------------------------------------------------- SHA-256 ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const auto msg = bytes_of("abc");
  EXPECT_EQ(hex_of(Sha256::hash(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const auto msg = bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_of(Sha256::hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto msg = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); i += 7)
    h.update(std::span<const std::uint8_t>(msg.data() + i, std::min<std::size_t>(7, msg.size() - i)));
  EXPECT_EQ(hex_of(h.finish()), hex_of(Sha256::hash(msg)));
}

// Digests at the padding boundaries: 55 bytes is the longest message whose
// 0x80 and length fit its last block, 56..63 spill the length into an extra
// block, 64/119/120 repeat that one block later. Expected values from
// python3 hashlib over bytes (31 * k + n) mod 256, k < n.
TEST(Sha256, PaddingBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "0c74b286e2c8b409ed0fd89f5a8344aeb274bda5d9bfbe7b8e537cfc6142736d"},
      {56, "8136496fb4867a08f8c0f1afaf000ef4093ecc2d544f4f808ef9d5945ca4c2fa"},
      {63, "a7c6fa71b10f6f7bd8ce26f79db5693d265b2cde42e61955077e77c8764bc26f"},
      {64, "3ea97ec766b8247739939247b4d4cb362cf13c100deb0cc2ba5391f762023852"},
      {119, "6cf3e40eee6bd154b923dbbe0b421de7934af82282113dd285bb895e4bb3f8f7"},
      {120, "696e486e83239a511feef5f0b438da322fa51490489668162c6ed9a9c6ad8055"},
  };
  for (const auto& [n, expected] : cases) {
    std::vector<std::uint8_t> msg(n);
    for (std::size_t k = 0; k < n; ++k) msg[k] = static_cast<std::uint8_t>(31 * k + n);
    EXPECT_EQ(hex_of(Sha256::hash(msg)), expected) << n << " bytes";
  }
}

// ----------------------------------------------------------------- HMAC ----

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto msg = bytes_of("Hi There");
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto key = bytes_of("Jefe");
  const auto msg = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// HMAC written out as RFC 2104 defines it, pads hashed per message: the
// oracle for the keyed midstates.
Digest textbook_hmac(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > k.size()) {
    const Digest d = Sha256::hash(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::vector<std::uint8_t> inner_input;
  for (std::uint8_t b : k) inner_input.push_back(static_cast<std::uint8_t>(b ^ 0x36));
  inner_input.insert(inner_input.end(), msg.begin(), msg.end());
  const Digest inner = Sha256::hash(inner_input);
  std::vector<std::uint8_t> outer_input;
  for (std::uint8_t b : k) outer_input.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  outer_input.insert(outer_input.end(), inner.begin(), inner.end());
  return Sha256::hash(outer_input);
}

std::vector<std::uint8_t> random_bytes(ev::util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Hmac, MidstatesMatchTextbookOverRandomKeysAndMessages) {
  ev::util::Rng rng(2104);
  for (int trial = 0; trial < 300; ++trial) {
    const Key key = random_bytes(rng, rng.next_u64() % 150);  // short, block, long
    const std::vector<std::uint8_t> msg = random_bytes(rng, rng.next_u64() % 200);
    const HmacSha256 keyed(key);
    const Digest expected = textbook_hmac(key, msg);
    ASSERT_EQ(hmac_sha256(key, msg), expected) << "trial " << trial;
    ASSERT_EQ(keyed.mac(msg), expected) << "trial " << trial;
    // The same midstates serve any number of messages, fed in any split.
    Sha256 inner = keyed.begin();
    const std::size_t cut = msg.empty() ? 0 : rng.next_u64() % msg.size();
    inner.update(std::span<const std::uint8_t>(msg.data(), cut));
    inner.update(std::span<const std::uint8_t>(msg.data() + cut, msg.size() - cut));
    ASSERT_EQ(keyed.finish(inner), expected) << "trial " << trial;
  }
}

TEST(ConstantTime, EqualAndUnequal) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 3};
  const std::vector<std::uint8_t> c{1, 2, 4};
  const std::vector<std::uint8_t> d{1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

TEST(DeriveKey, ContextSeparation) {
  const auto master = bytes_of("master-secret-material");
  const Key k1 = derive_key(master, bytes_of("enc"));
  const Key k2 = derive_key(master, bytes_of("mac"));
  EXPECT_EQ(k1.size(), 32u);
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, derive_key(master, bytes_of("enc")));  // deterministic
  EXPECT_EQ(derive_key(master, bytes_of("enc"), 16).size(), 16u);
  EXPECT_THROW(derive_key(master, bytes_of("x"), 64), std::invalid_argument);
}

// -------------------------------------------------------------- ChaCha20 ----

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 section 2.4.2 test vector.
  std::vector<std::uint8_t> key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::vector<std::uint8_t> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ChaCha20 cipher(key, nonce, 1);
  const auto ct = cipher.transform(plaintext);
  EXPECT_EQ(hex_of(std::span<const std::uint8_t>(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(ct.size(), plaintext.size());
}

TEST(ChaCha20, RoundTrip) {
  std::vector<std::uint8_t> key(32, 7);
  std::vector<std::uint8_t> nonce(12, 9);
  const auto msg = bytes_of("attack at dawn");
  ChaCha20 enc(key, nonce);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.transform(enc.transform(msg)), msg);
}

TEST(ChaCha20, RejectsBadKeyOrNonce) {
  std::vector<std::uint8_t> short_key(16);
  std::vector<std::uint8_t> nonce(12);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  std::vector<std::uint8_t> key(32);
  std::vector<std::uint8_t> short_nonce(8);
  EXPECT_THROW(ChaCha20(key, short_nonce), std::invalid_argument);
}

// --------------------------------------------------------- secure channel ----

Key test_key() { return bytes_of("a-32-byte-long-pre-shared-key!!!"); }

TEST(SecureChannel, RoundTrip) {
  SecureChannel sender(test_key(), 1);
  SecureChannel receiver(test_key(), 1);
  const auto msg = bytes_of("torque=120Nm");
  const auto wire = sender.protect(msg);
  EXPECT_EQ(wire.size(), msg.size() + sender.overhead_bytes());
  ChannelStatus status;
  const auto plain = receiver.unprotect(wire, &status);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(status, ChannelStatus::kOk);
  EXPECT_EQ(*plain, msg);
}

TEST(SecureChannel, DetectsTampering) {
  SecureChannel sender(test_key(), 1);
  SecureChannel receiver(test_key(), 1);
  auto wire = sender.protect(bytes_of("brake=0.4"));
  wire[6] ^= 0x01;  // flip one ciphertext bit
  ChannelStatus status;
  EXPECT_FALSE(receiver.unprotect(wire, &status).has_value());
  EXPECT_EQ(status, ChannelStatus::kBadTag);
  EXPECT_EQ(receiver.rejected_bad_tag(), 1u);
}

TEST(SecureChannel, RejectsReplay) {
  SecureChannel sender(test_key(), 1);
  SecureChannel receiver(test_key(), 1);
  const auto wire = sender.protect(bytes_of("unlock"));
  ASSERT_TRUE(receiver.unprotect(wire).has_value());
  ChannelStatus status;
  EXPECT_FALSE(receiver.unprotect(wire, &status).has_value());
  EXPECT_EQ(status, ChannelStatus::kReplayed);
}

TEST(SecureChannel, WrongKeyFails) {
  SecureChannel sender(test_key(), 1);
  SecureChannel receiver(bytes_of("completely-different-key-here!!!"), 1);
  const auto wire = sender.protect(bytes_of("hello"));
  ChannelStatus status;
  EXPECT_FALSE(receiver.unprotect(wire, &status).has_value());
  EXPECT_EQ(status, ChannelStatus::kBadTag);
}

TEST(SecureChannel, ChannelIdSeparatesKeys) {
  SecureChannel sender(test_key(), 1);
  SecureChannel receiver(test_key(), 2);  // different logical channel
  const auto wire = sender.protect(bytes_of("hello"));
  EXPECT_FALSE(receiver.unprotect(wire).has_value());
}

TEST(SecureChannel, MalformedTooShort) {
  SecureChannel receiver(test_key(), 1);
  ChannelStatus status;
  EXPECT_FALSE(receiver.unprotect(std::vector<std::uint8_t>{1, 2, 3}, &status).has_value());
  EXPECT_EQ(status, ChannelStatus::kMalformed);
}

TEST(SecureChannel, CanPayloadCannotCarryProtectedMessage) {
  // The paper's point: 8-byte CAN payloads cannot even hold the counter +
  // truncated tag, let alone data.
  SecureChannel ch(test_key(), 1);
  EXPECT_FALSE(ch.max_plaintext(8).has_value());
  // Ethernet payloads fit comfortably.
  const auto eth = ch.max_plaintext(1500);
  ASSERT_TRUE(eth.has_value());
  EXPECT_GT(*eth, 1400u);
}

TEST(SecureChannel, UnencryptedModeStillAuthenticated) {
  ChannelConfig cfg;
  cfg.encrypt = false;
  SecureChannel sender(test_key(), 1, cfg);
  SecureChannel receiver(test_key(), 1, cfg);
  const auto msg = bytes_of("soc=55%");
  auto wire = sender.protect(msg);
  // Plaintext is visible on the wire...
  EXPECT_NE(std::search(wire.begin(), wire.end(), msg.begin(), msg.end()), wire.end());
  // ...but tampering is still detected.
  wire[5] ^= 1;
  EXPECT_FALSE(receiver.unprotect(wire).has_value());
}

// The wire tag is HMAC(mac key, counter LE64 || ciphertext), truncated.
TEST(SecureChannel, TagIsHmacOfCounterAndCiphertext) {
  ev::util::Rng rng(4231);
  for (int trial = 0; trial < 50; ++trial) {
    const Key master = random_bytes(rng, 32);
    const auto channel_id = static_cast<std::uint32_t>(rng.next_u64());
    ChannelConfig cfg;
    cfg.encrypt = false;
    cfg.tag_bytes = 4 + rng.next_u64() % 29;
    SecureChannel sender(master, channel_id, cfg);
    const std::vector<std::uint8_t> mac_context = {
        'm', 'a', 'c', static_cast<std::uint8_t>(channel_id >> 24),
        static_cast<std::uint8_t>(channel_id >> 16), static_cast<std::uint8_t>(channel_id >> 8),
        static_cast<std::uint8_t>(channel_id)};
    const Key mac_key = derive_key(master, mac_context);
    for (std::uint64_t counter = 1; counter <= 3; ++counter) {
      const std::vector<std::uint8_t> msg = random_bytes(rng, rng.next_u64() % 120);
      const std::vector<std::uint8_t> wire = sender.protect(msg);
      std::vector<std::uint8_t> mac_input(8);
      for (std::size_t i = 0; i < 8; ++i)
        mac_input[i] = static_cast<std::uint8_t>(counter >> (8 * i));
      mac_input.insert(mac_input.end(), msg.begin(), msg.end());
      const Digest tag = hmac_sha256(mac_key, mac_input);
      ASSERT_EQ(wire.size(), cfg.counter_bytes + msg.size() + cfg.tag_bytes);
      EXPECT_TRUE(std::equal(wire.end() - static_cast<std::ptrdiff_t>(cfg.tag_bytes),
                             wire.end(), tag.begin()))
          << "trial " << trial << " counter " << counter;
    }
  }
}

TEST(SecureChannel, ValidatesConfig) {
  EXPECT_THROW(SecureChannel(test_key(), 1, ChannelConfig{2, 4, true}),
               std::invalid_argument);
  EXPECT_THROW(SecureChannel(test_key(), 1, ChannelConfig{8, 1, true}),
               std::invalid_argument);
}

// --------------------------------------------------------------- charging ----

struct ChargingCase {
  MitmAttacker::Attack attack;
  bool authenticate;
  bool expect_fraud;  // billed != delivered or V2G accepted
  // gtest names each case by its raw bytes; an explicit zeroed tail instead
  // of padding keeps those names independent of stack contents.
  std::uint16_t reserved = 0;
};
static_assert(std::has_unique_object_representations_v<ChargingCase>,
              "ChargingCase must have no padding bytes");

class ChargingMatrix : public ::testing::TestWithParam<ChargingCase> {};

TEST_P(ChargingMatrix, AttackOutcomeMatchesDefence) {
  const ChargingCase c = GetParam();
  ev::util::Rng rng(61);
  MitmAttacker attacker(c.attack);
  ChargingConfig cfg;
  cfg.authenticate = c.authenticate;
  const Key credential = bytes_of("vehicle-provisioned-credential-k");
  const SessionOutcome out =
      run_charging_session(credential, cfg, attacker, 11.0, 600.0, rng);
  ASSERT_TRUE(out.completed);
  // Fraud = the attacker gained something: inflated billing or an accepted
  // forged command. (Under authentication a tampering attacker can still
  // deny service — billed < delivered — which is detected, not fraud.)
  const bool fraud = out.billed_kwh > out.delivered_kwh + 1e-9 ||
                     out.accepted_v2g_commands > 0;
  EXPECT_EQ(fraud, c.expect_fraud)
      << "billed=" << out.billed_kwh << " delivered=" << out.delivered_kwh
      << " v2g=" << out.accepted_v2g_commands;
  if (c.authenticate && c.attack != MitmAttacker::Attack::kNone) {
    EXPECT_GT(out.rejected_messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AttackDefenceMatrix, ChargingMatrix,
    ::testing::Values(
        ChargingCase{MitmAttacker::Attack::kNone, false, false},
        ChargingCase{MitmAttacker::Attack::kNone, true, false},
        ChargingCase{MitmAttacker::Attack::kInflateBilling, false, true},
        ChargingCase{MitmAttacker::Attack::kInflateBilling, true, false},
        ChargingCase{MitmAttacker::Attack::kInjectV2g, false, true},
        ChargingCase{MitmAttacker::Attack::kInjectV2g, true, false},
        ChargingCase{MitmAttacker::Attack::kReplayMeter, false, true},
        ChargingCase{MitmAttacker::Attack::kReplayMeter, true, false}));

TEST(Charging, AuthenticatedSessionBillsExactly) {
  ev::util::Rng rng(63);
  MitmAttacker none(MitmAttacker::Attack::kNone);
  ChargingConfig cfg;
  const SessionOutcome out =
      run_charging_session(bytes_of("credential"), cfg, none, 22.0, 3600.0, rng);
  EXPECT_TRUE(out.authenticated);
  EXPECT_NEAR(out.billed_kwh, 22.0, 1e-6);
  EXPECT_NEAR(out.delivered_kwh, 22.0, 1e-6);
}

TEST(Charging, InflationTriplesUnprotectedBill) {
  ev::util::Rng rng(65);
  MitmAttacker attacker(MitmAttacker::Attack::kInflateBilling);
  ChargingConfig cfg;
  cfg.authenticate = false;
  const SessionOutcome out =
      run_charging_session(bytes_of("credential"), cfg, attacker, 10.0, 600.0, rng);
  EXPECT_NEAR(out.billed_kwh, 3.0 * out.delivered_kwh, 1e-9);
  EXPECT_GT(attacker.tampered(), 0u);
}

}  // namespace
