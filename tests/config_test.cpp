// Unit tests for the dependency-free scenario description: text round
// trips, parser diagnostics, validation, and the deterministic number
// format every exporter shares.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ev/config/scenario.h"
#include "ev/util/rng.h"

namespace {

using namespace ev::config;

ScenarioSpec fully_loaded_spec() {
  ScenarioSpec spec;
  spec.name = "kitchen-sink";
  spec.drive.cycle = CycleKind::kHighway;
  spec.drive.repeat = 3;
  spec.pack.module_count = 6;
  spec.pack.cells_per_module = 10;
  spec.pack.initial_soc = 0.8125;
  spec.pack.soc_spread_sigma = 0.021;
  spec.pack.lfp_chemistry = true;
  spec.bms.balancing = Balancing::kActive;
  spec.bms.initial_soc_estimate = 0.75;
  spec.powertrain.seed = 12345;
  spec.powertrain.aux_power_w = 612.5;
  spec.network.load_scale = 1.5;
  spec.network.can_bit_rate = 250e3;
  spec.network.lin_bit_rate = 9600.0;
  spec.network.flexray_bit_rate = 5e6;
  spec.timing.control_period_s = 0.05;
  spec.timing.bms_publish_period_s = 0.2;
  spec.timing.middleware_frame_us = 10000;
  spec.subsystems.obs = false;
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  spec.fault_seed = 99;
  spec.faults = {
      FaultEventSpec{1.25, FaultKind::kBusDrop, "safety_can", 5.0},
      FaultEventSpec{2.0, FaultKind::kBusCorrupt, "comfort_can", 3.0},
      FaultEventSpec{3.5, FaultKind::kBusOff, "safety_can", 0.02},
      FaultEventSpec{4.0, FaultKind::kBusBabble, "body_lin", 0.5},
      FaultEventSpec{5.0, FaultKind::kPartitionCrash, "information", 0.0},
      FaultEventSpec{6.0, FaultKind::kPartitionHang, "hmi", 4.0},
      FaultEventSpec{7.0, FaultKind::kSensorStuck, "17", 5.5},
      FaultEventSpec{8.0, FaultKind::kBusErrorRate, "safety_can", 312.5},
      FaultEventSpec{9.0, FaultKind::kBusErrorProb, "comfort_can", 0.0225},
  };
  return spec;
}

// fully_loaded_spec with every arch.* list non-empty: every key to_text can
// write, each away from its default, and one fault of each kind.
ScenarioSpec kitchen_sink_spec() {
  ScenarioSpec spec = fully_loaded_spec();
  spec.arch.set_frame_bus(0x010, "comfort_can");
  spec.arch.set_frame_bus(0x203, "comfort_can");
  spec.arch.set_frame_id(0x300, 0x303);
  spec.arch.set_frame_id(0x301, 0x1abcdef);
  spec.arch.set_frame_id(0x303, 0x300);
  spec.arch.set_fr_slot(0x100, 7);
  spec.arch.set_fr_slot(0x107, 0);
  spec.arch.set_partition_windows({{"hmi", 8000}, {"information", 4000}});
  return spec;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(EVSYS_SOURCE_DIR) + "/tests/data/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Full-message assertion: from_text(text) throws exactly \p message.
void expect_parse_error(const std::string& text, const std::string& message) {
  try {
    (void)ScenarioSpec::from_text(text);
    FAIL() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message) << "for " << text;
  }
}

// Full-message assertion: spec.validate() throws exactly \p message.
void expect_validate_error(const ScenarioSpec& spec, const std::string& message) {
  try {
    spec.validate();
    FAIL() << "validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

// ------------------------------------------------------------ round trip ----

TEST(ScenarioText, DefaultSpecRoundTrips) {
  const ScenarioSpec spec;
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
}

TEST(ScenarioText, FullyLoadedSpecRoundTrips) {
  const ScenarioSpec spec = fully_loaded_spec();
  const ScenarioSpec parsed = ScenarioSpec::from_text(spec.to_text());
  EXPECT_EQ(parsed, spec);
  // And the canonical rendering is a fixed point.
  EXPECT_EQ(parsed.to_text(), spec.to_text());
}

// The bytes of to_text are pinned: key order, number forms, frame ids and
// enum names. `evsys print` and `evsys synthesize --out` write these bytes.
TEST(ScenarioText, KitchenSinkMatchesGolden) {
  const ScenarioSpec spec = kitchen_sink_spec();
  spec.validate();
  const std::string golden = read_golden("golden_kitchen_sink.scn");
  EXPECT_EQ(spec.to_text(), golden);
  EXPECT_EQ(ScenarioSpec::from_text(golden), spec);
}

// `evsys template` prints the default spec.
TEST(ScenarioText, TemplateMatchesGolden) {
  EXPECT_EQ(ScenarioSpec{}.to_text(), read_golden("golden_template.scn"));
}

TEST(ScenarioText, AwkwardDoublesRoundTrip) {
  ScenarioSpec spec;
  spec.timing.control_period_s = 0.1;               // not exactly representable
  spec.powertrain.aux_power_w = 1.0 / 3.0;          // needs 17 digits
  spec.network.can_bit_rate = 1e-308;               // near-subnormal
  spec.pack.initial_soc = 0.30000000000000004;      // classic 0.1+0.2
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
}

TEST(ScenarioText, MissingKeysKeepDefaults) {
  const ScenarioSpec spec = ScenarioSpec::from_text("scenario.name = tiny\n");
  ScenarioSpec expected;
  expected.name = "tiny";
  EXPECT_EQ(spec, expected);
}

TEST(ScenarioText, CommentsAndBlankLinesIgnored) {
  const ScenarioSpec spec = ScenarioSpec::from_text(
      "# a comment\n\n  \t\nscenario.name = commented\n# trailing\n");
  EXPECT_EQ(spec.name, "commented");
}

TEST(ScenarioFile, SaveLoadRoundTrips) {
  const ScenarioSpec spec = fully_loaded_spec();
  const std::string path = ::testing::TempDir() + "config_test_roundtrip.scn";
  ASSERT_TRUE(save_scenario_file(spec, path));
  EXPECT_EQ(load_scenario_file(path), spec);
  std::remove(path.c_str());
}

TEST(ScenarioFile, MissingFileThrows) {
  try {
    (void)load_scenario_file("/nonexistent/nowhere.scn");
    FAIL() << "missing file loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "scenario: cannot read '/nonexistent/nowhere.scn'");
  }
}

// ------------------------------------------------------ arch mutations ----

// The synthesizer edits scenarios exclusively through the ArchSpec mutators;
// every mutated spec must survive the text round trip losslessly.
TEST(ScenarioArch, MutatedSpecRoundTripsThroughText) {
  ScenarioSpec spec = fully_loaded_spec();
  spec.arch.set_frame_bus(0x010, "comfort_can");
  spec.arch.set_frame_bus(0x203, "comfort_can");
  spec.arch.set_frame_id(0x300, 0x303);
  spec.arch.set_frame_id(0x303, 0x300);
  spec.arch.set_fr_slot(0x100, 7);
  spec.arch.set_fr_slot(0x107, 0);
  spec.arch.set_partition_windows({{"hmi", 8000}, {"information", 4000}});
  spec.validate();

  const ScenarioSpec parsed = ScenarioSpec::from_text(spec.to_text());
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.to_text(), spec.to_text());
}

TEST(ScenarioArch, MutatorsReplaceAndRemoveEntries) {
  ScenarioSpec spec;
  spec.arch.set_frame_bus(0x010, "comfort_can");
  spec.arch.set_frame_bus(0x010, "safety_can");  // replaces, no duplicate
  ASSERT_EQ(spec.arch.frame_buses.size(), 1u);
  EXPECT_EQ(spec.arch.frame_buses[0].bus, "safety_can");
  spec.arch.clear_frame_bus(0x010);
  EXPECT_TRUE(spec.arch.frame_buses.empty());

  spec.arch.set_frame_id(0x300, 0x310);
  ASSERT_EQ(spec.arch.frame_ids.size(), 1u);
  spec.arch.set_frame_id(0x300, 0x300);  // identity removes the entry
  EXPECT_TRUE(spec.arch.frame_ids.empty());

  spec.arch.set_fr_slot(0x100, 3);
  spec.arch.set_fr_slot(0x100, 5);  // replaces
  ASSERT_EQ(spec.arch.fr_slots.size(), 1u);
  EXPECT_EQ(spec.arch.fr_slots[0].slot, 5u);
  spec.arch.clear_fr_slots();
  EXPECT_TRUE(spec.arch.fr_slots.empty());
  EXPECT_TRUE(spec.arch.empty());
}

TEST(ScenarioArch, MutatorsKeepEntriesSortedForEmission) {
  ScenarioSpec spec;
  spec.arch.set_frame_bus(0x203, "comfort_can");
  spec.arch.set_frame_bus(0x010, "safety_can");
  ASSERT_EQ(spec.arch.frame_buses.size(), 2u);
  EXPECT_LT(spec.arch.frame_buses[0].frame_id, spec.arch.frame_buses[1].frame_id);

  spec.arch.set_frame_id(0x302, 0x011);
  spec.arch.set_frame_id(0x011, 0x302);
  ASSERT_EQ(spec.arch.frame_ids.size(), 2u);
  EXPECT_LT(spec.arch.frame_ids[0].frame_id, spec.arch.frame_ids[1].frame_id);
  spec.validate();  // the swap is a legal permutation
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
}

TEST(ScenarioArch, ValidateRejectsIllFormedOverrides) {
  ScenarioSpec unknown_bus;
  unknown_bus.arch.set_frame_bus(0x010, "hyperloop");
  EXPECT_THROW(unknown_bus.validate(), std::invalid_argument);

  ScenarioSpec duplicate_new_id;
  duplicate_new_id.arch.set_frame_id(0x300, 0x310);
  duplicate_new_id.arch.set_frame_id(0x301, 0x310);  // two frames, one id
  EXPECT_THROW(duplicate_new_id.validate(), std::invalid_argument);

  ScenarioSpec duplicate_slot;
  duplicate_slot.arch.set_fr_slot(0x100, 2);
  duplicate_slot.arch.set_fr_slot(0x101, 2);  // two frames, one slot
  EXPECT_THROW(duplicate_slot.validate(), std::invalid_argument);

  ScenarioSpec bad_partition;
  bad_partition.arch.set_partition_windows({{"hmi", 0}});  // budget < 1
  EXPECT_THROW(bad_partition.validate(), std::invalid_argument);

  ScenarioSpec repeated_partition;
  repeated_partition.arch.set_partition_windows({{"hmi", 100}, {"hmi", 200}});
  EXPECT_THROW(repeated_partition.validate(), std::invalid_argument);
}

TEST(ScenarioArch, WireIdsAreUniquePerBus) {
  ScenarioSpec two_buses;  // comfort 0x300 and safety 0x201 share 0x310
  two_buses.arch.set_frame_id(0x300, 0x310);
  two_buses.arch.set_frame_id(0x201, 0x310);
  EXPECT_EQ(two_buses.arch.bus_of(0x300), 1u);
  EXPECT_EQ(two_buses.arch.bus_of(0x201), 3u);
  EXPECT_NO_THROW(two_buses.validate());

  ScenarioSpec moved_together = two_buses;  // 0x201 now also on comfort CAN
  moved_together.arch.set_frame_bus(0x201, "comfort_can");
  EXPECT_EQ(moved_together.arch.bus_of(0x201), 1u);
  EXPECT_THROW(moved_together.validate(), std::invalid_argument);
}

TEST(ScenarioArch, ArchLinesParseBackFromText) {
  const ScenarioSpec spec = ScenarioSpec::from_text(
      "scenario.name = archy\n"
      "arch.frame_bus.0 = 0x010 comfort_can\n"
      "arch.frame_id.0 = 0x300 0x310\n"
      "arch.fr_slot.0 = 0x100 4\n"
      "arch.partition.0 = hmi 9000\n");
  ASSERT_EQ(spec.arch.frame_buses.size(), 1u);
  EXPECT_EQ(spec.arch.frame_buses[0].frame_id, 0x010u);
  EXPECT_EQ(spec.arch.frame_buses[0].bus, "comfort_can");
  ASSERT_EQ(spec.arch.frame_ids.size(), 1u);
  EXPECT_EQ(spec.arch.frame_ids[0].new_id, 0x310u);
  ASSERT_EQ(spec.arch.fr_slots.size(), 1u);
  EXPECT_EQ(spec.arch.fr_slots[0].slot, 4u);
  ASSERT_EQ(spec.arch.partitions.size(), 1u);
  EXPECT_EQ(spec.arch.partitions[0].partition, "hmi");
  EXPECT_EQ(spec.arch.partitions[0].budget_us, 9000);
}

TEST(ScenarioParser, RejectsMalformedArchLines) {
  expect_parse_error("arch.frame_bus.1 = 0x010 comfort_can\n",
                     "scenario: arch.frame_bus entries must be numbered consecutively "
                     "from 0; got 'arch.frame_bus.1'");
  expect_parse_error("arch.frame_id.1 = 0x300 0x310\n",
                     "scenario: arch.frame_id entries must be numbered consecutively "
                     "from 0; got 'arch.frame_id.1'");
  expect_parse_error("arch.fr_slot.1 = 0x100 4\n",
                     "scenario: arch.fr_slot entries must be numbered consecutively "
                     "from 0; got 'arch.fr_slot.1'");
  expect_parse_error("arch.partition.1 = hmi 9000\n",
                     "scenario: arch.partition entries must be numbered consecutively "
                     "from 0; got 'arch.partition.1'");
  expect_parse_error("arch.frame_bus.0 = 0x010\n",
                     "scenario: 'arch.frame_bus.0' expects '<frame_id> <bus>'");
  expect_parse_error("arch.frame_id.0 = 0x300 0x310 0x320\n",
                     "scenario: 'arch.frame_id.0' expects '<frame_id> <new_id>'");
  expect_parse_error("arch.fr_slot.0 = 0x100\n",
                     "scenario: 'arch.fr_slot.0' expects '<frame_id> <slot>'");
  expect_parse_error("arch.partition.0 = hmi\n",
                     "scenario: 'arch.partition.0' expects '<partition> <budget_us>'");
  expect_parse_error("arch.frame_bus.x = 0x010 comfort_can\n",
                     "scenario: 'arch.frame_bus.x' expects a non-negative integer, got 'x'");
  expect_parse_error("arch.fr_slot.0 = 0x100 -4\n",
                     "scenario: 'arch.fr_slot.0' expects a non-negative integer, got '-4'");
  expect_parse_error("arch.partition.0 = hmi 9e3\n",
                     "scenario: 'arch.partition.0' expects an integer, got '9e3'");
}

// ----------------------------------------------------------------- parser ----

TEST(ScenarioParser, RejectsUnknownKey) {
  expect_parse_error("pack.modles = 4\n", "scenario: unknown key 'pack.modles'");
  // A list prefix without the dot names no list.
  expect_parse_error("fault = 2 bus.drop safety_can 1\n", "scenario: unknown key 'fault'");
}

TEST(ScenarioParser, RejectsLineWithoutEquals) {
  expect_parse_error("just some words\n",
                     "scenario: expected 'key = value', got 'just some words'");
}

TEST(ScenarioParser, RejectsBadEnumValues) {
  expect_parse_error("drive.cycle = offroad\n", "scenario: unknown drive cycle 'offroad'");
  expect_parse_error("bms.balancing = magic\n",
                     "scenario: unknown balancing policy 'magic'");
  expect_parse_error("subsystems.obs = maybe\n",
                     "scenario: 'subsystems.obs' expects true or false, got 'maybe'");
}

TEST(ScenarioParser, RejectsNonNumericScalars) {
  expect_parse_error("pack.initial_soc = high\n",
                     "scenario: 'pack.initial_soc' expects a number, got 'high'");
  expect_parse_error("powertrain.seed = -3\n",
                     "scenario: 'powertrain.seed' expects a non-negative integer, got '-3'");
  expect_parse_error("timing.middleware_frame_us = 2.5\n",
                     "scenario: 'timing.middleware_frame_us' expects an integer, got '2.5'");
}

// Substring assertion helper for parser diagnostics.
void expect_parse_rejects(const std::string& line, const std::string& needle) {
  try {
    (void)ScenarioSpec::from_text(line);
    FAIL() << "accepted: " << line;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "for " << line << " got: " << e.what();
  }
}

TEST(ScenarioParser, RejectsOutOfRangeScalars) {
  // strtod/strtoull saturate on ERANGE (1e999 → inf, 20-digit integers →
  // ULLONG_MAX); the parser must fail typed instead of accepting the clamp.
  expect_parse_rejects("powertrain.aux_power_w = 1e999\n", "out of range");
  expect_parse_rejects("powertrain.aux_power_w = -1e999\n", "out of range");
  expect_parse_rejects("pack.initial_soc = 1e999\n", "out of range");
  // Total underflow to zero is also a silent value change.
  expect_parse_rejects("powertrain.aux_power_w = 1e-999\n", "out of range");
  // u64 overflow (> 2^64 - 1) and i64 overflow (> 2^63 - 1).
  expect_parse_rejects("drive.repeat = 99999999999999999999\n", "out of range");
  expect_parse_rejects("powertrain.seed = 99999999999999999999\n", "out of range");
  expect_parse_rejects("timing.middleware_frame_us = 99999999999999999999\n",
                       "out of range");
  expect_parse_rejects("timing.middleware_frame_us = -99999999999999999999\n",
                       "out of range");
  expect_parse_error("powertrain.aux_power_w = 1e999\n",
                     "scenario: 'powertrain.aux_power_w' value out of range: '1e999'");
}

TEST(ScenarioParser, RejectsNonFiniteDoubles) {
  // inf/nan would leak through every range check in validate(); to_text can
  // never emit them, so the grammar rejects them outright.
  expect_parse_rejects("powertrain.aux_power_w = inf\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = -inf\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = nan\n", "expects a number");
  expect_parse_rejects("network.load_scale = nan\n", "expects a number");
}

TEST(ScenarioParser, RejectsGrammarBeyondWhatToTextEmits) {
  // format_double never produces a leading '+', hex floats, a bare '.',
  // or embedded whitespace — accepting them would make round trips lossy.
  expect_parse_rejects("powertrain.aux_power_w = +1.5\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = 0x1p3\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = 1.\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = .5\n", "expects a number");
  expect_parse_rejects("powertrain.aux_power_w = 1e\n", "expects a number");
  expect_parse_rejects("drive.repeat = +3\n", "non-negative integer");
  expect_parse_rejects("drive.repeat = 0x10\n", "non-negative integer");
  expect_parse_rejects("drive.repeat = 3.0\n", "non-negative integer");
  expect_parse_rejects("timing.middleware_frame_us = +20000\n", "integer");
  // Frame ids: `0x` and hex digits, at most 29 bits.
  expect_parse_error("arch.frame_bus.0 = 010 comfort_can\n",
                     "scenario: 'arch.frame_bus.0' expects a 0x-prefixed frame id, got '010'");
  expect_parse_error("arch.frame_id.0 = 0x300 0x20000000\n",
                     "scenario: 'arch.frame_id.0' expects a 0x-prefixed frame id, got "
                     "'0x20000000'");
  expect_parse_error("arch.fr_slot.0 = 0x 4\n",
                     "scenario: 'arch.fr_slot.0' expects a 0x-prefixed frame id, got '0x'");
  expect_parse_error("arch.frame_bus.0 = 0x01g comfort_can\n",
                     "scenario: 'arch.frame_bus.0' expects a 0x-prefixed frame id, got '0x01g'");
  // strtoul would read a sign or a second 0x after the prefix; to_text
  // writes neither.
  expect_parse_error("arch.frame_bus.0 = 0x+10 comfort_can\n",
                     "scenario: 'arch.frame_bus.0' expects a 0x-prefixed frame id, got '0x+10'");
  expect_parse_error("arch.fr_slot.0 = 0x-0 1\n",
                     "scenario: 'arch.fr_slot.0' expects a 0x-prefixed frame id, got '0x-0'");
  expect_parse_error("arch.frame_id.0 = 0x300 0x0x10\n",
                     "scenario: 'arch.frame_id.0' expects a 0x-prefixed frame id, got "
                     "'0x0x10'");
  // The exponent form to_text does emit (e.g. 5e+05) still parses.
  ScenarioSpec spec = ScenarioSpec::from_text("network.can_bit_rate = 5e+05\n");
  EXPECT_EQ(spec.network.can_bit_rate, 500e3);
  spec = ScenarioSpec::from_text("network.can_bit_rate = 2.5E5\n");
  EXPECT_EQ(spec.network.can_bit_rate, 250e3);
}

TEST(ScenarioParser, RejectsEmptyValue) {
  expect_parse_error("drive.repeat =\n", "scenario: empty key or value in 'drive.repeat ='");
  expect_parse_error("= 3\n", "scenario: empty key or value in '= 3'");
}

TEST(ScenarioValidate, RejectsNonFiniteFields) {
  // Programmatic specs can hold inf/nan without going through the parser;
  // validate() must close the same hole (NaN passes every `< lo || > hi`
  // range check, +inf passes one-sided lower bounds).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScenarioSpec spec;
  spec.pack.initial_soc = nan;
  expect_validate_error(spec, "scenario: pack.initial_soc must be finite");
  spec = ScenarioSpec{};
  spec.powertrain.aux_power_w = inf;
  expect_validate_error(spec, "scenario: powertrain.aux_power_w must be finite");
  spec = ScenarioSpec{};  // the first non-finite field in text order is named
  spec.timing.bms_publish_period_s = nan;
  spec.network.flexray_bit_rate = -inf;
  expect_validate_error(spec, "scenario: network.flexray_bit_rate must be finite");
  spec = ScenarioSpec{};
  spec.network.load_scale = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.pack.soc_spread_sigma = inf;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.timing.control_period_s = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.faults.push_back({nan, FaultKind::kBusDrop, "safety_can", 2.0});
  spec.subsystems.faults = true;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.faults.push_back({1.0, FaultKind::kBusDrop, "safety_can", nan});
  spec.subsystems.faults = true;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioParser, RejectsDuplicateKeys) {
  // Last-wins would silently accept two contradictory lines; the parser
  // rejects the ambiguity instead, naming the repeated key.
  try {
    (void)ScenarioSpec::from_text(
        "drive.repeat = 2\n"
        "pack.module_count = 4\n"
        "drive.repeat = 3\n");
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "scenario: duplicate key 'drive.repeat'");
  }
  // Repeating the same value is still a duplicate — the format is one line
  // per key by construction (to_text never emits two).
  EXPECT_THROW((void)ScenarioSpec::from_text(
                   "scenario.name = a\n"
                   "scenario.name = a\n"),
               std::invalid_argument);
}

TEST(ScenarioParser, RejectsMalformedFaultLines) {
  // Wrong field count.
  expect_parse_error("fault.0 = 2 bus.drop safety_can\n",
                     "scenario: 'fault.0' expects '<at_s> <kind> <target> <value>'");
  // Unknown kind.
  expect_parse_error("fault.0 = 2 bus.melt safety_can 1\n",
                     "scenario: unknown fault kind 'bus.melt'");
  expect_parse_error("fault.0 = soon bus.drop safety_can 1\n",
                     "scenario: 'fault.0' expects a number, got 'soon'");
  // Numbering must start at 0 and be consecutive.
  expect_parse_error("fault.1 = 2 bus.drop safety_can 1\n",
                     "scenario: fault entries must be numbered consecutively from 0; "
                     "got 'fault.1'");
  expect_parse_error("fault.0 = 2 bus.drop safety_can 1\nfault.0 = 3 bus.drop safety_can 1\n",
                     "scenario: duplicate key 'fault.0'");
  EXPECT_THROW((void)ScenarioSpec::from_text(
                   "fault.0 = 2 bus.drop safety_can 1\n"
                   "fault.2 = 3 bus.drop safety_can 1\n"),
               std::invalid_argument);
}

// ------------------------------------------------------------- validation ----

TEST(ScenarioValidate, ErrorModelFaultsRoundTripAndParse) {
  const ScenarioSpec spec = ScenarioSpec::from_text(
      "fault.0 = 1 bus.error_rate safety_can 250\n"
      "fault.1 = 2.5 bus.error_prob comfort_can 0.03125\n");
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0].kind, FaultKind::kBusErrorRate);
  EXPECT_EQ(spec.faults[0].target, "safety_can");
  EXPECT_EQ(spec.faults[0].value, 250.0);
  EXPECT_EQ(spec.faults[1].kind, FaultKind::kBusErrorProb);
  EXPECT_EQ(spec.faults[1].value, 0.03125);
  EXPECT_EQ(ScenarioSpec::from_text(spec.to_text()), spec);
  EXPECT_EQ(to_string(FaultKind::kBusErrorRate), "bus.error_rate");
  EXPECT_EQ(to_string(FaultKind::kBusErrorProb), "bus.error_prob");
}

TEST(ScenarioValidate, RejectsOutOfRangeErrorModelParameters) {
  const auto with_fault = [](FaultKind kind, double value) {
    ScenarioSpec spec;
    spec.faults = {FaultEventSpec{0.0, kind, "safety_can", value}};
    return spec;
  };
  // Negative, infinite, and NaN rates are all typed config errors.
  EXPECT_THROW(with_fault(FaultKind::kBusErrorRate, -1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(with_fault(FaultKind::kBusErrorRate,
                          std::numeric_limits<double>::infinity())
                   .validate(),
               std::invalid_argument);
  EXPECT_THROW(with_fault(FaultKind::kBusErrorRate,
                          std::numeric_limits<double>::quiet_NaN())
                   .validate(),
               std::invalid_argument);
  // Probabilities live in [0, 1]; NaN fails the range check too.
  EXPECT_THROW(with_fault(FaultKind::kBusErrorProb, -0.1).validate(),
               std::invalid_argument);
  EXPECT_THROW(with_fault(FaultKind::kBusErrorProb, 1.0001).validate(),
               std::invalid_argument);
  EXPECT_THROW(with_fault(FaultKind::kBusErrorProb,
                          std::numeric_limits<double>::quiet_NaN())
                   .validate(),
               std::invalid_argument);
  // The closed boundaries are valid: rate 0 and the probability endpoints.
  EXPECT_NO_THROW(with_fault(FaultKind::kBusErrorRate, 0.0).validate());
  EXPECT_NO_THROW(with_fault(FaultKind::kBusErrorProb, 0.0).validate());
  EXPECT_NO_THROW(with_fault(FaultKind::kBusErrorProb, 1.0).validate());
}

TEST(ScenarioValidate, RejectsBadTiming) {
  ScenarioSpec spec;
  spec.timing.control_period_s = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.timing.bms_publish_period_s = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.timing.middleware_frame_us = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsOutOfRangeSocAndCounts) {
  ScenarioSpec spec;
  spec.pack.initial_soc = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.drive.repeat = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.pack.module_count = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.name = "has a space";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsIllFormedFaultEvents) {
  ScenarioSpec spec;
  spec.faults.push_back(FaultEventSpec{-1.0, FaultKind::kBusDrop, "safety_can", 1.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.faults = {FaultEventSpec{1.0, FaultKind::kBusDrop, "", 1.0}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.faults = {FaultEventSpec{1.0, FaultKind::kBusDrop, "safety_can", 0.0}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.faults = {FaultEventSpec{1.0, FaultKind::kBusOff, "safety_can", 0.0}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // A well-formed event passes.
  spec.faults = {FaultEventSpec{1.0, FaultKind::kBusOff, "safety_can", 0.01}};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioValidate, FromTextValidatesResult) {
  EXPECT_THROW((void)ScenarioSpec::from_text("drive.repeat = 0\n"),
               std::invalid_argument);
}

// ---------------------------------------------------------- format_double ----

TEST(FormatDouble, ShortestRoundTrippableForm) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(-2.5), "-2.5");
  for (const double v : {0.1, 1.0 / 3.0, 3.141592653589793, 1e-308, 450.0,
                         0.30000000000000004, -7.25e9}) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v);
  }
}

// The precision search format_double used to run: "%.*g" for p = 1..17 until
// strtod reads the value back. Kept here as the oracle of the faster search.
std::string format_double_by_precision_search(double value) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

TEST(FormatDouble, MatchesPrecisionSearch) {
  using limits = std::numeric_limits<double>;
  std::size_t checked = 0;
  const auto expect_same = [&](double v) {
    ++checked;
    EXPECT_EQ(format_double(v), format_double_by_precision_search(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  };
  // v and its two neighbours, with either sign.
  const auto expect_around = [&](double v) {
    for (const double u : {std::nextafter(v, -limits::infinity()), v,
                           std::nextafter(v, limits::infinity())}) {
      expect_same(u);
      expect_same(-u);
    }
  };

  for (const double v : {0.0, limits::infinity(), limits::quiet_NaN(), limits::min(),
                         limits::max(), limits::denorm_min()}) {
    expect_same(v);
    expect_same(-v);
  }
  for (int e = -1074; e <= 1023; ++e) expect_around(std::ldexp(1.0, e));
  for (int n = -323; n <= 308; ++n) {
    const std::string text = "1e" + std::to_string(n);
    expect_around(std::strtod(text.c_str(), nullptr));
  }
  // Integers past 2^53, where the shortest form and "%g" differ most: a run
  // of consecutive doubles after each power of two, and random ones.
  ev::util::Rng rng(19);
  for (int e = 53; e < 60; ++e) {
    double v = std::ldexp(1.0, e);
    for (int i = 0; i < 1000; ++i, v = std::nextafter(v, limits::infinity())) expect_same(v);
  }
  for (int i = 0; i < 20000; ++i)
    expect_same(static_cast<double>(rng.uniform_int(std::int64_t{1} << 53, std::int64_t{1} << 60)));
  for (int i = 0; i < 200000; ++i) expect_same(std::bit_cast<double>(rng.next_u64()));
  EXPECT_GT(checked, 240000U);
}

}  // namespace
