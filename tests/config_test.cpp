// Unit tests for the dependency-free scenario description: text round
// trips, parser diagnostics, validation, and the deterministic number
// format every exporter shares.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "ev/config/scenario.h"

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
  EXPECT_THROW((void)load_scenario_file("/nonexistent/nowhere.scn"),
               std::invalid_argument);
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

// ----------------------------------------------------------------- parser ----

TEST(ScenarioParser, RejectsUnknownKey) {
  EXPECT_THROW((void)ScenarioSpec::from_text("pack.modles = 4\n"),
               std::invalid_argument);
}

TEST(ScenarioParser, RejectsLineWithoutEquals) {
  EXPECT_THROW((void)ScenarioSpec::from_text("just some words\n"),
               std::invalid_argument);
}

TEST(ScenarioParser, RejectsBadEnumValues) {
  EXPECT_THROW((void)ScenarioSpec::from_text("drive.cycle = offroad\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_text("bms.balancing = magic\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_text("subsystems.obs = maybe\n"),
               std::invalid_argument);
}

TEST(ScenarioParser, RejectsNonNumericScalars) {
  EXPECT_THROW((void)ScenarioSpec::from_text("pack.initial_soc = high\n"),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::from_text("powertrain.seed = -3\n"),
               std::invalid_argument);
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
  // The exponent form to_text does emit (e.g. 5e+05) still parses.
  ScenarioSpec spec = ScenarioSpec::from_text("network.can_bit_rate = 5e+05\n");
  EXPECT_EQ(spec.network.can_bit_rate, 500e3);
  spec = ScenarioSpec::from_text("network.can_bit_rate = 2.5E5\n");
  EXPECT_EQ(spec.network.can_bit_rate, 250e3);
}

TEST(ScenarioParser, RejectsEmptyValue) {
  expect_parse_rejects("drive.repeat =\n", "empty");
  expect_parse_rejects("= 3\n", "empty");
}

TEST(ScenarioValidate, RejectsNonFiniteFields) {
  // Programmatic specs can hold inf/nan without going through the parser;
  // validate() must close the same hole (NaN passes every `< lo || > hi`
  // range check, +inf passes one-sided lower bounds).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScenarioSpec spec;
  spec.pack.initial_soc = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.powertrain.aux_power_w = inf;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
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
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("drive.repeat"), std::string::npos);
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
  EXPECT_THROW((void)ScenarioSpec::from_text("fault.0 = 2 bus.drop safety_can\n"),
               std::invalid_argument);
  // Unknown kind.
  EXPECT_THROW(
      (void)ScenarioSpec::from_text("fault.0 = 2 bus.melt safety_can 1\n"),
      std::invalid_argument);
  // Numbering must start at 0 and be consecutive.
  EXPECT_THROW((void)ScenarioSpec::from_text("fault.1 = 2 bus.drop safety_can 1\n"),
               std::invalid_argument);
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

}  // namespace
