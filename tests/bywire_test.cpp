// Unit tests for the drive-by-wire redundancy layer: voting, fault
// injection, diversity vs identical replication, and the brake-mission
// simulation.
#include <gtest/gtest.h>

#include "ev/bywire/brake_system.h"
#include "ev/bywire/redundancy.h"
#include "ev/util/rng.h"

namespace {

using namespace ev::bywire;

RedundantChannelSet healthy_triplex() {
  return make_diverse_redundancy(3, 0.0, 0.0);
}

TEST(Redundancy, HealthyChannelsAgree) {
  ev::util::Rng rng(1);
  RedundantChannelSet set = healthy_triplex();
  const VoteResult r = set.actuate(0.42, rng);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.undetected_wrong);
  EXPECT_DOUBLE_EQ(r.output, 0.42);
  EXPECT_EQ(r.disagreeing, 0u);
}

TEST(Redundancy, SingleFaultMaskedByTriplex) {
  ev::util::Rng rng(2);
  RedundantChannelSet set = healthy_triplex();
  set.inject_random_fault(1);
  const VoteResult r = set.actuate(0.5, rng);
  EXPECT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.output, 0.5);  // majority of healthy channels wins
  EXPECT_EQ(r.disagreeing, 1u);
  EXPECT_FALSE(r.undetected_wrong);
}

TEST(Redundancy, DoubleFaultOutcomeDependsOnDiversity) {
  // Identical replicas fail with the SAME wrong value: two faulted copies
  // outvote the healthy one — dangerous.
  ev::util::Rng rng(3);
  RedundantChannelSet identical = make_identical_redundancy(3, 0.0, 0.0);
  identical.inject_random_fault(0);
  identical.inject_random_fault(2);
  EXPECT_TRUE(identical.actuate(0.5, rng).undetected_wrong);

  // Diverse replicas fail with DIFFERENT wrong values: no two channels
  // agree, so the voter reports loss of function instead of a wrong value.
  RedundantChannelSet diverse = healthy_triplex();
  diverse.inject_random_fault(0);
  diverse.inject_random_fault(2);
  const VoteResult r = diverse.actuate(0.5, rng);
  EXPECT_FALSE(r.valid);
  EXPECT_FALSE(r.undetected_wrong);
}

TEST(Redundancy, SystematicFaultKillsIdenticalReplicas) {
  ev::util::Rng rng(4);
  RedundantChannelSet identical = make_identical_redundancy(3, 0.0, 0.0);
  identical.inject_systematic_fault(0);  // the one shared implementation
  const VoteResult r = identical.actuate(0.6, rng);
  // Every replica fails together; the vote is unanimous and WRONG.
  EXPECT_TRUE(r.undetected_wrong);

  ev::util::Rng rng2(4);
  RedundantChannelSet diverse = make_diverse_redundancy(3, 0.0, 0.0);
  diverse.inject_systematic_fault(0);  // only one of three implementations
  const VoteResult rd = diverse.actuate(0.6, rng2);
  EXPECT_TRUE(rd.valid);
  EXPECT_FALSE(rd.undetected_wrong);
  EXPECT_DOUBLE_EQ(rd.output, 0.6);
}

TEST(Redundancy, ImplementationCount) {
  EXPECT_EQ(make_identical_redundancy(4, 0.0, 0.0).implementation_count(), 1u);
  EXPECT_EQ(make_diverse_redundancy(4, 0.0, 0.0).implementation_count(), 4u);
}

TEST(Redundancy, EmptyRejected) {
  EXPECT_THROW(RedundantChannelSet({}, 0.0, 0.05), std::invalid_argument);
}

TEST(Redundancy, RandomFaultIndexOutOfRangeThrows) {
  RedundantChannelSet set = make_identical_redundancy(3, 0.0, 0.0);
  EXPECT_THROW(set.inject_random_fault(3), std::out_of_range);
  EXPECT_THROW(set.inject_random_fault(1000), std::out_of_range);
  // A failed injection must not have faulted anything.
  ev::util::Rng rng(9);
  const VoteResult r = set.actuate(0.5, rng);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.disagreeing, 0u);
  // In-range indices still work.
  set.inject_random_fault(2);
  EXPECT_EQ(set.actuate(0.5, rng).disagreeing, 1u);
}

TEST(Redundancy, CountersAccumulate) {
  ev::util::Rng rng(6);
  RedundantChannelSet set = healthy_triplex();
  for (int i = 0; i < 100; ++i) (void)set.actuate(0.3, rng);
  EXPECT_EQ(set.cycles(), 100u);
  EXPECT_EQ(set.invalid_cycles(), 0u);
  EXPECT_EQ(set.undetected_wrong_cycles(), 0u);
}

// Property: diversity never increases the dangerous-failure count for the
// same fault environment.
class DiversityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiversityProperty, DiverseNeverWorseThanIdentical) {
  BrakeSystemConfig identical;
  identical.diverse = false;
  identical.systematic_fault_rate = 1e-5;  // accelerated for test speed
  identical.random_fault_rate = 1e-7;
  BrakeSystemConfig diverse = identical;
  diverse.diverse = true;

  ev::util::Rng rng_i(GetParam());
  ev::util::Rng rng_d(GetParam());
  const BrakeMissionReport ri = simulate_brake_mission(identical, 0.2, rng_i);
  const BrakeMissionReport rd = simulate_brake_mission(diverse, 0.2, rng_d);
  // Same fault trace (same seed): diversity converts unanimous-wrong cycles
  // into masked or detected ones.
  EXPECT_LE(rd.wrong_output_cycles, ri.wrong_output_cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiversityProperty, ::testing::Values(11, 22, 33));

TEST(BrakeMission, CleanMissionIsPerfect) {
  BrakeSystemConfig cfg;
  cfg.random_fault_rate = 0.0;
  cfg.systematic_fault_rate = 0.0;
  cfg.sensor_fault_rate = 0.0;
  ev::util::Rng rng(7);
  const BrakeMissionReport r = simulate_brake_mission(cfg, 0.1, rng);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.loss_of_function_cycles, 0u);
  EXPECT_EQ(r.wrong_output_cycles, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
}

TEST(BrakeMission, ReportsRates) {
  BrakeSystemConfig cfg;
  cfg.systematic_fault_rate = 1e-4;  // very faulty, identical replicas
  cfg.diverse = false;
  ev::util::Rng rng(8);
  const BrakeMissionReport r = simulate_brake_mission(cfg, 0.1, rng);
  EXPECT_GT(r.wrong_output_cycles, 0u);
  EXPECT_GT(r.dangerous_rate_per_hour, 0.0);
}

}  // namespace
