// Unit tests for the battery plant: OCV curves, the electro-thermal cell,
// module balancing hardware, the pack, and the sensor chain.
#include <gtest/gtest.h>

#include "ev/battery/cell.h"
#include "ev/battery/cell_batch.h"
#include "ev/battery/module.h"
#include "ev/battery/ocv_curve.h"
#include "ev/battery/pack.h"
#include "ev/battery/sensors.h"
#include "ev/util/rng.h"
#include "ev/util/stats.h"

namespace {

using namespace ev::battery;

// ----------------------------------------------------------- OCV curve ----

TEST(OcvCurve, NmcEndpoints) {
  const OcvCurve c = OcvCurve::nmc();
  EXPECT_DOUBLE_EQ(c.voltage(0.0), 3.0);
  EXPECT_DOUBLE_EQ(c.voltage(1.0), 4.2);
  EXPECT_DOUBLE_EQ(c.min_voltage(), 3.0);
  EXPECT_DOUBLE_EQ(c.max_voltage(), 4.2);
}

TEST(OcvCurve, MonotonicInSoc) {
  const OcvCurve c = OcvCurve::nmc();
  double prev = c.voltage(0.0);
  for (double s = 0.01; s <= 1.0; s += 0.01) {
    const double v = c.voltage(s);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(OcvCurve, InverseRoundTrip) {
  const OcvCurve c = OcvCurve::nmc();
  for (double s = 0.05; s <= 0.95; s += 0.05)
    EXPECT_NEAR(c.soc(c.voltage(s)), s, 1e-9);
}

TEST(OcvCurve, ClampsOutOfRange) {
  const OcvCurve c = OcvCurve::nmc();
  EXPECT_DOUBLE_EQ(c.voltage(-1.0), 3.0);
  EXPECT_DOUBLE_EQ(c.voltage(2.0), 4.2);
  EXPECT_DOUBLE_EQ(c.soc(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.soc(9.0), 1.0);
}

TEST(OcvCurve, LfpPlateauIsFlat) {
  const OcvCurve c = OcvCurve::lfp();
  // The mid-range slope of LFP is tiny compared to NMC.
  const double lfp_slope = c.voltage(0.6) - c.voltage(0.4);
  const OcvCurve n = OcvCurve::nmc();
  const double nmc_slope = n.voltage(0.6) - n.voltage(0.4);
  EXPECT_LT(lfp_slope, nmc_slope / 3.0);
}

TEST(OcvCurve, RejectsInvalidKnots) {
  EXPECT_THROW(OcvCurve({{0.0, 3.0}}), std::invalid_argument);
  EXPECT_THROW(OcvCurve({{0.0, 3.0}, {0.5, 2.9}, {1.0, 4.2}}), std::invalid_argument);
  EXPECT_THROW(OcvCurve({{0.1, 3.0}, {1.0, 4.2}}), std::invalid_argument);
}

// ---------------------------------------------------------------- cell ----

CellParameters small_cell() {
  CellParameters p;
  p.capacity_ah = 10.0;
  return p;
}

/// One NMC cell on the cell integrator: a 1-cell CellBatch stepped with a
/// scalar current and heat, read through its view (`cell->soc()`).
class OneCell {
 public:
  OneCell(CellParameters p, double soc, double temp_c = 25.0)
      : batch_({{p, soc, temp_c}}, OcvCurve::nmc()) {}
  OneCell(const OneCell&) = delete;
  OneCell& operator=(const OneCell&) = delete;

  CellStatus step(double current_a, double dt_s, double ambient_c = 25.0,
                  double extra_heat_w = 0.0) {
    const double current[] = {current_a};
    const double heat[] = {extra_heat_w};
    return batch_.step_all(current, heat, dt_s, ambient_c).worst;
  }
  CellView* operator->() { return &view_; }

 private:
  CellBatch batch_;
  CellView view_{batch_, 0};
};

TEST(Cell, CoulombCountingDischarge) {
  OneCell cell(small_cell(), 1.0);
  // 10 A for 1800 s = 5 Ah = half the capacity.
  for (int i = 0; i < 1800; ++i) (void)cell.step(10.0, 1.0);
  EXPECT_NEAR(cell->soc(), 0.5, 0.01);
  EXPECT_NEAR(cell->throughput_ah(), 5.0, 0.05);
}

TEST(Cell, ChargeRaisesSoc) {
  OneCell cell(small_cell(), 0.2);
  for (int i = 0; i < 360; ++i) (void)cell.step(-10.0, 1.0);
  EXPECT_NEAR(cell->soc(), 0.3, 0.01);
}

TEST(Cell, TerminalVoltageDropsUnderLoad) {
  OneCell cell(small_cell(), 0.5);
  const double open = cell->terminal_voltage(0.0);
  const double loaded = cell->terminal_voltage(100.0);
  EXPECT_GT(open, loaded);
  EXPECT_NEAR(open - loaded, 100.0 * cell->params().r0_ohm, 1e-9);
}

TEST(Cell, PolarizationRelaxes) {
  OneCell cell(small_cell(), 0.5);
  for (int i = 0; i < 120; ++i) (void)cell.step(50.0, 1.0);
  const double sagged = cell->terminal_voltage(0.0);
  for (int i = 0; i < 600; ++i) (void)cell.step(0.0, 1.0);
  const double rested = cell->terminal_voltage(0.0);
  EXPECT_GT(rested, sagged);  // RC branches decay back toward OCV
  EXPECT_NEAR(rested, cell->open_circuit_voltage(), 2e-3);
}

TEST(Cell, HeatsUnderLoadAndCools) {
  OneCell cell(small_cell(), 0.8, 25.0);
  for (int i = 0; i < 600; ++i) (void)cell.step(200.0, 1.0, 25.0);
  const double hot = cell->temperature_c();
  EXPECT_GT(hot, 26.0);
  for (int i = 0; i < 3600; ++i) (void)cell.step(0.0, 1.0, 25.0);
  EXPECT_LT(cell->temperature_c(), hot);
}

TEST(Cell, ExtraHeatRaisesTemperature) {
  OneCell a(small_cell(), 0.5);
  OneCell b(small_cell(), 0.5);
  for (int i = 0; i < 600; ++i) {
    (void)a.step(0.0, 1.0, 25.0, 0.0);
    (void)b.step(0.0, 1.0, 25.0, 5.0);
  }
  EXPECT_GT(b->temperature_c(), a->temperature_c() + 1.0);
}

TEST(Cell, SafetyFlagsRaised) {
  CellParameters p = small_cell();
  OneCell cell(p, 0.01);
  CellStatus st{};
  for (int i = 0; i < 600 && !st.undervoltage; ++i) st = cell.step(50.0, 1.0);
  EXPECT_TRUE(st.undervoltage);

  OneCell oc(p, 0.5);
  EXPECT_TRUE(oc.step(p.max_discharge_current_a + 1.0, 0.1).overcurrent);
  EXPECT_TRUE(oc.step(-(p.max_charge_current_a + 1.0), 0.1).overcurrent);
}

TEST(Cell, AgeingReducesCapacity) {
  OneCell cell(small_cell(), 0.5);
  const double fresh = cell->capacity_ah();
  // Heavy cycling.
  for (int cyc = 0; cyc < 50; ++cyc) {
    for (int i = 0; i < 360; ++i) (void)cell.step(20.0, 1.0);
    for (int i = 0; i < 360; ++i) (void)cell.step(-20.0, 1.0);
  }
  EXPECT_LT(cell->capacity_ah(), fresh);
  EXPECT_LT(cell->state_of_health(), 1.0);
  EXPECT_GT(cell->state_of_health(), 0.5);  // fade model floor
}

TEST(Cell, InjectChargeBypassesLoss) {
  OneCell cell(small_cell(), 0.5);
  cell->inject_charge(360.0);  // +0.1 Ah on a 10 Ah cell = +1% SoC
  EXPECT_NEAR(cell->soc(), 0.51, 1e-6);
  cell->inject_charge(-360.0);
  EXPECT_NEAR(cell->soc(), 0.50, 1e-6);
}

TEST(CellBatch, AdoptionClampsInitialSoc) {
  const CellBatch batch({{small_cell(), -0.1}, {small_cell(), 1.2}, {small_cell(), 0.4}},
                        OcvCurve::nmc());
  EXPECT_EQ(CellConstView(batch, 0).soc(), 0.0);
  EXPECT_EQ(CellConstView(batch, 1).soc(), 1.0);
  EXPECT_EQ(CellConstView(batch, 2).soc(), 0.4);
}

// -------------------------------------------------------------- module ----

SeriesModule make_module(std::size_t n, std::initializer_list<double> socs) {
  std::vector<CellInit> cells;
  auto it = socs.begin();
  for (std::size_t i = 0; i < n; ++i)
    cells.push_back({small_cell(), it != socs.end() ? *it++ : 0.5});
  return SeriesModule(cells, OcvCurve::nmc());
}

TEST(SeriesModule, VoltageIsSumOfCells) {
  SeriesModule m = make_module(4, {0.5, 0.5, 0.5, 0.5});
  EXPECT_NEAR(m.terminal_voltage(0.0), 4.0 * m.cell(0).terminal_voltage(0.0), 1e-9);
}

TEST(SeriesModule, BleedDischargesOnlyTargetCell) {
  SeriesModule m = make_module(3, {0.6, 0.6, 0.6});
  m.set_bleed(1, true);
  for (int i = 0; i < 600; ++i) (void)m.step(0.0, 1.0);
  EXPECT_LT(m.cell(1).soc(), m.cell(0).soc());
  EXPECT_NEAR(m.cell(0).soc(), m.cell(2).soc(), 1e-9);
  EXPECT_GT(m.bleed_energy_j(), 0.0);
}

TEST(SeriesModule, ActiveTransferMovesCharge) {
  SeriesModule m = make_module(2, {0.7, 0.5});
  m.command_transfer(0, 1);
  for (int i = 0; i < 600; ++i) (void)m.step(0.0, 1.0);
  EXPECT_LT(m.cell(0).soc(), 0.7);
  EXPECT_GT(m.cell(1).soc(), 0.5);
  EXPECT_GT(m.transfer_loss_j(), 0.0);  // converter is not lossless
}

TEST(SeriesModule, TransferConservesChargeMinusLoss) {
  SeriesModule m = make_module(2, {0.7, 0.5});
  const double before = m.cell(0).soc() + m.cell(1).soc();
  m.command_transfer(0, 1);
  for (int i = 0; i < 600; ++i) (void)m.step(0.0, 1.0);
  const double after = m.cell(0).soc() + m.cell(1).soc();
  EXPECT_LT(after, before);                // some charge lost in the converter
  EXPECT_GT(after, before - 0.02);         // but only the efficiency share
}

TEST(SeriesModule, RejectsBadTransferCommands) {
  SeriesModule m = make_module(2, {0.5, 0.5});
  EXPECT_THROW(m.command_transfer(0, 0), std::invalid_argument);
  EXPECT_THROW(m.command_transfer(0, 5), std::out_of_range);
}

TEST(SeriesModule, SocSpreadReflectsCells) {
  SeriesModule m = make_module(3, {0.4, 0.5, 0.6});
  EXPECT_NEAR(m.soc_spread(), 0.2, 1e-9);
  EXPECT_NEAR(m.min_soc(), 0.4, 1e-9);
  EXPECT_NEAR(m.max_soc(), 0.6, 1e-9);
}

TEST(SeriesModule, EmptyCellListRejected) {
  EXPECT_THROW(SeriesModule(std::vector<CellInit>{}, OcvCurve::nmc()), std::invalid_argument);
}

// ---------------------------------------------------------------- pack ----

TEST(Pack, BuildGeometry) {
  ev::util::Rng rng(3);
  PackConfig cfg;
  cfg.module_count = 4;
  cfg.cells_per_module = 6;
  Pack pack(cfg, rng);
  EXPECT_EQ(pack.module_count(), 4u);
  EXPECT_EQ(pack.cell_count(), 24u);
  EXPECT_GT(pack.terminal_voltage(0.0), 24 * 3.0);
  EXPECT_LT(pack.terminal_voltage(0.0), 24 * 4.2);
}

TEST(Pack, ManufacturingSpreadProducesImbalance) {
  ev::util::Rng rng(5);
  PackConfig cfg;
  cfg.soc_spread_sigma = 0.02;
  Pack pack(cfg, rng);
  EXPECT_GT(pack.max_soc() - pack.min_soc(), 0.005);
}

TEST(Pack, OpenContactorBlocksCurrent) {
  ev::util::Rng rng(7);
  PackConfig cfg;
  Pack pack(cfg, rng);
  const double soc_before = pack.mean_soc();
  pack.open_contactor();
  for (int i = 0; i < 100; ++i) (void)pack.step(100.0, 1.0);
  EXPECT_NEAR(pack.mean_soc(), soc_before, 1e-6);
  EXPECT_DOUBLE_EQ(pack.terminal_voltage(10.0), 0.0);
  pack.close_contactor();
  for (int i = 0; i < 100; ++i) (void)pack.step(100.0, 1.0);
  EXPECT_LT(pack.mean_soc(), soc_before);
}

TEST(Pack, UsableEnergyLimitedByWeakestCell) {
  ev::util::Rng rng(9);
  PackConfig cfg;
  cfg.module_count = 1;
  cfg.cells_per_module = 4;
  cfg.soc_spread_sigma = 0.0;
  Pack pack(cfg, rng);
  const double balanced = pack.usable_energy_wh();
  // Drain one cell directly: usable energy collapses toward that cell.
  pack.module(0).cell(0).inject_charge(-0.5 * pack.module(0).cell(0).charge_coulomb());
  EXPECT_LT(pack.usable_energy_wh(), 0.6 * balanced);
}

TEST(Pack, SensedCurrentTracksTrueCurrent) {
  ev::util::Rng rng(11);
  PackConfig cfg;
  Pack pack(cfg, rng);
  (void)pack.step(50.0, 0.1);
  EXPECT_NEAR(pack.sensed_current_a(), 50.0, 1.0);
}

TEST(Pack, ModuleTransferMovesChargeAcrossModules) {
  ev::util::Rng rng(31);
  PackConfig cfg;
  cfg.module_count = 2;
  cfg.cells_per_module = 3;
  cfg.soc_spread_sigma = 0.0;
  Pack pack(cfg, rng);
  // Skew module 0 upward by direct injection.
  for (std::size_t c = 0; c < 3; ++c)
    pack.module(0).cell(c).inject_charge(0.05 * pack.module(0).cell(c).charge_coulomb());
  const double m0_before = pack.module(0).min_soc();
  const double m1_before = pack.module(1).min_soc();
  pack.command_module_transfer(0, 1);
  EXPECT_TRUE(pack.module_transfer_active());
  for (int i = 0; i < 600; ++i) (void)pack.step(0.0, 1.0);
  EXPECT_LT(pack.module(0).min_soc(), m0_before);
  EXPECT_GT(pack.module(1).min_soc(), m1_before);
  EXPECT_GT(pack.total_transfer_loss_j(), 0.0);  // converter efficiency < 1
  pack.clear_module_transfer();
  EXPECT_FALSE(pack.module_transfer_active());
}

TEST(Pack, ModuleTransferValidatesArguments) {
  ev::util::Rng rng(33);
  PackConfig cfg;
  cfg.module_count = 2;
  Pack pack(cfg, rng);
  EXPECT_THROW(pack.command_module_transfer(0, 0), std::invalid_argument);
  EXPECT_THROW(pack.command_module_transfer(0, 9), std::out_of_range);
}

TEST(Pack, ModuleTransferConservesChargeMinusEfficiency) {
  ev::util::Rng rng(35);
  PackConfig cfg;
  cfg.module_count = 2;
  cfg.cells_per_module = 2;
  cfg.soc_spread_sigma = 0.0;
  cfg.capacity_spread_sigma = 0.0;
  Pack pack(cfg, rng);
  double before = 0.0;
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t c = 0; c < 2; ++c) before += pack.module(m).cell(c).charge_coulomb();
  pack.command_module_transfer(0, 1);
  for (int i = 0; i < 100; ++i) (void)pack.step(0.0, 1.0);
  double after = 0.0;
  for (std::size_t m = 0; m < 2; ++m)
    for (std::size_t c = 0; c < 2; ++c) after += pack.module(m).cell(c).charge_coulomb();
  EXPECT_LT(after, before);  // converter losses
  // Lost fraction bounded by (1 - eta) of what moved.
  const double moved = 5.0 * 100.0;  // transfer current * time per source cell
  EXPECT_GT(after, before - 2.0 * moved * (1.0 - 0.92) - 1e-6 - moved * 0.2);
}

// ------------------------------------------------------------- sensors ----

TEST(Sensors, BiasAndQuantization) {
  ev::util::Rng rng(13);
  ScalarSensor s(/*noise=*/0.0, /*bias=*/0.5, /*quantization=*/0.25);
  EXPECT_DOUBLE_EQ(s.measure(1.0, rng), 1.5);
  EXPECT_DOUBLE_EQ(s.measure(1.1, rng), 1.5);  // quantized to 0.25 grid
}

TEST(Sensors, NoiseStatistics) {
  ev::util::Rng rng(15);
  VoltageSensor s;
  ev::util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(s.measure(3.7, rng));
  EXPECT_NEAR(stats.mean(), 3.7, 1e-3);
  EXPECT_LT(stats.stddev(), 5e-3);
}

TEST(Sensors, CurrentSensorHasBias) {
  ev::util::Rng rng(17);
  CurrentSensor s;
  ev::util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(s.measure(0.0, rng));
  EXPECT_GT(stats.mean(), 0.01);  // the drift source for coulomb counting
}

}  // namespace
