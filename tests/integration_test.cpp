// Cross-module integration tests: scenarios that exercise several evsys
// layers together, mirroring the paper's end-to-end arguments.
#include <gtest/gtest.h>

#include <cstring>

#include "ev/bms/battery_manager.h"
#include "ev/network/can.h"
#include "ev/network/ethernet.h"
#include "ev/network/flexray.h"
#include "ev/network/topology.h"
#include "ev/powertrain/simulation.h"
#include "ev/scheduling/synthesis.h"
#include "ev/security/secure_channel.h"
#include "ev/sim/simulator.h"
#include "ev/verification/model_checker.h"

namespace {

using ev::sim::Simulator;
using ev::sim::Time;

// --- BMS + battery: balancing yields usable capacity ------------------------

TEST(Integration, ActiveBalancingRecoversUsableEnergy) {
  ev::util::Rng rng_a(101), rng_b(101);
  ev::battery::PackConfig pc;
  pc.module_count = 2;
  pc.cells_per_module = 6;
  pc.soc_spread_sigma = 0.04;  // badly imbalanced pack
  ev::battery::Pack balanced(pc, rng_a);
  ev::battery::Pack unbalanced(pc, rng_b);

  ev::bms::BmsConfig bc;
  bc.balancing = ev::bms::BalancingKind::kActive;
  bc.initial_soc_estimate = 0.9;
  ev::bms::BatteryManager bms(balanced, bc);

  ev::util::Rng noise(102);
  for (int i = 0; i < 40000; ++i) {
    (void)balanced.step(0.0, 1.0);
    (void)bms.step(balanced, 1.0, noise);
  }
  // Same cells, same time idle — but the balanced pack can deliver more.
  EXPECT_GT(balanced.usable_energy_wh(), unbalanced.usable_energy_wh() * 1.02);
}

// --- Powertrain + BMS: derating propagates to the vehicle --------------------

TEST(Integration, DepletedPackLimitsAcceleration) {
  ev::powertrain::PowertrainConfig cfg;
  cfg.pack.initial_soc = 0.06;  // nearly empty: SoC-based derating active
  cfg.pack.soc_spread_sigma = 0.0;
  ev::powertrain::PowertrainSimulation low(cfg);
  ev::powertrain::PowertrainConfig full_cfg;
  full_cfg.pack.initial_soc = 0.9;
  ev::powertrain::PowertrainSimulation full(full_cfg);
  // Full-throttle demand for 10 s.
  for (int i = 0; i < 100; ++i) {
    (void)low.step(40.0);
    (void)full.step(40.0);
  }
  EXPECT_LT(low.vehicle().speed_mps(), full.vehicle().speed_mps());
}

// --- Scheduling + network: synthesized offsets executed on FlexRay ----------

TEST(Integration, SynthesizedScheduleRunsJitterFree) {
  // Synthesize offsets for three messages sharing the chassis bus.
  ev::scheduling::System sys;
  for (int i = 0; i < 3; ++i) {
    ev::scheduling::Activity a;
    a.id = i;
    a.name = "msg" + std::to_string(i);
    a.resource = 0;
    a.period_us = 10000;
    a.duration_us = 200;
    sys.activities.push_back(a);
  }
  const auto schedule = ev::scheduling::MonolithicSynthesizer().synthesize(sys);
  ASSERT_TRUE(schedule.feasible);

  // Execute: senders fire at their synthesized offsets on a FlexRay bus with
  // matching static slots.
  Simulator sim;
  ev::network::FlexRayConfig fr;
  fr.static_slots = {{0, 1, 16}, {1, 2, 16}, {2, 3, 16}};
  ev::network::FlexRayBus bus(sim, "fr", fr);
  std::map<std::uint32_t, ev::util::SampleSeries> latency;
  bus.subscribe([&](const ev::network::Frame& f, Time at) {
    latency[f.id].add((at - f.created).to_seconds());
  });
  bus.start();
  for (int i = 0; i < 3; ++i) {
    const auto offset = Time::us(schedule.offset_us[static_cast<std::size_t>(i)] + 1);
    sim.schedule_periodic(offset, Time::us(10000), [&bus, i] {
      ev::network::Frame f;
      f.id = static_cast<std::uint32_t>(i);
      (void)bus.send(f);
    });
  }
  sim.run_until(Time::s(2));
  for (auto& [id, series] : latency) {
    ASSERT_GT(series.count(), 100u);
    // The sender period (10 ms) is not a multiple of the FlexRay cycle, so
    // the buffered frame waits a varying fraction of one cycle — but never
    // more: time-triggered transport bounds the jitter by one cycle.
    EXPECT_LT(series.max() - series.min(), bus.cycle_time_s()) << "message " << id;
    EXPECT_LT(series.max(), 2.0 * bus.cycle_time_s()) << "message " << id;
  }

  // With senders synchronized to the communication cycle (the global
  // schedule of the paper), the latency becomes exactly constant.
  Simulator sim2;
  ev::network::FlexRayBus bus2(sim2, "fr2", fr);
  ev::util::SampleSeries sync_latency;
  bus2.subscribe([&](const ev::network::Frame& f, Time at) {
    if (f.id == 0) sync_latency.add((at - f.created).to_seconds());
  });
  bus2.start();
  sim2.schedule_periodic(Time::us(1), Time::seconds(bus2.cycle_time_s()), [&bus2] {
    ev::network::Frame f;
    f.id = 0;
    (void)bus2.send(f);
  });
  sim2.run_until(Time::s(2));
  ASSERT_GT(sync_latency.count(), 100u);
  EXPECT_LT(sync_latency.max() - sync_latency.min(), 1e-9);
}

// --- Security + network: authenticated frames across a switched backbone ----

TEST(Integration, SecureChannelOverEthernet) {
  Simulator sim;
  ev::network::EthernetSwitch sw(sim, "backbone", 2);
  sw.attach(1, 0);
  sw.add_route(0x77, ev::network::EthRoute{{1}, ev::network::EthClass::kAvbClassA});

  const ev::security::Key key(32, 0x42);
  ev::security::SecureChannel sender(key, 7);
  ev::security::SecureChannel receiver(key, 7);

  std::vector<std::uint8_t> received_plaintext;
  std::size_t rejected = 0;
  sw.subscribe([&](const ev::network::Frame& f, Time) {
    ev::security::ChannelStatus status;
    const auto plain = receiver.unprotect(f.payload, &status);
    if (plain)
      received_plaintext = *plain;
    else
      ++rejected;
  });

  // Send one genuine protected frame and one tampered copy.
  const std::vector<std::uint8_t> message = {'s', 'o', 'c', '=', '7', '1'};
  ev::network::Frame genuine;
  genuine.id = 0x77;
  genuine.source = 1;
  genuine.payload = sender.protect(message);
  genuine.payload_size = genuine.payload.size();
  ev::network::Frame tampered = genuine;
  tampered.payload = sender.protect(message);
  tampered.payload[8] ^= 0xFF;
  tampered.payload_size = tampered.payload.size();

  ASSERT_TRUE(sw.send(genuine));
  ASSERT_TRUE(sw.send(tampered));
  sim.run();

  EXPECT_EQ(received_plaintext, message);
  EXPECT_EQ(rejected, 1u);
}

// --- Verification + scheduling: a schedule's gap pattern verified -----------

TEST(Integration, ScheduleGapVerifiedAgainstControlRequirement) {
  // A control message scheduled in 8 of every 10 slots (2-slot maintenance
  // gap) must satisfy "no 3 consecutive drops" but violates "at least 9 of
  // any 10" — checked by the model checker, not by simulation.
  const auto system = ev::verification::TransmissionSystem::time_triggered(10, 2);
  EXPECT_TRUE(
      ev::verification::verify(system, ev::verification::MonitorDfa::max_consecutive_drops(2))
          .verified);
  const auto tight =
      ev::verification::verify(system, ev::verification::MonitorDfa::at_least_m_of_n(9, 10));
  EXPECT_FALSE(tight.verified);
  EXPECT_FALSE(tight.counterexample.empty());
}

// --- Security + topology: the Bluetooth-virus scenario of refs [33],[34] ----

TEST(Integration, CompromisedInfotainmentCannotForgeChassisCommands) {
  // An attacker who owns an infotainment ECU (the Bluetooth entry point of
  // the paper's cited attacks) injects frames into its domain. Without
  // authentication the forged frame crosses the gateway into the chassis
  // domain and is indistinguishable from a real command; with authenticated
  // frames, the chassis ECU rejects it.
  Simulator sim;
  ev::network::Figure1Network net(sim);
  net.start();

  const ev::security::Key chassis_key(32, 0x5C);
  ev::security::SecureChannel legit_sender(chassis_key, 1);
  ev::security::SecureChannel chassis_receiver(chassis_key, 1);

  std::size_t accepted_unauthenticated = 0;
  std::size_t accepted_authenticated = 0;
  net.chassis_flexray().subscribe([&](const ev::network::Frame& f, Time) {
    if (f.id != ev::network::kFrameIdCrashOnChassis) return;
    // Legacy ECU: believes any frame with the right id.
    ++accepted_unauthenticated;
    // Hardened ECU: verifies the MAC before acting.
    if (!f.payload.empty() && chassis_receiver.unprotect(f.payload).has_value())
      ++accepted_authenticated;
  });

  // The attacker spoofs the crash-status id on the safety CAN (reachable
  // from a compromised node), which the gateway forwards to the chassis.
  sim.schedule_at(Time::ms(50), [&] {
    ev::network::Frame forged;
    forged.id = 0x200;  // crash status id on the safety CAN
    forged.source = 99;
    forged.payload = {0xDE, 0xAD};  // no valid MAC
    forged.payload_size = forged.payload.size();
    ASSERT_TRUE(net.safety_can().send(std::move(forged)));
  });
  sim.run_until(Time::ms(200));

  EXPECT_GE(accepted_unauthenticated, 1u);  // legacy design is open
  EXPECT_EQ(accepted_authenticated, 0u);    // authenticated design rejects

  // A genuine protected command cannot even be carried by the legacy CAN —
  // counter + tag exceed the 8-byte payload (the paper's E11 point) — so the
  // hardened design sends it on the chassis FlexRay's 16-byte static slot.
  sim.schedule_at(Time::ms(250), [&] {
    ev::network::Frame too_big;
    too_big.id = 0x200;
    too_big.source = 10;
    too_big.payload = legit_sender.protect({{0x01}});
    too_big.payload_size = too_big.payload.size();
    EXPECT_FALSE(net.safety_can().send(too_big));  // CAN refuses: > 8 bytes

    ev::network::Frame real;
    real.id = ev::network::kFrameIdCrashOnChassis;
    real.source = 10;
    real.payload = legit_sender.protect({{0x02}});
    real.payload_size = real.payload.size();
    ASSERT_TRUE(net.chassis_flexray().send(std::move(real)));
  });
  sim.run_until(Time::ms(400));
  EXPECT_EQ(accepted_authenticated, 1u);
}

// --- CAN analysis vs simulated heavy load ------------------------------------

TEST(Integration, CanAnalysisPredictsStarvation) {
  // Load the bus so the lowest-priority message misses its deadline; the
  // simulation must show the same starvation the analysis predicts.
  std::vector<ev::network::CanMessageSpec> set;
  for (std::uint32_t i = 0; i < 16; ++i) set.push_back({i, 8, 0.003, 0.0});
  ev::network::CanRtaScratch rta;
  const auto& analysis = ev::network::can_response_times(set, 500e3, rta);
  const bool predicted_ok = analysis.back().schedulable;
  EXPECT_FALSE(predicted_ok);

  Simulator sim;
  ev::network::CanBus bus(sim, "can", 500e3);
  double worst_lowprio = 0.0;
  std::size_t lowprio_delivered = 0;
  bus.subscribe([&](const ev::network::Frame& f, Time at) {
    if (f.id == 15) {
      ++lowprio_delivered;
      worst_lowprio = std::max(worst_lowprio, (at - f.created).to_seconds());
    }
  });
  for (const auto& m : set) {
    sim.schedule_periodic(Time{}, Time::seconds(m.period_s), [&bus, m] {
      ev::network::Frame f;
      f.id = m.id;
      f.payload_size = 8;
      (void)bus.send(f);
    });
  }
  sim.run_until(Time::s(2));
  // Under >100% utilization the lowest priority either misses its deadline
  // or is starved outright (delivers far fewer than the ~666 activations).
  EXPECT_TRUE(worst_lowprio > 0.003 || lowprio_delivered < 300u)
      << "worst=" << worst_lowprio << " delivered=" << lowprio_delivered;
}

}  // namespace
