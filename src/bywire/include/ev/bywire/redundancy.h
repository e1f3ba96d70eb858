/// \file redundancy.h
/// Fault-tolerant drive-by-wire channels (paper Section 2, "Drive-by-wire",
/// ref [10]): redundant computation channels with majority voting. The
/// paper's key observation is that *identical* replicas do not protect
/// against systematic software faults — "functions may have to be
/// implemented by different programmers or at least run on non-identical
/// hardware". The channel model therefore distinguishes *random* hardware
/// faults (independent per replica) from *systematic* software faults
/// (common-mode across replicas sharing an implementation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ev/util/rng.h"

namespace ev::bywire {

/// Failure profile of one replica channel.
struct ChannelConfig {
  /// Which software implementation the replica runs; replicas with equal
  /// ids fail together on a systematic fault.
  int implementation_id = 0;
  /// Random hardware fault probability per actuation cycle.
  double random_fault_rate = 1e-6;
  /// A failed channel produces this output error (fraction of full scale).
  double fault_output_error = 1.0;
};

/// Result of one voted actuation.
struct VoteResult {
  double output = 0.0;          ///< The voted command.
  bool valid = false;           ///< A majority agreed.
  bool undetected_wrong = false;  ///< Majority agreed on a WRONG value.
  std::size_t disagreeing = 0;  ///< Channels voted out this cycle.
};

/// N-channel redundant computation with median/majority voting.
///
/// Each actuate() cycle every healthy channel computes `demand` exactly;
/// faulted channels output demand +- fault_output_error. The voter selects
/// the median and flags validity by the agreement span. Faults are injected
/// per-cycle from the configured rates; a systematic fault event (injected
/// by the caller or drawn from `systematic_fault_rate`) simultaneously
/// corrupts every replica of one implementation.
class RedundantChannelSet {
 public:
  /// \p channels describes the replicas; \p agreement_tolerance is the
  /// maximum spread (fraction of full scale) treated as agreement.
  RedundantChannelSet(std::vector<ChannelConfig> channels,
                      double systematic_fault_rate = 1e-7,
                      double agreement_tolerance = 0.05);

  /// One actuation cycle at demand in [0,1]; randomness from \p rng.
  VoteResult actuate(double demand, util::Rng& rng);

  /// Injects a permanent systematic fault into implementation \p id (all
  /// its replicas start producing wrong outputs).
  void inject_systematic_fault(int implementation_id);

  /// Injects a permanent random (hardware) fault into replica \p index.
  void inject_random_fault(std::size_t index);

  /// Distinct implementations (diversity degree).
  [[nodiscard]] std::size_t implementation_count() const;
  /// Cycles executed so far.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  /// Cycles with no valid majority (fail-silent loss of function).
  [[nodiscard]] std::uint64_t invalid_cycles() const noexcept { return invalid_; }
  /// Cycles where a wrong value won the vote (the dangerous failure mode).
  [[nodiscard]] std::uint64_t undetected_wrong_cycles() const noexcept {
    return undetected_;
  }

 private:
  std::vector<ChannelConfig> channels_;
  std::vector<bool> faulted_;           ///< Permanent per-replica fault state.
  std::vector<bool> impl_faulted_;      ///< Permanent per-implementation fault.
  double systematic_fault_rate_;
  double agreement_tolerance_;
  std::uint64_t cycles_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t undetected_ = 0;
};

/// Convenience factories for the two designs the paper contrasts.
/// \p replicas identical copies of one implementation:
[[nodiscard]] RedundantChannelSet make_identical_redundancy(std::size_t replicas,
                                                            double random_fault_rate,
                                                            double systematic_fault_rate);
/// \p replicas, each a diverse implementation:
[[nodiscard]] RedundantChannelSet make_diverse_redundancy(std::size_t replicas,
                                                          double random_fault_rate,
                                                          double systematic_fault_rate);

}  // namespace ev::bywire
