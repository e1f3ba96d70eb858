#include "ev/bywire/redundancy.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace ev::bywire {

RedundantChannelSet::RedundantChannelSet(std::vector<ChannelConfig> channels,
                                         double systematic_fault_rate,
                                         double agreement_tolerance)
    : channels_(std::move(channels)),
      systematic_fault_rate_(systematic_fault_rate),
      agreement_tolerance_(agreement_tolerance) {
  if (channels_.empty())
    throw std::invalid_argument("RedundantChannelSet: need at least one channel");
  faulted_.assign(channels_.size(), false);
  int max_impl = 0;
  for (const ChannelConfig& c : channels_) max_impl = std::max(max_impl, c.implementation_id);
  impl_faulted_.assign(static_cast<std::size_t>(max_impl) + 1, false);
}

std::size_t RedundantChannelSet::implementation_count() const {
  std::set<int> ids;
  for (const ChannelConfig& c : channels_) ids.insert(c.implementation_id);
  return ids.size();
}

void RedundantChannelSet::inject_systematic_fault(int implementation_id) {
  if (implementation_id >= 0 &&
      static_cast<std::size_t>(implementation_id) < impl_faulted_.size())
    impl_faulted_[static_cast<std::size_t>(implementation_id)] = true;
}

void RedundantChannelSet::inject_random_fault(std::size_t index) {
  if (index >= faulted_.size())
    throw std::out_of_range("RedundantChannelSet: replica index " + std::to_string(index) +
                            " >= channel count " + std::to_string(faulted_.size()));
  faulted_[index] = true;
}

VoteResult RedundantChannelSet::actuate(double demand, util::Rng& rng) {
  ++cycles_;
  // Spontaneous fault arrivals this cycle.
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (!faulted_[i] && rng.bernoulli(channels_[i].random_fault_rate)) faulted_[i] = true;
  if (systematic_fault_rate_ > 0.0 && rng.bernoulli(systematic_fault_rate_)) {
    // A latent software defect triggers: it hits one implementation.
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(impl_faulted_.size()) - 1));
    impl_faulted_[victim] = true;
  }

  // Channel outputs.
  std::vector<double> outputs;
  outputs.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const bool bad =
        faulted_[i] || impl_faulted_[static_cast<std::size_t>(channels_[i].implementation_id)];
    outputs.push_back(bad ? demand + channels_[i].fault_output_error : demand);
  }

  // Median voter with agreement window.
  std::vector<double> sorted = outputs;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::size_t agreeing = 0;
  for (double o : outputs)
    if (std::fabs(o - median) <= agreement_tolerance_) ++agreeing;

  VoteResult result;
  result.output = median;
  result.disagreeing = channels_.size() - agreeing;
  result.valid = agreeing * 2 > channels_.size();  // strict majority agrees
  const bool median_wrong = std::fabs(median - demand) > agreement_tolerance_;
  result.undetected_wrong = result.valid && median_wrong;
  if (!result.valid) ++invalid_;
  if (result.undetected_wrong) ++undetected_;
  return result;
}

RedundantChannelSet make_identical_redundancy(std::size_t replicas,
                                              double random_fault_rate,
                                              double systematic_fault_rate) {
  std::vector<ChannelConfig> channels;
  for (std::size_t i = 0; i < replicas; ++i)
    channels.push_back(ChannelConfig{0, random_fault_rate, 1.0});
  return RedundantChannelSet(std::move(channels), systematic_fault_rate);
}

RedundantChannelSet make_diverse_redundancy(std::size_t replicas,
                                            double random_fault_rate,
                                            double systematic_fault_rate) {
  std::vector<ChannelConfig> channels;
  for (std::size_t i = 0; i < replicas; ++i) {
    // Diverse implementations fail *differently*: distinct wrong outputs,
    // so two independently failed channels disagree with each other and the
    // voter detects the situation instead of confirming a common value.
    const double error = 0.5 + 0.25 * static_cast<double>(i);
    channels.push_back(ChannelConfig{static_cast<int>(i), random_fault_rate, error});
  }
  return RedundantChannelSet(std::move(channels), systematic_fault_rate);
}

}  // namespace ev::bywire
