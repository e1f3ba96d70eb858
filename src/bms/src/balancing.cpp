#include "ev/bms/balancing.h"

#include <algorithm>
#include <cstdint>

namespace ev::bms {

double soc_spread(std::span<const double> estimated_soc) noexcept {
  if (estimated_soc.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(estimated_soc.begin(), estimated_soc.end());
  return *hi - *lo;
}

void NoBalancer::decide(std::span<const double> /*estimated_soc*/,
                        battery::SeriesModule& module, double /*pack_target_soc*/) {
  module.clear_bleed();
  module.clear_transfer();
}

bool NoBalancer::converged(std::span<const double> /*estimated_soc*/) const { return true; }

void PassiveBalancer::decide(std::span<const double> estimated_soc,
                             battery::SeriesModule& module, double pack_target_soc) {
  module.clear_transfer();
  if (estimated_soc.empty()) return;
  const double local_min = *std::min_element(estimated_soc.begin(), estimated_soc.end());
  // Bleed toward the pack-wide weakest cell (never above the local minimum,
  // which would waste energy without improving the string).
  const double target = std::min(local_min, pack_target_soc);
  const std::span<std::uint8_t> bleed = module.bleed_flags();
  for (std::size_t i = 0; i < bleed.size() && i < estimated_soc.size(); ++i)
    bleed[i] = estimated_soc[i] > target + tolerance_ ? 1 : 0;
}

bool PassiveBalancer::converged(std::span<const double> estimated_soc) const {
  return soc_spread(estimated_soc) <= tolerance_;
}

void ActiveBalancer::decide(std::span<const double> estimated_soc,
                            battery::SeriesModule& module, double /*pack_target_soc*/) {
  module.clear_bleed();
  if (estimated_soc.empty()) {
    module.clear_transfer();
    return;
  }
  const auto [lo, hi] = std::minmax_element(estimated_soc.begin(), estimated_soc.end());
  if (*hi - *lo <= tolerance_) {
    module.clear_transfer();
    return;
  }
  const auto from = static_cast<std::size_t>(hi - estimated_soc.begin());
  const auto to = static_cast<std::size_t>(lo - estimated_soc.begin());
  module.command_transfer(from, to);
}

bool ActiveBalancer::converged(std::span<const double> estimated_soc) const {
  return soc_spread(estimated_soc) <= tolerance_;
}

}  // namespace ev::bms
