#include "ev/scheduling/response_time.h"

#include <algorithm>

#include "ev/util/math.h"

namespace ev::scheduling {

std::vector<FpResponse> fp_response_times(const std::vector<FpTask>& tasks) {
  std::vector<FpTask> sorted = tasks;
  std::sort(sorted.begin(), sorted.end(),
            [](const FpTask& a, const FpTask& b) { return a.priority < b.priority; });

  std::vector<FpResponse> out;
  out.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const FpTask& ti = sorted[i];
    std::int64_t r = ti.wcet_us;
    bool converged = false;
    for (int iter = 0; iter < 100000; ++iter) {
      std::int64_t r_next = ti.wcet_us;
      for (std::size_t j = 0; j < i; ++j) {
        const FpTask& tj = sorted[j];
        r_next += util::ceil_div(r + tj.jitter_us, tj.period_us) * tj.wcet_us;
      }
      if (r_next == r) {
        converged = true;
        break;
      }
      r = r_next;
      if (r > 100 * ti.period_us) break;  // diverging: overloaded
    }
    FpResponse resp;
    resp.name = ti.name;
    resp.response_us = ti.jitter_us + r;
    resp.schedulable = converged && resp.response_us <= ti.period_us;
    out.push_back(std::move(resp));
  }
  return out;
}

}  // namespace ev::scheduling
