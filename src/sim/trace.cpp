#include "src/sim/trace.hpp"

#include <algorithm>

namespace burst {

double TraceSeries::value_at(Time t, double fallback) const {
  // points_ is time-ordered by construction (record() is called with a
  // monotonically non-decreasing clock).
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time lhs, const std::pair<Time, double>& rhs) { return lhs < rhs.first; });
  if (it == points_.begin()) return fallback;
  return std::prev(it)->second;
}

}  // namespace burst
