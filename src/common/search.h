// Galloping search for the boundary of a monotone predicate.
#pragma once

#include <algorithm>
#include <cstddef>

namespace harmony::common {

// The smallest a in [1, n] with pred(a), for a predicate that is false below
// some point and true from it on; n + 1 when pred(n) is false. Probes step
// out from `hint` (clamped into [1, n]) by 1, 2, 4, ... until they bracket
// the boundary, then bisect the bracket: O(log |answer − hint|) probes, so a
// good hint beats plain bisection's O(log n). The answer does not depend on
// the hint.
template <typename Pred>
std::size_t gallop_first_true(std::size_t n, std::size_t hint, Pred pred) {
  if (n == 0) return 1;
  hint = std::clamp<std::size_t>(hint, 1, n);
  std::size_t lo = 1;      // every a < lo is false
  std::size_t hi = n + 1;  // pred(hi) is true, or hi = n + 1
  if (pred(hint)) {
    hi = hint;
    for (std::size_t step = 1; hi > 1; step *= 2) {
      const std::size_t probe = hi - 1 >= step ? hi - step : 1;
      if (!pred(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  } else {
    lo = hint + 1;
    for (std::size_t step = 1; lo <= n; step *= 2) {
      const std::size_t probe = hint + std::min(step, n - hint);
      if (pred(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

}  // namespace harmony::common
