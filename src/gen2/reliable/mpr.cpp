#include "gen2/reliable/mpr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rfidsim::gen2::reliable {

double expected_decodes_per_slot(double lambda, int m) {
  require(m >= 1, "expected_decodes_per_slot: capability must be >= 1");
  require(lambda >= 0.0, "expected_decodes_per_slot: load must be >= 0");
  // sum_{k=1..m} k e^{-l} l^k / k!  with the term built incrementally:
  // l^k / k! = (l^{k-1} / (k-1)!) * l / k.
  double term = std::exp(-lambda) * lambda;  // k = 1 term / 1.
  double sum = 0.0;
  for (int k = 1; k <= m; ++k) {
    sum += static_cast<double>(k) * term;
    term *= lambda / static_cast<double>(k + 1);
  }
  return sum;
}

double optimal_slot_load(int m) {
  require(m >= 1, "optimal_slot_load: capability must be >= 1");
  if (m == 1) return 1.0;  // T = lambda e^{-lambda}: the classic optimum.
  // dT/dlambda = e^{-lambda} sum_{k=1..m} l^{k-1} (k - l) / (k-1)!  is
  // positive at l = 1 (the k=1 term is zero, every k >= 2 term positive)
  // and negative at l = m + 1 (every term negative), and T is unimodal on
  // that bracket; bisect the sign change.
  auto derivative = [m](double l) {
    double term = 1.0;  // l^{k-1} / (k-1)! at k = 1.
    double sum = 0.0;
    for (int k = 1; k <= m; ++k) {
      sum += term * (static_cast<double>(k) - l);
      term *= l / static_cast<double>(k);
    }
    return sum;  // e^{-l} factor > 0 dropped: sign-only use.
  };
  double lo = 1.0;
  double hi = static_cast<double>(m) + 1.0;
  for (int iter = 0; iter < 200 && hi - lo > 1e-12; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (derivative(mid) > 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double optimal_q_offset(int m) { return -std::log2(optimal_slot_load(m)); }

int optimal_q(std::size_t population, int m, int min_q, int max_q) {
  require(min_q <= max_q, "optimal_q: min_q must be <= max_q");
  if (population == 0) return min_q;
  const double frame =
      static_cast<double>(population) / optimal_slot_load(m);
  const int q = static_cast<int>(std::lround(std::log2(std::max(frame, 1.0))));
  return std::clamp(q, min_q, max_q);
}

}  // namespace rfidsim::gen2::reliable
