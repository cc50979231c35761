#include "synth.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace pipebench {

namespace {

rfidsim::Rng pass_rng(std::uint64_t seed, std::uint32_t facility, std::uint64_t pass) {
  return rfidsim::Rng(seed).fork(facility).fork(pass);
}

}  // namespace

sys::EventLog synth_pass_log(std::uint64_t seed, std::uint32_t facility, std::uint64_t pass,
                             const SynthShape& shape) {
  rfidsim::Rng rng = pass_rng(seed, facility, pass);
  const double begin_s = static_cast<double>(pass) * shape.window_s;
  sys::EventLog log;
  log.reserve(shape.events_per_pass);
  for (std::size_t e = 0; e < shape.events_per_pass; ++e) {
    sys::ReadEvent ev;
    ev.tag = rfidsim::scene::TagId{
        static_cast<std::uint64_t>(rng.uniform_int(1, static_cast<std::int64_t>(shape.tags)))};
    ev.time_s = begin_s + rng.uniform(0.0, shape.window_s);
    ev.reader_index =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(shape.readers) - 1));
    ev.antenna_index = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(shape.antennas) - 1));
    ev.rssi = rfidsim::DbmPower(rng.uniform(-75.0, -45.0));
    log.push_back(ev);
  }
  return log;
}

std::vector<Delivery> damaged_schedule(std::uint64_t seed, std::uint32_t facilities,
                                       std::uint32_t passes, double held_fraction,
                                       std::uint32_t late_windows, double refeed_fraction) {
  struct Slotted {
    std::uint64_t slot;
    Delivery delivery;
  };
  std::vector<Slotted> slotted;
  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    for (std::uint32_t f = 0; f < facilities; ++f) {
      // A stream of its own, so the damage does not depend on log contents.
      rfidsim::Rng rng = pass_rng(seed ^ 0xDA4A6EULL, f, pass);
      const bool held = rng.bernoulli(held_fraction);
      const bool refeed = rng.bernoulli(refeed_fraction);
      const std::uint64_t slot = pass + (held ? late_windows : 0);
      slotted.push_back({slot, Delivery{f, pass, false}});
      if (refeed) slotted.push_back({slot + 1, Delivery{f, pass, true}});
    }
  }
  std::stable_sort(slotted.begin(), slotted.end(),
                   [](const Slotted& a, const Slotted& b) { return a.slot < b.slot; });
  std::vector<Delivery> out;
  out.reserve(slotted.size());
  for (const Slotted& s : slotted) out.push_back(s.delivery);
  return out;
}

std::vector<std::uint64_t> zipf_tags(std::uint64_t seed, std::size_t count, std::uint64_t tags,
                                     double exponent) {
  std::vector<double> cdf(tags);
  double total = 0.0;
  for (std::uint64_t r = 0; r < tags; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  rfidsim::Rng rng(seed ^ 0x21BFULL);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform(0.0, total);
    const auto rank = static_cast<std::uint64_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                                 cdf.begin());
    // Scatter ranks over the id space (the multiplier is coprime to any
    // tag count that is not a multiple of it).
    out.push_back((std::min(rank, tags - 1) * 2654435761ULL) % tags + 1);
  }
  return out;
}

}  // namespace pipebench
