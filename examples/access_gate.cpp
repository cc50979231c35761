// Badge-based access gate: tracking people through a doorway.
//
// The paper's human-tracking application: people with badge tags walk
// through a gate and the system logs who passed, at room-level accuracy.
// This example compares badge policies (one badge vs. badge + back-up tag
// vs. four tags) for single people and pairs walking together, and shows
// the event stream a door controller would consume, including
// first-detection latency (how far into the doorway before the badge is
// seen).
#include <cstdio>

#include "common/table.hpp"
#include "reliability/calibration.hpp"
#include "reliability/estimator.hpp"
#include "reliability/scenarios.hpp"
#include "track/tracking.hpp"

using namespace rfidsim;
using namespace rfidsim::reliability;

namespace {

constexpr std::uint64_t kSeed = 31337;

struct Policy {
  const char* name;
  std::vector<scene::BodySpot> spots;
};

}  // namespace

int main() {
  const CalibrationProfile cal = CalibrationProfile::paper2006();

  const Policy policies[] = {
      {"single front badge", {scene::BodySpot::Front}},
      {"front + back badges", {scene::BodySpot::Front, scene::BodySpot::Back}},
      {"four tags (F/B/sides)",
       {scene::BodySpot::Front, scene::BodySpot::Back, scene::BodySpot::SideNear,
        scene::BodySpot::SideFar}},
  };

  std::printf("== Gate reliability per badge policy (2-antenna doorway) ==\n");
  TextTable t({"policy", "1 person", "2 people (worst of pair)"});
  for (const Policy& policy : policies) {
    HumanScenarioOptions solo;
    solo.tag_spots = policy.spots;
    solo.portal.antenna_count = 2;
    const double one = measure_tracking_reliability(
        make_human_tracking_scenario(solo, cal), 40, kSeed);

    HumanScenarioOptions duo = solo;
    duo.subject_count = 2;
    const Scenario pair_scenario = make_human_tracking_scenario(duo, cal);
    const auto per_person = per_object_reliability(
        pair_scenario, run_repeated_parallel(pair_scenario, 40, kSeed));
    double worst = 1.0;
    for (const auto& [person, ci] : per_person) worst = std::min(worst, ci.estimate);

    t.add_row({policy.name, percent(one), percent(worst)});
  }
  std::fputs(t.render().c_str(), stdout);

  // What the door controller sees: the event stream of one pass, and when
  // the person is first identified relative to entering the gate zone.
  std::printf("\n== One pass through the gate (front + back badges) ==\n");
  HumanScenarioOptions opt;
  opt.tag_spots = {scene::BodySpot::Front, scene::BodySpot::Back};
  opt.portal.antenna_count = 2;
  const Scenario sc = make_human_tracking_scenario(opt, cal);
  sys::PortalSimulator sim(sc.scene, sc.portal);
  Rng rng(kSeed);
  const sys::EventLog log = sim.run(rng);
  std::printf("%zu events:\n", log.size());
  for (std::size_t i = 0; i < log.size() && i < 8; ++i) {
    std::printf("  t=%.2fs tag=%llu antenna=%zu\n", log[i].time_s,
                static_cast<unsigned long long>(log[i].tag.value), log[i].antenna_index);
  }
  if (log.size() > 8) std::printf("  ... %zu more\n", log.size() - 8);

  const track::TrackingAnalyzer analyzer(sc.registry);
  const track::PassReport report = analyzer.analyze(log);
  for (const auto& [person, first_seen] : report.first_seen_s) {
    // The subject starts 2.5 m before the gate at 1 m/s.
    std::printf("%s first identified %.2fs into the pass (%.2f m before the gate)\n",
                sc.registry.name_of(person).c_str(), first_seen, 2.5 - first_seen);
  }
  return 0;
}
