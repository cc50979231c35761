// The fleet health surface: FleetService::health_snapshot() and its JSON
// serialization. The snapshot is built from always-on state (feed totals,
// monitor arithmetic, store stats), so every structural assertion here
// holds with obs hooks on, off, or compiled out — only the provenance
// chain test at the bottom needs hooks.
#include "fleet/health.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/service.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace rfidsim::fleet {
namespace {

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader = 0,
                     std::size_t antenna = 0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  ev.antenna_index = antenna;
  return ev;
}

FeedConfig feed_config(std::size_t readers, std::size_t objects) {
  FeedConfig config;
  config.ingest.reader_count = readers;
  config.objects_total = objects;
  config.ingest.silence_gap_s = 3.0;
  return config;
}

/// One clean pass: every tag read by every reader, twice, spread over the
/// window (same shape as service_test.cpp).
sys::EventLog full_pass(const std::vector<std::uint64_t>& tags, std::size_t readers,
                        double begin_s, double width_s = 10.0) {
  sys::EventLog log;
  const std::size_t count = tags.size() * readers * 2;
  const double dt = (width_s - 0.2) / static_cast<double>(count);
  double t = begin_s + 0.1;
  for (std::size_t rep = 0; rep < 2; ++rep) {
    for (const std::uint64_t tag : tags) {
      for (std::size_t r = 0; r < readers; ++r) {
        log.push_back(event(t, tag, r));
        t += dt;
      }
    }
  }
  return log;
}

track::ObjectRegistry three_object_registry() {
  track::ObjectRegistry registry;
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    registry.bind_tag(scene::TagId{tag}, registry.add_object("obj"));
  }
  return registry;
}

TEST(FleetHealthTest, EmptyServiceReportsAnUnknownWatermark) {
  const track::ObjectRegistry registry;
  const FleetService service(registry);
  const FleetHealth health = service.health_snapshot();
  EXPECT_EQ(health.facilities, 0u);
  EXPECT_EQ(health.tags, 0u);
  EXPECT_EQ(health.sightings, 0u);
  EXPECT_EQ(health.alerts_total, 0u);
  EXPECT_EQ(health.stalled_facilities, 0u);
  EXPECT_EQ(health.min_watermark_s, -1.0);
  EXPECT_TRUE(health.per_facility.empty());

  // Byte-exact writer golden on a default-constructed document (the live
  // snapshot's obs tallies depend on what earlier tests in this binary
  // dumped; the writer's format must not).
  std::ostringstream json;
  write_health_json(json, FleetHealth{});
  EXPECT_EQ(json.str(),
            "{\"facilities\":0,\"tags\":0,\"sightings\":0,\"alerts_total\":0,"
            "\"stalled_facilities\":0,\"min_watermark_s\":-1.000000,"
            "\"store\":{\"batches\":0,\"events\":0,\"accepted\":0,"
            "\"duplicates\":0,\"repairs\":0,\"late_batches\":0},"
            "\"obs\":{\"provenance_dropped\":0,\"flight_dump_attempts\":0,"
            "\"flight_dump_failures\":0,\"crash_handler_installed\":false},"
            "\"per_facility\":[]}\n");

  // The live snapshot carries the telemetry self-health section too.
  std::ostringstream live;
  write_health_json(live, health);
  EXPECT_NE(live.str().find("\"obs\":{\"provenance_dropped\":"),
            std::string::npos);
  EXPECT_EQ(health.provenance_dropped, obs::provenance_log().dropped());
  EXPECT_EQ(health.flight_dump_attempts, obs::flight_dump_attempts());
  EXPECT_EQ(health.flight_dump_failures, obs::flight_dump_failures());
}

/// One healthy facility, one whose uplink is dark from the start: the
/// health document must pin the failure to the right facility.
TEST(FleetHealthTest, DarkFacilityShowsUpStalledWithAnUnknownWatermark) {
  const track::ObjectRegistry registry = three_object_registry();
  FleetService service(registry);
  const FacilityId healthy = service.add_facility(feed_config(2, 3));
  const FacilityId dark = service.add_facility(feed_config(2, 3));
  Rng rng(7);
  const sys::EventLog empty;
  for (int pass = 0; pass < 4; ++pass) {
    const double begin = 10.0 * pass;
    (void)service.ingest_pass(healthy, full_pass({1, 2, 3}, 2, begin), begin,
                              begin + 10.0, rng);
    (void)service.ingest_pass(dark, empty, begin, begin + 10.0, rng);
  }

  const FleetHealth health = service.health_snapshot();
  EXPECT_EQ(health.facilities, 2u);
  ASSERT_EQ(health.per_facility.size(), 2u);
  EXPECT_EQ(health.tags, 3u);
  EXPECT_GT(health.sightings, 0u);
  EXPECT_EQ(health.store.batches, health.per_facility[0].totals.delivered_batches);

  const FacilityHealth& ok = health.per_facility[healthy];
  EXPECT_EQ(ok.facility, healthy);
  EXPECT_EQ(ok.passes, 4u);
  EXPECT_GT(ok.watermark_s, 30.0);  // Last pass's events merged.
  EXPECT_TRUE(std::isfinite(ok.watermark_age_s));
  EXPECT_FALSE(ok.watermark_stalled);
  EXPECT_EQ(ok.alerts_by_type[static_cast<std::size_t>(
                obs::AlertType::kWatermarkStalled)],
            0u);

  const FacilityHealth& bad = health.per_facility[dark];
  EXPECT_EQ(bad.facility, dark);
  EXPECT_EQ(bad.passes, 4u);
  EXPECT_EQ(bad.watermark_s, -1.0);  // Nothing ever merged.
  EXPECT_TRUE(std::isinf(bad.watermark_age_s));
  // Default stall threshold is 3 passes; the fourth dark pass latched it.
  EXPECT_TRUE(bad.watermark_stalled);
  EXPECT_GE(bad.watermark_stall_streak, 3u);
  EXPECT_EQ(bad.alerts_by_type[static_cast<std::size_t>(
                obs::AlertType::kWatermarkStalled)],
            1u);
  EXPECT_GE(bad.alerts_total, 1u);

  // Fleet rollup: the dark facility drags the freshness floor to unknown.
  EXPECT_EQ(health.stalled_facilities, 1u);
  EXPECT_EQ(health.min_watermark_s, -1.0);
  EXPECT_GE(health.alerts_total, bad.alerts_total);
}

TEST(FleetHealthTest, MinWatermarkIsTheSlowestFacility) {
  const track::ObjectRegistry registry = three_object_registry();
  FleetService service(registry);
  const FacilityId fast = service.add_facility(feed_config(2, 3));
  const FacilityId slow = service.add_facility(feed_config(2, 3));
  Rng rng(7);
  (void)service.ingest_pass(fast, full_pass({1, 2}, 2, 0.0), 0.0, 10.0, rng);
  (void)service.ingest_pass(fast, full_pass({1, 2}, 2, 10.0), 10.0, 20.0, rng);
  (void)service.ingest_pass(slow, full_pass({3}, 2, 0.0), 0.0, 10.0, rng);

  const FleetHealth health = service.health_snapshot();
  const double fast_mark = health.per_facility[fast].watermark_s;
  const double slow_mark = health.per_facility[slow].watermark_s;
  EXPECT_GT(fast_mark, 10.0);
  EXPECT_GT(slow_mark, 0.0);
  EXPECT_LT(slow_mark, 10.0);
  EXPECT_EQ(health.min_watermark_s, slow_mark);
  EXPECT_EQ(health.stalled_facilities, 0u);
}

TEST(FleetHealthTest, JsonRowsCarryStallStateAndSentinelAges) {
  const track::ObjectRegistry registry = three_object_registry();
  FleetService service(registry);
  const FacilityId healthy = service.add_facility(feed_config(2, 3));
  const FacilityId dark = service.add_facility(feed_config(2, 3));
  Rng rng(7);
  const sys::EventLog empty;
  for (int pass = 0; pass < 4; ++pass) {
    const double begin = 10.0 * pass;
    (void)service.ingest_pass(healthy, full_pass({1, 2, 3}, 2, begin), begin,
                              begin + 10.0, rng);
    (void)service.ingest_pass(dark, empty, begin, begin + 10.0, rng);
  }
  std::ostringstream out;
  write_health_json(out, service.health_snapshot());
  const std::string json = out.str();
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // One line.
  EXPECT_NE(json.find("\"watermark_stalled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"watermark_stalled\":false"), std::string::npos);
  // Non-finite age collapses to the JSON "unknown" sentinel -1 (no JSON
  // encoding for Inf), distinct from finite -1.000000 values.
  EXPECT_NE(json.find("\"watermark_age_s\":-1,"), std::string::npos);
  EXPECT_NE(json.find("\"min_watermark_s\":-1.000000"), std::string::npos);
  EXPECT_NE(json.find("\"watermark_stalled\":1"), std::string::npos);  // Alert tally.
  EXPECT_NE(json.find("\"totals\":{\"delivered_batches\":"), std::string::npos);
}

/// Every facility owns a monitor, so the monitor's estimates are reported
/// per facility by health_snapshot() and have no unlabelled registry
/// gauge: with two facilities such a gauge could only hold whichever
/// monitor wrote last.
TEST(FleetHealthTest, MonitorEstimatesAreReportedPerFacilityOnly) {
  const track::ObjectRegistry registry = three_object_registry();
  FleetService service(registry);
  const FacilityId all_three = service.add_facility(feed_config(2, 3));
  const FacilityId one_of_three = service.add_facility(feed_config(2, 3));
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  Rng rng(7);
  (void)service.ingest_pass(all_three, full_pass({1, 2, 3}, 2, 0.0), 0.0, 10.0, rng);
  (void)service.ingest_pass(one_of_three, full_pass({1}, 2, 0.0), 0.0, 10.0, rng);
  std::ostringstream exposition;
  obs::registry().write_exposition(exposition);
  obs::set_enabled(saved);

  const FleetHealth health = service.health_snapshot();
  EXPECT_DOUBLE_EQ(health.per_facility[all_three].observed_rc, 1.0);
  EXPECT_DOUBLE_EQ(health.per_facility[one_of_three].observed_rc, 1.0 / 3.0);
  for (std::string family :
       {"obs.monitor.observed_rc", "obs.monitor.predicted_rc",
        "obs.monitor.reader_read_rate", "obs.monitor.reader_cusum",
        "obs.monitor.watermark_stall_streak"}) {
    std::replace(family.begin(), family.end(), '.', '_');
    EXPECT_EQ(exposition.str().find("# TYPE rfidsim_" + family + " "), std::string::npos)
        << family;
  }
}

/// The always-on contract, stated as an equality: the serialized snapshot
/// of an identical run must be byte-identical with the obs master switch
/// on and off (and the OBS=OFF CI job re-runs this whole file compiled
/// out).
TEST(FleetHealthTest, SnapshotIsByteIdenticalWithHooksOff) {
  const track::ObjectRegistry registry = three_object_registry();
  const auto run = [&registry] {
    FleetService service(registry);
    const FacilityId healthy = service.add_facility(feed_config(2, 3));
    const FacilityId dark = service.add_facility(feed_config(2, 3));
    Rng rng(7);
    const sys::EventLog empty;
    for (int pass = 0; pass < 4; ++pass) {
      const double begin = 10.0 * pass;
      (void)service.ingest_pass(healthy, full_pass({1, 2, 3}, 2, begin), begin,
                                begin + 10.0, rng);
      (void)service.ingest_pass(dark, empty, begin, begin + 10.0, rng);
    }
    std::ostringstream json;
    write_health_json(json, service.health_snapshot());
    return json.str();
  };
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  const std::string with_hooks = run();
  obs::set_enabled(false);
  const std::string without_hooks = run();
  obs::set_enabled(saved);
  EXPECT_EQ(with_hooks, without_hooks);
}

/// End-to-end provenance: one clean pass leaves every store-bound batch a
/// complete hop chain enqueued -> encoded -> delivered -> validated ->
/// merged in the process-wide log. Under -DRFIDSIM_OBS=OFF the log stays
/// empty but the ids themselves are still minted (plumbing, not telemetry).
TEST(FleetHealthTest, IngestPassLeavesACompleteProvenanceChain) {
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  obs::provenance_log().clear();

  const track::ObjectRegistry registry = three_object_registry();
  FleetService service(registry);
  const FacilityId facility = service.add_facility(feed_config(2, 3));
  Rng rng(7);
  const FeedPassResult result =
      service.ingest_pass(facility, full_pass({1, 2, 3}, 2, 0.0), 0.0, 10.0, rng);
  ASSERT_FALSE(result.batches.empty());
  const std::uint64_t id = result.batches[0].batch_id;
  EXPECT_NE(id, 0u);  // Minted in every build.

  const std::vector<obs::ProvenanceRecord> chain = obs::provenance_log().history(id);
  obs::provenance_log().clear();
  obs::set_enabled(saved);
#ifdef RFIDSIM_OBS_DISABLED
  EXPECT_TRUE(chain.empty());
#else
  // The expected hops must appear in pipeline order; late/stale records
  // may interleave, so assert the subsequence rather than the whole chain.
  const obs::BatchHop expected[] = {
      obs::BatchHop::kEnqueued, obs::BatchHop::kEncoded,
      obs::BatchHop::kDelivered, obs::BatchHop::kValidated,
      obs::BatchHop::kMerged};
  std::size_t next = 0;
  for (const obs::ProvenanceRecord& record : chain) {
    EXPECT_EQ(record.batch_id, id);
    if (next < std::size(expected) && record.hop == expected[next]) ++next;
  }
  EXPECT_EQ(next, std::size(expected))
      << "chain stopped before " << obs::batch_hop_name(expected[next]);
#endif
}

}  // namespace
}  // namespace rfidsim::fleet
