#include "fleet/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "reliability/analytical.hpp"

namespace rfidsim::fleet {
namespace {

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader = 0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  return ev;
}

FacilityBatch batch(FacilityId facility, double sent,
                    std::vector<sys::ReadEvent> events) {
  FacilityBatch b;
  b.facility = facility;
  b.sent_time_s = sent;
  b.arrival_time_s = sent;
  b.events = std::move(events);
  return b;
}

TEST(FacilityModelTest, IdentificationRcMatchesAnalyticalModel) {
  FacilityModel model;
  model.reader_read_rates = {0.3, 0.5, 0.2};
  model.reader_live = {true, true, true};
  EXPECT_DOUBLE_EQ(model.identification_rc(),
                   reliability::expected_reliability({0.3, 0.5, 0.2}));
  // Masking a dead reader removes its opportunity, exactly as the
  // degraded-mode grid does.
  model.reader_live = {true, false, true};
  EXPECT_DOUBLE_EQ(model.identification_rc(),
                   reliability::expected_reliability({0.3, 0.2}));
  // No live readers: no opportunities, no identification.
  model.reader_live = {false, false, false};
  EXPECT_DOUBLE_EQ(model.identification_rc(), 0.0);
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() {
    object_a_ = registry_.add_object("pallet-a");
    object_b_ = registry_.add_object("pallet-b");
    object_c_ = registry_.add_object("pallet-c");
    object_d_ = registry_.add_object("pallet-d");
    registry_.bind_tag(scene::TagId{1}, object_a_);
    registry_.bind_tag(scene::TagId{2}, object_b_);
    registry_.bind_tag(scene::TagId{3}, object_c_);
    registry_.bind_tag(scene::TagId{4}, object_d_);
    // Object A carries a second tag (the paper's many-tags-per-object).
    registry_.bind_tag(scene::TagId{11}, object_a_);
  }

  track::ObjectRegistry registry_;
  track::ObjectId object_a_, object_b_, object_c_, object_d_;
  TrackingStore store_;
};

TEST_F(QueryServiceTest, LocatePicksNewestSightingAcrossAnObjectsTags) {
  store_.ingest(batch(0, 10.0, {event(1.0, 1)}));
  store_.ingest(batch(1, 10.0, {event(5.0, 11)}));  // Second tag, later, elsewhere.
  QueryService query(store_, registry_);
  FacilityModel model;
  model.reader_read_rates = {0.8};
  query.set_facility_model(1, model);

  const LocateResult at_mid = query.locate(object_a_, 3.0);
  ASSERT_TRUE(at_mid.found);
  EXPECT_EQ(at_mid.facility, 0u);

  const LocateResult at_end = query.locate(object_a_, 10.0);
  ASSERT_TRUE(at_end.found);
  EXPECT_EQ(at_end.facility, 1u);
  EXPECT_DOUBLE_EQ(at_end.time_s, 5.0);
  EXPECT_DOUBLE_EQ(at_end.confidence, 0.8);

  EXPECT_FALSE(query.locate(object_c_, 10.0).found);
}

TEST_F(QueryServiceTest, InventoryListsObjectsWhoseLastLocationIsTheFacility) {
  store_.ingest(batch(0, 10.0, {event(1.0, 1), event(2.0, 2)}));
  store_.ingest(batch(1, 10.0, {event(5.0, 2), event(6.0, 4)}));
  QueryService query(store_, registry_);
  // B moved from 0 to 1; A stayed; D only ever seen at 1; C never seen.
  const auto at_zero = query.inventory(0, 10.0);
  ASSERT_EQ(at_zero.size(), 1u);
  EXPECT_EQ(at_zero[0], object_a_);
  const auto at_one = query.inventory(1, 10.0);
  ASSERT_EQ(at_one.size(), 2u);
  EXPECT_EQ(at_one[0], object_b_);
  EXPECT_EQ(at_one[1], object_d_);
  // Before B's move, it still inventories at facility 0.
  EXPECT_EQ(query.inventory(0, 3.0).size(), 2u);
}

TEST_F(QueryServiceTest, MissingGoldenFaultScenario) {
  // The acceptance scenario: facility 1 runs a two-reader portal with
  // reader 1 faulted (dead). Manifest expects A, B, C for the pass window
  // [100, 110]:
  //   A  sighted at facility 1 in the window           -> present
  //   B  sighted upstream (facility 0) at t=95, then
  //      missed by the degraded portal                 -> probably missed read
  //   C  never sighted anywhere in the fleet           -> probably absent
  //   D  sighted in the window but not on the manifest -> unexpected
  store_.ingest(batch(0, 96.0, {event(95.0, 2)}));
  store_.ingest(batch(1, 110.0, {event(105.0, 1), event(106.0, 4)}));

  QueryService query(store_, registry_);
  FacilityModel degraded;
  degraded.reader_read_rates = {0.5, 0.9};
  degraded.reader_live = {true, false};  // Reader 1 declared down.
  query.set_facility_model(1, degraded);

  track::Manifest manifest;
  manifest.expected = {object_a_, object_b_, object_c_};
  const MissingReport report = query.missing(manifest, 1, 100.0, 110.0);

  ASSERT_EQ(report.present.size(), 1u);
  EXPECT_EQ(report.present[0], object_a_);
  ASSERT_EQ(report.missed_reads.size(), 1u);
  EXPECT_EQ(report.missed_reads[0], object_b_);
  ASSERT_EQ(report.absent.size(), 1u);
  EXPECT_EQ(report.absent[0], object_c_);
  ASSERT_EQ(report.unexpected.size(), 1u);
  EXPECT_EQ(report.unexpected[0], object_d_);

  // The per-item evidence matches the §4 model: the miss probability is
  // 1 - R_C over the *live* readers only.
  const double rc_live = reliability::expected_reliability({0.5});
  for (const Reconciliation& item : report.items) {
    EXPECT_DOUBLE_EQ(item.miss_probability, 1.0 - rc_live);
    if (item.object == object_b_) {
      EXPECT_TRUE(item.custody_evidence);
      EXPECT_GT(item.posterior_present, query.config().decision_threshold);
    }
    if (item.object == object_c_) {
      EXPECT_FALSE(item.custody_evidence);
      EXPECT_LT(item.posterior_present, query.config().decision_threshold);
    }
  }
}

TEST_F(QueryServiceTest, HealthyPortalTurnsMissedReadIntoAbsent) {
  // Same custody evidence for B, but the portal is healthy: a miss at
  // R_C = 0.99 is strong evidence of absence, custody or not.
  store_.ingest(batch(0, 96.0, {event(95.0, 2)}));
  QueryService query(store_, registry_);
  FacilityModel healthy;
  healthy.reader_read_rates = {0.9, 0.9};
  healthy.reader_live = {true, true};
  query.set_facility_model(1, healthy);

  track::Manifest manifest;
  manifest.expected = {object_b_};
  const MissingReport report = query.missing(manifest, 1, 100.0, 110.0);
  ASSERT_EQ(report.items.size(), 1u);
  EXPECT_EQ(report.items[0].verdict, MissingVerdict::kProbablyAbsent);
  EXPECT_TRUE(report.items[0].custody_evidence);
}

TEST_F(QueryServiceTest, CustodyEvidenceExpiresWithTheHorizon) {
  // B was last seen 900 s before the window closes; with the default
  // 600 s horizon that sighting no longer props up the prior.
  store_.ingest(batch(0, 96.0, {event(95.0, 2)}));
  QueryService query(store_, registry_);
  FacilityModel degraded;
  degraded.reader_read_rates = {0.5};
  degraded.reader_live = {true};
  query.set_facility_model(1, degraded);

  track::Manifest manifest;
  manifest.expected = {object_b_};
  const MissingReport stale = query.missing(manifest, 1, 985.0, 995.0);
  ASSERT_EQ(stale.items.size(), 1u);
  EXPECT_FALSE(stale.items[0].custody_evidence);
  EXPECT_EQ(stale.items[0].verdict, MissingVerdict::kProbablyAbsent);
}

TEST_F(QueryServiceTest, LocateInventoryAndCustodyAgreeOnTheNewestSighting) {
  // Object E carries tags 32 and 31, bound in that order. At t = 5 both
  // are sighted, 32 at facility 2 and 31 at facility 1: a tie, which the
  // first tag in tags_of order (32) wins. At t = 50 tag 31 alone is
  // sighted again at facility 1, which makes it the newest sighting.
  const track::ObjectId object_e = registry_.add_object("pallet-e");
  registry_.bind_tag(scene::TagId{32}, object_e);
  registry_.bind_tag(scene::TagId{31}, object_e);
  store_.ingest(batch(2, 10.0, {event(5.0, 32)}));
  store_.ingest(batch(1, 10.0, {event(5.0, 31)}));
  store_.ingest(batch(1, 60.0, {event(50.0, 31)}));
  // A 15 s horizon puts each window's winning sighting exactly on the
  // custody boundary, so an older pick would lose the evidence.
  QueryConfig config;
  config.custody_horizon_s = 15.0;
  QueryService query(store_, registry_, config);
  const auto holds = [&](FacilityId facility, double t) {
    const std::vector<track::ObjectId> objects = query.inventory(facility, t);
    return std::find(objects.begin(), objects.end(), object_e) != objects.end();
  };
  track::Manifest manifest;
  manifest.expected = {object_e};

  const LocateResult tie = query.locate(object_e, 20.0);
  ASSERT_TRUE(tie.found);
  EXPECT_EQ(tie.facility, 2u);
  EXPECT_DOUBLE_EQ(tie.time_s, 5.0);
  EXPECT_TRUE(holds(2, 20.0));
  EXPECT_FALSE(holds(1, 20.0));
  const MissingReport at_tie = query.missing(manifest, 0, 10.0, 20.0);
  ASSERT_EQ(at_tie.items.size(), 1u);
  EXPECT_TRUE(at_tie.items[0].custody_evidence);  // 5 >= 20 - 15.

  const LocateResult newer = query.locate(object_e, 60.0);
  ASSERT_TRUE(newer.found);
  EXPECT_EQ(newer.facility, 1u);
  EXPECT_DOUBLE_EQ(newer.time_s, 50.0);
  EXPECT_TRUE(holds(1, 60.0));
  EXPECT_FALSE(holds(2, 60.0));
  const MissingReport later = query.missing(manifest, 0, 55.0, 65.0);
  ASSERT_EQ(later.items.size(), 1u);
  EXPECT_TRUE(later.items[0].custody_evidence);  // 50 >= 65 - 15; 5 is not.
}

TEST_F(QueryServiceTest, FacilityModelTakesAnyFacilityId) {
  // The largest id: a table indexed by id would need 2^32 entries, and
  // resizing it to facility + 1 wraps to 0 in 32-bit arithmetic.
  constexpr FacilityId kLast = 0xFFFFFFFFu;
  store_.ingest(batch(kLast, 10.0, {event(1.0, 2)}));
  QueryService query(store_, registry_);
  FacilityModel model;
  model.reader_read_rates = {0.8};
  query.set_facility_model(kLast, model);
  model.reader_read_rates = {0.5};
  query.set_facility_model(3, model);

  ASSERT_NE(query.facility_model(kLast), nullptr);
  EXPECT_DOUBLE_EQ(query.facility_model(kLast)->identification_rc(), 0.8);
  ASSERT_NE(query.facility_model(3), nullptr);
  EXPECT_DOUBLE_EQ(query.facility_model(3)->identification_rc(), 0.5);
  EXPECT_EQ(query.facility_model(0), nullptr);
  EXPECT_EQ(query.facility_model(kLast - 1), nullptr);
  EXPECT_DOUBLE_EQ(query.locate(object_b_, 10.0).confidence, 0.8);

  model.reader_read_rates = {0.25};
  query.set_facility_model(kLast, model);  // Replaces, does not add.
  EXPECT_DOUBLE_EQ(query.facility_model(kLast)->identification_rc(), 0.25);
}

TEST_F(QueryServiceTest, RejectsBadConfig) {
  QueryConfig bad_prior;
  bad_prior.prior_present_seen = 1.0;
  EXPECT_THROW(QueryService(store_, registry_, bad_prior), ConfigError);
  QueryConfig bad_threshold;
  bad_threshold.decision_threshold = 0.0;
  EXPECT_THROW(QueryService(store_, registry_, bad_threshold), ConfigError);
  QueryService ok(store_, registry_);
  track::Manifest manifest;
  EXPECT_THROW(ok.missing(manifest, 0, 1.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace rfidsim::fleet
