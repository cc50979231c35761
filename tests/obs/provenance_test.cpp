#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "obs/metrics.hpp"

namespace rfidsim::obs {
namespace {

/// Under -DRFIDSIM_OBS=OFF record() is compiled down to nothing; the
/// recording tests then assert exactly that instead of skipping. Batch-id
/// minting is plumbing, not telemetry, and must work in both builds.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kCompiledOut = true;
#else
constexpr bool kCompiledOut = false;
#endif

/// Recording tests need hooks on (and restored afterwards — the switch is
/// process-wide).
class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(saved_); }

 private:
  bool saved_ = false;
};

TEST(ProvenanceBatchIdTest, IdsAreDeterministicNonZeroAndWellMixed) {
  EXPECT_EQ(provenance_batch_id(0, 0), provenance_batch_id(0, 0));
  EXPECT_NE(provenance_batch_id(0, 0), 0u);
  EXPECT_NE(provenance_batch_id(kNoFacility, 7), 0u);
  std::set<std::uint64_t> ids;
  for (std::uint32_t f = 0; f < 8; ++f) {
    for (std::uint64_t s = 0; s < 64; ++s) ids.insert(provenance_batch_id(f, s));
  }
  EXPECT_EQ(ids.size(), 8u * 64u);
}

TEST(ProvenanceBatchIdTest, HopNamesAreStable) {
  EXPECT_STREQ(batch_hop_name(BatchHop::kEnqueued), "enqueued");
  EXPECT_STREQ(batch_hop_name(BatchHop::kQuarantined), "quarantined");
  EXPECT_STREQ(batch_hop_name(BatchHop::kMerged), "merged");
  EXPECT_STREQ(batch_hop_name(BatchHop::kCheckpointed), "checkpointed");
  EXPECT_STREQ(batch_hop_name(BatchHop::kRestored), "restored");
}

TEST_F(ProvenanceTest, RecordSnapshotAndPerBatchHistory) {
  ProvenanceLog log(8);
  const std::uint64_t id = provenance_batch_id(1, 0);
  const std::uint64_t other = provenance_batch_id(2, 0);
  log.record({id, BatchHop::kEnqueued, 1, 100, 0.5});
  log.record({other, BatchHop::kEnqueued, 2, 50, 0.6});
  log.record({id, BatchHop::kMerged, 1, 100, 1.5});
  if (kCompiledOut) {
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_TRUE(log.snapshot().empty());
    return;
  }
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  const std::vector<ProvenanceRecord> all = log.snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].hop, BatchHop::kEnqueued);
  EXPECT_EQ(all[2].hop, BatchHop::kMerged);
  // history() reconstructs one batch's pipeline walk, oldest first.
  const std::vector<ProvenanceRecord> chain = log.history(id);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].hop, BatchHop::kEnqueued);
  EXPECT_EQ(chain[1].hop, BatchHop::kMerged);
  EXPECT_EQ(chain[1].value, 100u);
  EXPECT_EQ(chain[1].time_s, 1.5);
}

TEST_F(ProvenanceTest, RingWrapKeepsNewestAndTalliesDrops) {
  ProvenanceLog log(8);
  for (std::uint64_t i = 0; i < 11; ++i) {
    log.record({provenance_batch_id(0, i), BatchHop::kEnqueued, 0, i, 0.0});
  }
  if (kCompiledOut) {
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
    return;
  }
  EXPECT_EQ(log.recorded(), 11u);
  EXPECT_EQ(log.dropped(), 3u);
  const std::vector<ProvenanceRecord> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.front().value, 3u);  // 0..2 were overwritten.
  EXPECT_EQ(kept.back().value, 10u);
}

TEST_F(ProvenanceTest, DisabledHooksRecordNothing) {
  set_enabled(false);
  ProvenanceLog log(8);
  log.record({1, BatchHop::kEnqueued, 0, 1, 0.0});
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST_F(ProvenanceTest, ClearDiscardsRecordsAndTheLogKeepsWorking) {
  ProvenanceLog log(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    log.record({1, BatchHop::kEnqueued, 0, i, 0.0});
  }
  log.clear();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  log.record({2, BatchHop::kMerged, 0, 7, 0.0});
  EXPECT_EQ(log.recorded(), kCompiledOut ? 0u : 1u);
}

TEST_F(ProvenanceTest, ProcessWideLogIsOneInstance) {
  EXPECT_EQ(&provenance_log(), &provenance_log());
}

}  // namespace
}  // namespace rfidsim::obs
