// gen2::reliable — multi-session inventory, session fusion, and MPR.
//
// Covers the redundancy-axes subsystem: MultiSessionInventory determinism
// (golden and randomized), SessionFusion confidence monotonicity in K,
// MPR round accounting with the M = 1 bit-identity contract against the
// conventional InventoryEngine, and the Pudasaini optimal-load goldens
// (lambda*(2) is the golden ratio).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen2/inventory.hpp"
#include "gen2/reliable/fusion.hpp"
#include "gen2/reliable/mpr.hpp"
#include "gen2/reliable/multi_session.hpp"

namespace rfidsim::gen2::reliable {
namespace {

/// Powers `n` tags with configurable links (mirrors inventory_test.cpp).
struct Population {
  std::vector<TagState> states;
  std::vector<TagLink> links;

  explicit Population(std::size_t n, double decode_probability = 1.0) {
    states.resize(n);
    links.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      states[i].set_powered(true, 0.0);
      links[i].powered = true;
      links[i].reply_decode_probability = decode_probability;
      links[i].rx_power = DbmPower(-55.0);
    }
  }
};

InventoryConfig base_config(double initial_q = 2.0) {
  InventoryConfig cfg;
  cfg.q.initial_q = initial_q;
  return cfg;
}

// ---------------------------------------------------------------- MPR math

TEST(MprMathTest, OptimalLoadGoldens) {
  // M = 1: the classic slotted-ALOHA optimum, exactly.
  EXPECT_DOUBLE_EQ(optimal_slot_load(1), 1.0);
  // M = 2: the positive root of 1 + lambda - lambda^2 = 0 is the golden
  // ratio (Pudasaini et al. eq. for N = 2).
  const double golden = (1.0 + std::sqrt(5.0)) / 2.0;
  EXPECT_NEAR(optimal_slot_load(2), golden, 1e-9);
}

TEST(MprMathTest, OptimalLoadIncreasesWithCapability) {
  double prev = 0.0;
  for (int m = 1; m <= 8; ++m) {
    const double load = optimal_slot_load(m);
    EXPECT_GT(load, prev) << "m=" << m;
    prev = load;
  }
  // And stays below the m replies/slot a perfect reader could absorb.
  EXPECT_LT(prev, 9.0);
}

TEST(MprMathTest, OptimalLoadMaximizesThroughput) {
  for (int m = 1; m <= 6; ++m) {
    const double star = optimal_slot_load(m);
    const double at_star = expected_decodes_per_slot(star, m);
    for (const double delta : {-0.2, -0.05, 0.05, 0.2}) {
      EXPECT_GE(at_star, expected_decodes_per_slot(star + delta, m))
          << "m=" << m << " delta=" << delta;
    }
  }
}

TEST(MprMathTest, OptimalQMatchesTextbookAtMEqualsOne) {
  // Q* = round(log2(N)) for a conventional reader.
  EXPECT_EQ(optimal_q(64, 1), 6);
  EXPECT_EQ(optimal_q(100, 1), 7);
  EXPECT_EQ(optimal_q(1, 1), 0);
  EXPECT_EQ(optimal_q(0, 1), 0);
}

TEST(MprMathTest, OptimalQShrinksWithCapability) {
  // An MPR reader wants a SMALLER frame for the same population.
  EXPECT_LE(optimal_q(256, 4), optimal_q(256, 2));
  EXPECT_LE(optimal_q(256, 2), optimal_q(256, 1));
  // The offset is the closed form -log2(lambda*).
  EXPECT_NEAR(optimal_q_offset(1), 0.0, 1e-12);
  EXPECT_NEAR(optimal_q_offset(2), -std::log2((1.0 + std::sqrt(5.0)) / 2.0), 1e-9);
}

TEST(MprMathTest, ExpectedDecodesLimits) {
  // Zero load decodes nothing; m -> large approaches lambda.
  EXPECT_DOUBLE_EQ(expected_decodes_per_slot(0.0, 3), 0.0);
  EXPECT_NEAR(expected_decodes_per_slot(0.5, 64), 0.5, 1e-9);
}

// --------------------------------------------------------- M = 1 identity

TEST(MprBitIdentityTest, MEqualsOneMatchesConventionalEngine) {
  // The contract InventoryConfig::mpr_capacity documents: an engine with
  // mpr_capacity = 1 runs the exact code path of the conventional engine —
  // identical singulation order, slot accounting, durations, and RNG
  // consumption, over randomized populations with lossy links and
  // capture-prone power spreads.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng setup(seed);
    const auto n = static_cast<std::size_t>(setup.uniform_int(1, 40));
    Population pop_a(n);
    Population pop_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double decode = setup.uniform(0.3, 1.0);
      const double power = setup.uniform(-70.0, -50.0);
      pop_a.links[i].reply_decode_probability = decode;
      pop_b.links[i].reply_decode_probability = decode;
      pop_a.links[i].rx_power = DbmPower(power);
      pop_b.links[i].rx_power = DbmPower(power);
    }

    InventoryConfig cfg = base_config(setup.uniform(1.0, 4.0));
    cfg.command_jam_probability = setup.uniform(0.0, 0.1);
    InventoryEngine conventional(cfg);
    InventoryConfig mpr_cfg = cfg;
    mpr_cfg.mpr_capacity = 1;
    InventoryEngine mpr(mpr_cfg);

    Rng rng_a(seed * 1000 + 1);
    Rng rng_b(seed * 1000 + 1);
    for (int round = 0; round < 6; ++round) {
      const auto a =
          conventional.run_round(pop_a.states, pop_a.links, 0.05 * round, rng_a);
      const auto b = mpr.run_round(pop_b.states, pop_b.links, 0.05 * round, rng_b);
      ASSERT_EQ(a.singulated, b.singulated) << "seed=" << seed << " round=" << round;
      ASSERT_EQ(a.total_slots, b.total_slots);
      ASSERT_EQ(a.empty_slots, b.empty_slots);
      ASSERT_EQ(a.collision_slots, b.collision_slots);
      ASSERT_EQ(a.success_slots, b.success_slots);
      ASSERT_EQ(b.mpr_decodes, 0u) << "MPR-1 must never report MPR decodes";
      ASSERT_DOUBLE_EQ(a.duration_s, b.duration_s);
      ASSERT_DOUBLE_EQ(a.final_q, b.final_q);
      // Same RNG consumption: the streams stay aligned round after round.
      ASSERT_EQ(rng_a.uniform_int(0, 1u << 30), rng_b.uniform_int(0, 1u << 30));
    }
  }
}

TEST(MprEngineTest, MprTwoDecodesCollidedSlots) {
  // 2 tags forced into the same slot (Q = 0 frame): a conventional reader
  // loses the slot (equal powers, no capture); an MPR-2 reader reads both.
  InventoryConfig cfg = base_config(0.0);
  cfg.adjust_mid_round = false;

  Population conv_pop(2);
  InventoryEngine conventional(cfg);
  Rng rng_a(3);
  const auto conv = conventional.run_round(conv_pop.states, conv_pop.links, 0.0, rng_a);
  EXPECT_EQ(conv.singulated.size(), 0u);
  EXPECT_GE(conv.collision_slots, 1u);

  Population mpr_pop(2);
  cfg.mpr_capacity = 2;
  InventoryEngine mpr(cfg);
  Rng rng_b(3);
  const auto both = mpr.run_round(mpr_pop.states, mpr_pop.links, 0.0, rng_b);
  EXPECT_EQ(both.singulated.size(), 2u);
  EXPECT_EQ(both.mpr_decodes, 2u);
  EXPECT_EQ(both.collision_slots, 0u);
}

TEST(MprEngineTest, RoundAccountingConsistent) {
  // Slot taxonomy partitions total_slots for any capability.
  for (int m = 1; m <= 3; ++m) {
    InventoryConfig cfg = base_config(2.0);
    cfg.mpr_capacity = m;
    InventoryEngine engine(cfg);
    Population pop(15, 0.8);
    Rng rng(11);
    for (int round = 0; round < 5; ++round) {
      const auto r = engine.run_round(pop.states, pop.links, 0.05 * round, rng);
      EXPECT_EQ(r.empty_slots + r.collision_slots + r.success_slots, r.total_slots)
          << "m=" << m;
      EXPECT_LE(r.mpr_decodes, r.singulated.size());
      if (m == 1) EXPECT_EQ(r.mpr_decodes, 0u);
    }
  }
}

// -------------------------------------------------------- multi-session

MultiSessionConfig three_session_config(SessionSchedule schedule) {
  MultiSessionConfig cfg;
  cfg.base = base_config(3.0);
  cfg.sessions = {Session::S1, Session::S2, Session::S3};
  cfg.schedule = schedule;
  cfg.rounds_per_session = 3;
  return cfg;
}

TEST(MultiSessionTest, EverySessionReadsTheWholePopulationOnCleanLinks) {
  // Perfect links: each of the 3 session passes independently reads all
  // tags — per-session flags never interfere.
  MultiSessionInventory inv(three_session_config(SessionSchedule::kInterleaved));
  Population pop(10);
  Rng rng(5);
  const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
  ASSERT_EQ(r.per_session.size(), 3u);
  for (const SessionPassResult& pass : r.per_session) {
    EXPECT_EQ(pass.read_tags.size(), 10u)
        << "session " << static_cast<int>(pass.session);
  }
  ASSERT_EQ(r.sessions_seen.size(), 10u);
  for (std::size_t c : r.sessions_seen) EXPECT_EQ(c, 3u);
  EXPECT_GT(r.total_duration_s, 0.0);
}

TEST(MultiSessionTest, PassesNeverMutateOtherSessionsFlags) {
  // Engine-level independence: after ONLY the S2 pass runs, S1/S3 flags
  // of every read tag are still A (ready to answer their own passes).
  MultiSessionConfig cfg;
  cfg.base = base_config(3.0);
  cfg.sessions = {Session::S2};
  cfg.rounds_per_session = 4;
  MultiSessionInventory inv(cfg);
  Population pop(8);
  Rng rng(9);
  const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
  ASSERT_EQ(r.per_session[0].read_tags.size(), 8u);
  const double t_end = r.total_duration_s;
  for (const TagState& st : pop.states) {
    EXPECT_EQ(st.flag(t_end, Session::S2), InventoriedFlag::B);
    EXPECT_EQ(st.flag(t_end, Session::S1), InventoriedFlag::A);
    EXPECT_EQ(st.flag(t_end, Session::S3), InventoriedFlag::A);
  }
}

TEST(MultiSessionTest, DeterministicGolden) {
  // Fixed seed, fixed config: the sweep is a pure function of the RNG.
  // Golden-pins the aggregate shape; the randomized repeat below pins
  // equality structurally.
  MultiSessionInventory inv(three_session_config(SessionSchedule::kInterleaved));
  Population pop(6, 0.9);
  Rng rng(20070625);
  const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
  std::size_t total_reads = 0;
  for (const auto& pass : r.per_session) total_reads += pass.read_tags.size();
  const std::size_t seen_total =
      std::accumulate(r.sessions_seen.begin(), r.sessions_seen.end(), std::size_t{0});
  EXPECT_EQ(total_reads, seen_total);
  // Golden values for this seed (update deliberately if the engine's RNG
  // draw order ever changes — that is the point of the pin).
  EXPECT_EQ(r.per_session[0].rounds, 3u);
  EXPECT_EQ(r.per_session[1].rounds, 3u);
  EXPECT_EQ(r.per_session[2].rounds, 3u);
  EXPECT_EQ(seen_total, 18u) << "clean 6-tag population, 3 sessions";
}

TEST(MultiSessionTest, RepeatedRunsAreIdentical) {
  for (const auto schedule :
       {SessionSchedule::kSequential, SessionSchedule::kInterleaved}) {
    for (std::uint64_t seed : {1ull, 42ull, 20070625ull}) {
      auto run_once = [&] {
        MultiSessionInventory inv(three_session_config(schedule));
        Population pop(12, 0.7);
        Rng rng(seed);
        return inv.run(pop.states, pop.links, 0.0, rng);
      };
      const MultiSessionResult a = run_once();
      const MultiSessionResult b = run_once();
      ASSERT_EQ(a.sessions_seen, b.sessions_seen) << "seed=" << seed;
      ASSERT_DOUBLE_EQ(a.total_duration_s, b.total_duration_s);
      for (std::size_t i = 0; i < a.per_session.size(); ++i) {
        ASSERT_EQ(a.per_session[i].read_tags, b.per_session[i].read_tags);
        ASSERT_EQ(a.per_session[i].singulations, b.per_session[i].singulations);
        ASSERT_DOUBLE_EQ(a.per_session[i].duration_s, b.per_session[i].duration_s);
      }
    }
  }
}

TEST(MultiSessionTest, SequentialAndInterleavedCoverEqually) {
  // On clean links both schedules read everything; they differ only in
  // WHEN each session's rounds run.
  for (const auto schedule :
       {SessionSchedule::kSequential, SessionSchedule::kInterleaved}) {
    MultiSessionInventory inv(three_session_config(schedule));
    Population pop(10);
    Rng rng(13);
    const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
    for (std::size_t c : r.sessions_seen) EXPECT_EQ(c, 3u);
  }
}

TEST(MultiSessionTest, LossyLinksYieldPartialSessionCounts) {
  // With weak links, sessions_seen spreads over 0..K — the fusion input
  // actually exercises intermediate counts.
  MultiSessionConfig cfg = three_session_config(SessionSchedule::kInterleaved);
  cfg.rounds_per_session = 1;
  MultiSessionInventory inv(cfg);
  Population pop(30, 0.35);
  Rng rng(17);
  const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
  std::array<std::size_t, 4> histogram{};
  for (std::size_t c : r.sessions_seen) ++histogram[std::min<std::size_t>(c, 3)];
  // Not all-or-nothing: some tag landed strictly between 0 and K passes.
  EXPECT_GT(histogram[1] + histogram[2], 0u);
}

// --------------------------------------------------------------- fusion

FusionConfig identical_sessions(std::size_t k, double p, double f = 0.0) {
  FusionConfig cfg;
  for (std::size_t i = 0; i < k; ++i) {
    cfg.sessions.push_back(SessionModel{static_cast<Session>((i % 3) + 1), p, f});
  }
  return cfg;
}

TEST(FusionTest, FusedDetectionProbabilityMatchesIndependenceModel) {
  FusionConfig cfg;
  cfg.sessions = {SessionModel{Session::S1, 0.9, 0.0},
                  SessionModel{Session::S2, 0.8, 0.0},
                  SessionModel{Session::S3, 0.7, 0.0}};
  const SessionFusion fusion(cfg);
  // R_C = 1 - (1-0.9)(1-0.8)(1-0.7).
  EXPECT_NEAR(fusion.fused_detection_probability(), 1.0 - 0.1 * 0.2 * 0.3, 1e-12);
}

TEST(FusionTest, PosteriorMonotoneInSessionsSeen) {
  const SessionFusion fusion(identical_sessions(4, 0.85, 0.02));
  double prev = -1.0;
  for (std::size_t seen = 0; seen <= 4; ++seen) {
    const double post = fusion.posterior(seen);
    EXPECT_GT(post, prev) << "seen=" << seen;
    EXPECT_GE(post, 0.0);
    EXPECT_LE(post, 1.0);
    prev = post;
  }
}

TEST(FusionTest, ConfidenceMonotoneInSessionCountK) {
  // The headline property: adding sessions can only raise both the
  // analytical fused rate and the full-agreement confidence.
  double prev_rate = 0.0;
  double prev_conf = 0.0;
  for (std::size_t k = 1; k <= 4; ++k) {
    const SessionFusion fusion(identical_sessions(k, 0.8, 0.05));
    const double rate = fusion.fused_detection_probability();
    const double conf = fusion.posterior(k);  // All K sessions agree.
    EXPECT_GT(rate, prev_rate) << "k=" << k;
    EXPECT_GT(conf, prev_conf) << "k=" << k;
    prev_rate = rate;
    prev_conf = conf;
  }
}

TEST(FusionTest, AnyOfRule) {
  const SessionFusion fusion(identical_sessions(3, 0.8));
  const FusionResult r = fusion.fuse({0, 1, 2, 3, 0});
  ASSERT_EQ(r.verdicts.size(), 5u);
  EXPECT_FALSE(r.verdicts[0].present);
  EXPECT_TRUE(r.verdicts[1].present);
  EXPECT_TRUE(r.verdicts[2].present);
  EXPECT_TRUE(r.verdicts[3].present);
  EXPECT_FALSE(r.verdicts[4].present);
  EXPECT_EQ(r.detected, 3u);
}

TEST(FusionTest, MajorityRule) {
  FusionConfig cfg = identical_sessions(3, 0.8, 0.1);
  cfg.rule = FusionRule::kMajority;
  const SessionFusion fusion(cfg);
  const FusionResult r = fusion.fuse({0, 1, 2, 3});
  EXPECT_FALSE(r.verdicts[0].present);
  EXPECT_FALSE(r.verdicts[1].present);  // 1 of 3 is not a majority.
  EXPECT_TRUE(r.verdicts[2].present);
  EXPECT_TRUE(r.verdicts[3].present);
  EXPECT_EQ(r.detected, 2u);
}

TEST(FusionTest, WeightedRuleThresholdsOnPosterior) {
  FusionConfig cfg = identical_sessions(3, 0.9, 0.05);
  cfg.rule = FusionRule::kWeighted;
  cfg.confidence_threshold = 0.95;
  const SessionFusion fusion(cfg);
  const FusionResult r = fusion.fuse({0, 1, 2, 3});
  for (const TagVerdict& v : r.verdicts) {
    EXPECT_EQ(v.present, v.confidence >= cfg.confidence_threshold)
        << "seen=" << v.sessions_seen;
  }
  // Full agreement clears a 95% bar with p=0.9 / f=0.05 detectors.
  EXPECT_TRUE(r.verdicts[3].present);
  EXPECT_FALSE(r.verdicts[0].present);
}

TEST(FusionTest, ZeroFalsePositiveSaturatesOnAnyRead) {
  // f = 0: a single read is decisive — posterior 1 regardless of p.
  const SessionFusion fusion(identical_sessions(3, 0.6, 0.0));
  EXPECT_LT(fusion.posterior(0), 1.0);
  for (std::size_t seen = 1; seen <= 3; ++seen) {
    EXPECT_DOUBLE_EQ(fusion.posterior(seen), 1.0);
  }
}

TEST(FusionTest, VerdictsCoverWholePopulationVector) {
  const SessionFusion fusion(identical_sessions(2, 0.8, 0.01));
  const FusionResult r = fusion.fuse(std::vector<std::size_t>(50, 1));
  ASSERT_EQ(r.verdicts.size(), 50u);
  for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
    EXPECT_EQ(r.verdicts[i].tag, i);
    EXPECT_EQ(r.verdicts[i].sessions_seen, 1u);
  }
}

TEST(FusionTest, InvalidConfigsThrow) {
  EXPECT_THROW(SessionFusion{FusionConfig{}}, ConfigError);
  FusionConfig bad = identical_sessions(2, 0.5);
  bad.sessions[0].false_positive_rate = 0.9;  // Exceeds detection rate.
  EXPECT_THROW(SessionFusion{bad}, ConfigError);
}

// ------------------------------------------- end-to-end: measured vs R_C

TEST(RedundancyModelTest, MeasuredFusedRateMatchesAnalyticalModel) {
  // The ablation's core claim in miniature: per-session detection rates
  // p_k measured from the sweep, fused any-of rate within tolerance of
  // 1 - prod(1 - p_k). Lossy links + 1 round/session keep p_k well below
  // 1 so the product actually discriminates.
  constexpr std::size_t kTags = 40;
  constexpr int kPasses = 300;
  MultiSessionConfig cfg;
  cfg.base = base_config(4.0);
  cfg.sessions = {Session::S1, Session::S2, Session::S3};
  cfg.rounds_per_session = 1;
  cfg.schedule = SessionSchedule::kInterleaved;

  std::array<std::size_t, 3> session_reads{};
  std::size_t fused_reads = 0;
  Rng rng(20070625);
  for (int pass = 0; pass < kPasses; ++pass) {
    MultiSessionInventory inv(cfg);
    Population pop(kTags, 0.55);
    const MultiSessionResult r = inv.run(pop.states, pop.links, 0.0, rng);
    for (std::size_t s = 0; s < 3; ++s) {
      session_reads[s] += r.per_session[s].read_tags.size();
    }
    for (std::size_t c : r.sessions_seen) {
      if (c > 0) ++fused_reads;
    }
  }

  const double denom = static_cast<double>(kTags) * kPasses;
  double miss = 1.0;
  for (std::size_t s = 0; s < 3; ++s) {
    miss *= 1.0 - static_cast<double>(session_reads[s]) / denom;
  }
  const double analytical = 1.0 - miss;
  const double measured = static_cast<double>(fused_reads) / denom;
  // Sessions share the physical channel but draw independent slots; the
  // independence model holds within a small tolerance at this sample size.
  EXPECT_NEAR(measured, analytical, 0.03);
  EXPECT_GT(measured, static_cast<double>(session_reads[0]) / denom)
      << "fusion must beat the best single session";
}

}  // namespace
}  // namespace rfidsim::gen2::reliable
