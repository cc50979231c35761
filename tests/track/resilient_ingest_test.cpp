#include "track/resilient_ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/corruption.hpp"
#include "system/event_io.hpp"
#include "track/tracking.hpp"

namespace rfidsim::track {
namespace {

sys::ReadEvent event(double t, std::uint64_t tag, std::size_t reader,
                     std::size_t antenna, double rssi = -55.0) {
  sys::ReadEvent ev;
  ev.time_s = t;
  ev.tag = scene::TagId{tag};
  ev.reader_index = reader;
  ev.antenna_index = antenna;
  ev.rssi = DbmPower(rssi);
  return ev;
}

sys::EventLog dense_log(std::size_t n) {
  sys::EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    log.push_back(event(0.02 * static_cast<double>(i % 190), 1 + i % 12, i % 2, i % 2));
  }
  return log;
}

TEST(ResilientIngestTest, CleanLogPassesThroughUntouched) {
  ResilientIngest ingest;
  sys::EventLog log{event(0.1, 1, 0, 0), event(0.5, 2, 0, 0), event(0.9, 1, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.reordered, 0u);
  EXPECT_FALSE(report.degraded());
}

TEST(ResilientIngestTest, QuarantinesImplausibleRecordsWithoutThrowing) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  ResilientIngest ingest(cfg);
  sys::EventLog log{
      event(0.1, 1, 0, 0),
      event(std::numeric_limits<double>::quiet_NaN(), 2, 0, 0),  // NaN time.
      event(0.2, 3, 0, 0, 55.0),                                 // +55 dBm: absurd.
      event(0.3, 4, 9, 0),                                       // No reader 9.
      event(0.4, 5, 0, 7),                                       // No antenna 7.
      event(99.0, 6, 0, 0),                                      // Outside window.
      event(0.5, 7, 1, 1),
  };
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.quarantined, 5u);
  EXPECT_EQ(report.quarantine_samples.size(), 5u);
}

TEST(ResilientIngestTest, RegistryCatchesBitFlippedTags) {
  ObjectRegistry registry;
  const ObjectId box = registry.add_object("box");
  registry.bind_tag(scene::TagId{1001}, box);

  IngestConfig cfg;
  cfg.registry = &registry;
  ResilientIngest ingest(cfg);
  sys::EventLog log{event(0.1, 1001, 0, 0), event(0.2, 1001 ^ 64, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.quarantined, 1u);
}

TEST(ResilientIngestTest, CollapsesTransportDuplicates) {
  ResilientIngest ingest;
  sys::EventLog log{
      event(0.100, 1, 0, 0), event(0.100, 1, 0, 0),   // Exact duplicate.
      event(0.1005, 1, 0, 0),                         // Within dedup window.
      event(0.200, 1, 0, 0),                          // A genuine re-read.
      event(0.100, 1, 1, 0),                          // Other reader: kept.
  };
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.duplicates, 2u);
}

TEST(ResilientIngestTest, RestoresOrderAndCountsInversions) {
  ResilientIngest ingest;
  sys::EventLog log{event(0.5, 1, 0, 0), event(0.1, 2, 0, 0), event(0.3, 3, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.reordered, 2u);
  ASSERT_EQ(report.events.size(), 3u);
  EXPECT_LT(report.events[0].time_s, report.events[1].time_s);
  EXPECT_LT(report.events[1].time_s, report.events[2].time_s);
}

TEST(ResilientIngestTest, DetectsSilenceGapsAndDeclaresReadersDown) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.silence_gap_s = 1.0;
  ResilientIngest ingest(cfg);
  // Reader 0 speaks throughout; reader 1 dies at t = 2.
  sys::EventLog log;
  for (int i = 0; i < 80; ++i) log.push_back(event(0.1 * i, 1, 0, 0));
  for (int i = 0; i < 20; ++i) log.push_back(event(0.1 * i, 2, 1, 1));
  const IngestReport report = ingest.ingest(log, 0.0, 8.0);
  ASSERT_EQ(report.degraded_readers.size(), 1u);
  EXPECT_EQ(report.degraded_readers[0], 1u);
  EXPECT_TRUE(report.degraded());
  bool found_tail_gap = false;
  for (const SilenceGap& gap : report.gaps) {
    if (gap.reader == 1 && gap.to_window_end) {
      found_tail_gap = true;
      EXPECT_NEAR(gap.begin_s, 1.9, 1e-9);
      EXPECT_EQ(gap.end_s, 8.0);
    }
  }
  EXPECT_TRUE(found_tail_gap);
}

TEST(ResilientIngestTest, KnownReaderThatNeverSpeaksIsDown) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  ResilientIngest ingest(cfg);
  sys::EventLog log;
  for (int i = 0; i < 40; ++i) log.push_back(event(0.1 * i, 1, 0, 0));
  const IngestReport report = ingest.ingest(log, 0.0, 4.0);
  ASSERT_EQ(report.degraded_readers.size(), 1u);
  EXPECT_EQ(report.degraded_readers[0], 1u);
}

TEST(ResilientIngestTest, SurvivesHeavilyCorruptedCsv) {
  // Acceptance criterion: >= 5% bad/dropped/duplicated rows, no throw,
  // quarantine counters populated.
  const sys::EventLog log = dense_log(1000);
  const std::string csv = sys::to_csv(log);
  fault::CorruptionConfig corr;
  corr.drop_probability = 0.03;
  corr.duplicate_probability = 0.03;
  corr.corrupt_probability = 0.05;
  corr.reorder_probability = 0.05;
  Rng rng(2024);
  fault::CorruptionStats cstats;
  const std::string bad = fault::corrupt_csv(csv, corr, rng, &cstats);
  ASSERT_GE(cstats.dropped + cstats.duplicated + cstats.corrupted, 50u);

  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  ResilientIngest ingest(cfg);
  IngestReport report;
  ASSERT_NO_THROW(report = ingest.ingest_csv(bad, 0.0, 4.0));
  EXPECT_GT(report.parse.rows_bad, 0u);
  EXPECT_GT(report.duplicates, 0u);
  EXPECT_GT(report.accepted, 800u);  // The vast majority survives.
  EXPECT_EQ(report.accepted, report.events.size());
  // Everything the corruptor injected is either parsed, parse-failed, or
  // quarantined/deduped — nothing vanishes unaccounted.
  EXPECT_EQ(report.parse.rows_ok,
            report.accepted + report.duplicates + report.quarantined);
}

TEST(ResilientIngestTest, CsvPathMatchesInMemoryPathOnCleanInput) {
  const sys::EventLog log = dense_log(200);
  ResilientIngest ingest;
  const IngestReport a = ingest.ingest(log, 0.0, 4.0);
  const IngestReport b = ingest.ingest_csv(sys::to_csv(log), 0.0, 4.0);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].tag, b.events[i].tag);
  }
}

TEST(ResilientIngestTest, WrongHeaderStillThrows) {
  ResilientIngest ingest;
  EXPECT_THROW(ingest.ingest_csv(std::string("not,a,log\n1,2,3\n"), 0.0, 1.0),
               ConfigError);
}

TEST(ResilientIngestTest, OutOfOrderBatchArrivalConvergesToSortedStream) {
  // Two upload batches from the same pass delivered in the wrong order
  // (the second flush arrived first): the ingest output must be the same
  // time-sorted stream as the in-order delivery, with the inversion
  // tallied, not dropped.
  const sys::EventLog batch1{event(0.1, 1, 0, 0), event(0.2, 2, 0, 0),
                             event(0.3, 3, 0, 0)};
  const sys::EventLog batch2{event(0.6, 4, 1, 0), event(0.7, 5, 1, 0),
                             event(0.8, 1, 1, 0)};
  sys::EventLog in_order(batch1);
  in_order.insert(in_order.end(), batch2.begin(), batch2.end());
  sys::EventLog swapped(batch2);
  swapped.insert(swapped.end(), batch1.begin(), batch1.end());

  ResilientIngest ingest;
  const IngestReport a = ingest.ingest(in_order, 0.0, 1.0);
  const IngestReport b = ingest.ingest(swapped, 0.0, 1.0);
  EXPECT_EQ(a.reordered, 0u);
  EXPECT_EQ(b.reordered, 3u);  // All of batch1 arrived behind batch2's times.
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].tag, b.events[i].tag);
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
  }
}

TEST(ResilientIngestTest, DuplicateBatchArrivalCollapsesToOneCopy) {
  // Middleware re-delivered a whole batch: every record is an exact
  // repeat of an already-seen (tag, reader, antenna, time) and must
  // collapse as a transport duplicate, leaving the accepted stream
  // identical to the single-delivery run.
  const sys::EventLog batch{event(0.1, 1, 0, 0), event(0.2, 2, 0, 1),
                            event(0.3, 3, 1, 0)};
  sys::EventLog redelivered(batch);
  redelivered.insert(redelivered.end(), batch.begin(), batch.end());

  ResilientIngest ingest;
  const IngestReport once = ingest.ingest(batch, 0.0, 1.0);
  const IngestReport twice = ingest.ingest(redelivered, 0.0, 1.0);
  EXPECT_EQ(twice.accepted, once.accepted);
  EXPECT_EQ(twice.duplicates, batch.size());
  ASSERT_EQ(twice.events.size(), once.events.size());
  for (std::size_t i = 0; i < once.events.size(); ++i) {
    EXPECT_EQ(twice.events[i].tag, once.events[i].tag);
  }
}

TEST(ResilientIngestTest, ValidateEventMatchesIngestQuarantineRules) {
  IngestConfig cfg;
  cfg.reader_count = 2;
  cfg.antenna_count = 2;
  const ResilientIngest ingest(cfg);
  const sys::EventLog log{
      event(0.1, 1, 0, 0),                                       // Clean.
      event(std::numeric_limits<double>::quiet_NaN(), 2, 0, 0),  // NaN time.
      event(0.2, 3, 0, 0, 55.0),                                 // Absurd RSSI.
      event(0.3, 4, 9, 0),                                       // No reader 9.
      event(99.0, 6, 0, 0),                                      // Outside window.
  };
  // Record-by-record verdicts agree with the pass-level tallies...
  std::size_t rejected = 0;
  for (const sys::ReadEvent& ev : log) {
    std::string reason;
    if (!validate_event(ev, cfg, 0.0, 1.0, &reason)) {
      ++rejected;
      EXPECT_FALSE(reason.empty());
    }
  }
  const IngestReport report = ingest.ingest(log, 0.0, 1.0);
  EXPECT_EQ(report.quarantined, rejected);
  // ...and the sampled reasons are the exact strings ingest() records.
  ASSERT_EQ(report.quarantine_samples.size(), rejected);
  std::size_t sample = 0;
  for (const sys::ReadEvent& ev : log) {
    std::string reason;
    if (!validate_event(ev, cfg, 0.0, 1.0, &reason)) {
      EXPECT_EQ(report.quarantine_samples[sample++], reason);
    }
  }
}

TEST(ResilientIngestTest, InferredRosterNeverSizesBuffersFromReaderIndices) {
  // With reader_count unset, a reader index is record content: one row
  // from reader 4e12 used to size the silence scan's per-reader buffers.
  ResilientIngest ingest;
  IngestReport report;
  ASSERT_NO_THROW(report = ingest.ingest_csv(
                      "time_s,tag,reader,antenna,rssi_dbm\n"
                      "0.5,7,0,0,-60\n0.6,8,4000000000000,0,-60\n",
                      0.0, 1.0));
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_FALSE(report.degraded());
}

TEST(ResilientIngestTest, InferredRosterScansOnlyReadersThatSpoke) {
  // Readers 1..6 never appear and nothing says they exist, so they cannot
  // be declared silent; reader 7 spoke and then went quiet.
  ResilientIngest ingest;
  const sys::EventLog log{event(0.5, 1, 0, 0), event(0.5, 2, 7, 0), event(9.5, 1, 0, 0)};
  const IngestReport report = ingest.ingest(log, 0.0, 10.0);
  EXPECT_EQ(report.degraded_readers, std::vector<std::size_t>{7});
  ASSERT_EQ(report.gaps.size(), 2u);
  EXPECT_EQ(report.gaps[0].reader, 0u);  // 0.5 -> 9.5, interior.
  EXPECT_FALSE(report.gaps[0].to_window_end);
  EXPECT_EQ(report.gaps[1].reader, 7u);
  EXPECT_TRUE(report.gaps[1].to_window_end);
}

// --- Reference models ---------------------------------------------------
//
// The map/set formulations ingest() and monitor_observation() replaced
// with a time sort and flat hash tables, kept here as the oracle every
// decision and count must equal.

IngestReport reference_ingest(const sys::EventLog& raw, const IngestConfig& cfg,
                              double begin_s, double end_s) {
  IngestReport report;
  sys::EventLog valid;
  double high_water = -std::numeric_limits<double>::infinity();
  std::string reason;
  for (const sys::ReadEvent& ev : raw) {
    if (!validate_event(ev, cfg, begin_s, end_s, &reason)) {
      ++report.quarantined;
      if (report.quarantine_samples.size() < IngestReport::kMaxQuarantineSamples) {
        report.quarantine_samples.push_back(reason);
      }
      continue;
    }
    if (ev.time_s < high_water) ++report.reordered;
    high_water = std::max(high_water, ev.time_s);
    valid.push_back(ev);
  }
  std::stable_sort(valid.begin(), valid.end(),
                   [](const auto& a, const auto& b) { return a.time_s < b.time_s; });
  std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>, double> last_accepted;
  for (const sys::ReadEvent& ev : valid) {
    const auto key = std::make_tuple(ev.tag.value, ev.reader_index, ev.antenna_index);
    const auto it = last_accepted.find(key);
    if (it != last_accepted.end() && ev.time_s - it->second <= cfg.dedup_window_s) {
      ++report.duplicates;
      continue;
    }
    last_accepted[key] = ev.time_s;
    report.events.push_back(ev);
  }
  report.accepted = report.events.size();
  std::map<std::size_t, std::vector<double>> times;  // The scanned roster.
  for (std::size_t r = 0; r < cfg.reader_count; ++r) times[r];
  for (const sys::ReadEvent& ev : report.events) {
    if (cfg.reader_count == 0 || ev.reader_index < cfg.reader_count) {
      times[ev.reader_index].push_back(ev.time_s);
    }
  }
  for (const auto& [r, reads] : times) {
    double cursor = begin_s;
    for (const double t : reads) {
      if (t - cursor > cfg.silence_gap_s) report.gaps.push_back({r, cursor, t, false});
      cursor = t;
    }
    if (end_s - cursor > cfg.silence_gap_s) {
      report.gaps.push_back({r, cursor, end_s, true});
      report.degraded_readers.push_back(r);
    }
  }
  return report;
}

obs::PassObservation reference_observation(const IngestReport& report,
                                           std::size_t reader_count,
                                           std::size_t objects_total) {
  obs::PassObservation out;
  out.objects_total = objects_total;
  out.readers.resize(reader_count);
  std::set<std::uint64_t> all;
  std::vector<std::set<std::uint64_t>> per_reader(reader_count);
  for (const sys::ReadEvent& ev : report.events) {
    all.insert(ev.tag.value);
    if (ev.reader_index < reader_count) {
      per_reader[ev.reader_index].insert(ev.tag.value);
      ++out.readers[ev.reader_index].rounds;
    }
  }
  out.objects_identified = std::min<std::uint64_t>(all.size(), objects_total);
  for (std::size_t r = 0; r < reader_count; ++r) {
    out.readers[r].objects_seen = std::min<std::uint64_t>(per_reader[r].size(), objects_total);
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_report(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.quarantine_samples, b.quarantine_samples);
  EXPECT_EQ(a.parse.rows_ok, b.parse.rows_ok);
  EXPECT_EQ(a.parse.rows_bad, b.parse.rows_bad);
  EXPECT_EQ(a.degraded_readers, b.degraded_readers);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const sys::ReadEvent& x = a.events[i];
    const sys::ReadEvent& y = b.events[i];
    EXPECT_TRUE(x.tag == y.tag && same_bits(x.time_s, y.time_s) &&
                x.reader_index == y.reader_index && x.antenna_index == y.antenna_index &&
                same_bits(x.rssi.value(), y.rssi.value()) && x.session == y.session)
        << "event " << i;
  }
  ASSERT_EQ(a.gaps.size(), b.gaps.size());
  for (std::size_t i = 0; i < a.gaps.size(); ++i) {
    EXPECT_EQ(a.gaps[i].reader, b.gaps[i].reader) << "gap " << i;
    EXPECT_TRUE(same_bits(a.gaps[i].begin_s, b.gaps[i].begin_s)) << "gap " << i;
    EXPECT_TRUE(same_bits(a.gaps[i].end_s, b.gaps[i].end_s)) << "gap " << i;
    EXPECT_EQ(a.gaps[i].to_window_end, b.gaps[i].to_window_end) << "gap " << i;
  }
}

/// A pass dense in near-duplicates: few streams, times on a 1 ms grid
/// around the dedup window, equal times, interleaved (reordered) arrival,
/// quiet stretches that open silence gaps, and a sprinkle of records that
/// fail validation.
sys::EventLog near_duplicate_log(Rng& rng, std::size_t n) {
  sys::EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    const double cluster = 0.5 * static_cast<double>(rng.uniform_int(0, 19));
    const double t = cluster + 0.001 * static_cast<double>(rng.uniform_int(0, 6));
    sys::ReadEvent ev = event(t, static_cast<std::uint64_t>(rng.uniform_int(1, 6)),
                              static_cast<std::size_t>(rng.uniform_int(0, 3)),
                              static_cast<std::size_t>(rng.uniform_int(0, 1)),
                              rng.uniform(-80.0, -40.0));
    if (rng.bernoulli(0.03)) ev.time_s = 11.0;  // Outside the window.
    if (rng.bernoulli(0.03)) ev.rssi = DbmPower(40.0);
    log.push_back(ev);
  }
  return log;
}

/// A large pass over up to 2000 streams (200 tags x 5 readers x 2
/// antennas) whose tag ids are multiples of 2^16, tag 0 included: a table
/// indexed by a tag's unmixed low bits would chain them all. Times sit on
/// a 1 ms grid around the dedup window, in random arrival order.
sys::EventLog colliding_stream_log(Rng& rng, std::size_t n) {
  sys::EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    const double cluster = 0.5 * static_cast<double>(rng.uniform_int(0, 19));
    const double t = cluster + 0.001 * static_cast<double>(rng.uniform_int(0, 6));
    log.push_back(event(t, static_cast<std::uint64_t>(rng.uniform_int(0, 199)) << 16,
                        static_cast<std::size_t>(rng.uniform_int(0, 4)),
                        static_cast<std::size_t>(rng.uniform_int(0, 1))));
  }
  return log;
}

/// ingest(), ingest_validated() and monitor_observation() on one pass,
/// each against its reference model.
void expect_matches_reference_models(const sys::EventLog& raw, const IngestConfig& cfg,
                                     std::size_t objects) {
  const ResilientIngest ingest(cfg);

  const IngestReport want = reference_ingest(raw, cfg, 0.0, 10.0);
  const IngestReport got = ingest.ingest(raw, 0.0, 10.0);
  expect_same_report(got, want);

  // ingest() is the validation pass plus ingest_validated().
  sys::EventLog valid;
  for (const sys::ReadEvent& ev : raw) {
    if (validate_event(ev, cfg, 0.0, 10.0)) valid.push_back(ev);
  }
  IngestReport split = ingest.ingest_validated(valid, 0.0, 10.0);
  EXPECT_EQ(split.quarantined, 0u);
  split.quarantined = got.quarantined;
  split.quarantine_samples = got.quarantine_samples;
  expect_same_report(split, got);

  const std::size_t readers = 4;
  const obs::PassObservation obs_got = monitor_observation(got, readers, objects);
  const obs::PassObservation obs_want = reference_observation(want, readers, objects);
  EXPECT_EQ(obs_got.objects_identified, obs_want.objects_identified);
  EXPECT_EQ(obs_got.objects_total, obs_want.objects_total);
  ASSERT_EQ(obs_got.readers.size(), obs_want.readers.size());
  for (std::size_t r = 0; r < readers; ++r) {
    EXPECT_EQ(obs_got.readers[r].rounds, obs_want.readers[r].rounds) << "reader " << r;
    EXPECT_EQ(obs_got.readers[r].objects_seen, obs_want.readers[r].objects_seen)
        << "reader " << r;
  }
}

TEST(ResilientIngestTest, MatchesMapAndSetReferenceModels) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const sys::EventLog raw = near_duplicate_log(rng, 50 + 20 * (seed % 10));
    IngestConfig cfg;
    cfg.silence_gap_s = 0.4 + 0.1 * static_cast<double>(seed % 4);
    if (seed % 3 == 0) cfg.dedup_window_s = 0.0;  // Exact repeats only.
    if (seed % 2 == 0) cfg.reader_count = 3 + seed % 3;  // 4 and 5 add silent readers.
    const std::size_t objects = seed % 5 == 0 ? 3 : 10;  // 3 clamps the counts.
    expect_matches_reference_models(raw, cfg, objects);
  }
  // ~4000-record passes over ~2000 streams. Reader 4 lies beyond the
  // observation's 4 readers; with reader_count 4 it is quarantined
  // instead. 150 objects clamp the 200 distinct tags.
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    IngestConfig cfg;
    if (seed % 2 == 0) cfg.reader_count = 4;
    expect_matches_reference_models(colliding_stream_log(rng, 4000), cfg, 150);
  }
  SCOPED_TRACE("empty pass");
  expect_matches_reference_models({}, IngestConfig{}, 10);
}

TEST(ResilientIngestTest, TimeTiesAndSignedZerosKeepArrivalOrder) {
  // Reads with equal times (and -0.0 beside +0.0, which compare equal)
  // keep their arrival order in the time ranks, so the first arrival of a
  // stream at a tied time is the one accepted and the later ones are its
  // duplicates: the report a sort of (time, arrival position) pairs gives.
  IngestConfig cfg;
  cfg.reader_count = 3;  // Reader 2 never speaks.
  ResilientIngest ingest(cfg);
  const sys::EventLog log{
      event(0.0, 5, 0, 0),      // 0: accepted.
      event(-0.0, 7, 1, 0),     // 1: accepted, after 0.
      event(-0.0, 5, 0, 0),     // 2: duplicate of 0 (not the kept copy).
      event(0.5, 9, 0, 1),      // 3: accepted.
      event(0.5, 8, 1, 0),      // 4: tie with 3, accepted after it.
      event(0.501, 9, 0, 1),    // 5: duplicate of 3.
      event(0.25, 7, 1, 0),     // 6: out of order, accepted.
      event(0.5, 9, 0, 1),      // 7: out of order, tie and duplicate of 3.
      event(2.0, 5, 0, 0),      // 8: accepted.
      event(1.75, 6, 1, 1),     // 9: out of order, accepted.
      event(0.5015, 9, 0, 1),   // 10: out of order, duplicate of 3.
      event(2.0015, 5, 0, 0),   // 11: duplicate of 8.
      event(3.5, 4, 1, 0),      // 12: accepted.
  };
  const IngestReport report = ingest.ingest(log, 0.0, 5.0);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.reordered, 4u);
  EXPECT_EQ(report.duplicates, 5u);
  ASSERT_EQ(report.accepted, 8u);
  const std::size_t kept[] = {0, 1, 6, 3, 4, 9, 8, 12};
  ASSERT_EQ(report.events.size(), std::size(kept));
  for (std::size_t i = 0; i < std::size(kept); ++i) {
    const sys::ReadEvent& got = report.events[i];
    const sys::ReadEvent& want = log[kept[i]];
    EXPECT_EQ(got.tag, want.tag) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time_s),
              std::bit_cast<std::uint64_t>(want.time_s))
        << i;
    EXPECT_EQ(got.reader_index, want.reader_index) << i;
    EXPECT_EQ(got.antenna_index, want.antenna_index) << i;
  }
  // Per reader: interior gaps in time order, then the tail gap.
  const std::vector<std::tuple<std::size_t, double, double, bool>> gaps{
      {0, 0.5, 2.0, false}, {0, 2.0, 5.0, true},  {1, 0.5, 1.75, false},
      {1, 1.75, 3.5, false}, {1, 3.5, 5.0, true}, {2, 0.0, 5.0, true}};
  ASSERT_EQ(report.gaps.size(), gaps.size());
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const SilenceGap& g = report.gaps[i];
    EXPECT_EQ(std::make_tuple(g.reader, g.begin_s, g.end_s, g.to_window_end), gaps[i])
        << i;
  }
  EXPECT_EQ(report.degraded_readers, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ResilientIngestTest, RejectsBadConfig) {
  IngestConfig inverted;
  inverted.min_rssi_dbm = 0.0;
  inverted.max_rssi_dbm = -10.0;
  EXPECT_THROW(ResilientIngest{inverted}, ConfigError);
  IngestConfig negative;
  negative.dedup_window_s = -1.0;
  EXPECT_THROW(ResilientIngest{negative}, ConfigError);
  ResilientIngest ok;
  EXPECT_THROW(ok.ingest({}, 1.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace rfidsim::track
