// Resilient event ingest: the armoured front door of the tracking stack.
//
// The paper's pipeline assumes every buffered read reaches the back end
// intact and in order. Production middleware delivers something worse:
// duplicated batches, bit-flipped EPCs, rows that no longer parse,
// records from a reader that silently died halfway through the shift.
// ResilientIngest absorbs all of it without throwing — malformed and
// implausible records are quarantined behind counters, transport
// duplicates collapse, out-of-order arrivals are re-sorted, and
// reader-silence gaps are detected and promoted to a *declared* degraded
// mode so the analytical R_C can be re-weighted over the antennas that
// are actually alive (reliability::expected_reliability_grid_degraded).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/monitor.hpp"
#include "system/event_io.hpp"
#include "system/events.hpp"
#include "track/registry.hpp"

namespace rfidsim::track {

/// Ingest policy knobs.
struct IngestConfig {
  /// Two reads of the same (tag, reader, antenna) closer than this are one
  /// transport duplicate, not two observations. Kept tight: legitimate
  /// re-reads of a moving tag are several round times (~20 ms+) apart.
  double dedup_window_s = 0.002;
  /// A reader silent for longer than this (inside the pass window) has a
  /// detected gap; a gap running to the end of the window declares the
  /// reader down.
  double silence_gap_s = 1.0;
  /// Plausibility band for RSSI; records outside it are quarantined.
  double min_rssi_dbm = -120.0;
  double max_rssi_dbm = 10.0;
  /// Known infrastructure shape; indices at or beyond these bounds are
  /// quarantined. 0 disables the check.
  std::size_t reader_count = 0;
  std::size_t antenna_count = 0;
  /// When set, reads of tags absent from the registry are quarantined —
  /// this is what actually catches bit-flipped EPCs.
  const ObjectRegistry* registry = nullptr;
};

/// One detected silence interval of one reader.
struct SilenceGap {
  std::size_t reader = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  bool to_window_end = false;  ///< Gap runs to the end of the pass window.
};

/// Everything the ingest stage can tell the rest of the pipeline.
struct IngestReport {
  /// Accepted events: validated, deduplicated, sorted by time.
  sys::EventLog events;
  /// Lenient-parser statistics (CSV path; zero on the in-memory path).
  sys::ParseStats parse;
  std::size_t accepted = 0;
  std::size_t duplicates = 0;    ///< Transport duplicates collapsed.
  std::size_t quarantined = 0;   ///< Implausible records set aside.
  std::size_t reordered = 0;     ///< Arrivals behind an already-seen time.
  /// First few quarantine reasons (capped, like ParseStats errors).
  std::vector<std::string> quarantine_samples;
  static constexpr std::size_t kMaxQuarantineSamples = 8;
  /// Detected per-reader silence gaps, in time order per reader.
  std::vector<SilenceGap> gaps;
  /// Readers declared down: silent through the end of the window (or the
  /// whole window) for at least silence_gap_s.
  std::vector<std::size_t> degraded_readers;

  /// Malformed rows + quarantined records, the "bad input" total.
  std::size_t rejected() const { return parse.rows_bad + quarantined; }
  /// True when the tracking analysis should switch to degraded mode.
  bool degraded() const { return !degraded_readers.empty(); }
};

/// Stateless ingest pipeline; one call digests one pass's feed.
class ResilientIngest {
 public:
  explicit ResilientIngest(IngestConfig config = {});

  /// Ingests an already-parsed event log covering the pass window
  /// [window_begin_s, window_end_s] (the window bounds the silence-gap
  /// scan). Never throws on record content.
  IngestReport ingest(const sys::EventLog& raw, double window_begin_s,
                      double window_end_s) const;

  /// ingest() after its validation pass: `valid` holds records that
  /// validate_event accepts under this config and window, in arrival
  /// order (the fleet feed has already validated each delivered batch).
  /// Counts reorders, restores time order, collapses duplicates and scans
  /// for silence exactly as ingest() does; report.quarantined stays 0.
  /// ingest() is the validation pass plus this.
  IngestReport ingest_validated(sys::EventLog valid, double window_begin_s,
                                double window_end_s) const;

  /// Ingests a CSV feed via the lenient parser: malformed rows land in
  /// report.parse, surviving records go through the same validation as
  /// the in-memory path. Throws only if the header itself is wrong (a
  /// mis-wired feed, not a damaged one).
  IngestReport ingest_csv(std::istream& in, double window_begin_s,
                          double window_end_s) const;
  IngestReport ingest_csv(const std::string& csv, double window_begin_s,
                          double window_end_s) const;

  const IngestConfig& config() const { return config_; }

 private:
  /// ingest_validated()'s body without its phase marker, finishing a
  /// report that may already carry quarantine tallies.
  IngestReport finish(IngestReport report, sys::EventLog valid, double window_begin_s,
                      double window_end_s) const;

  IngestConfig config_;
};

/// Per-record plausibility validation — ingest()'s pass 1, exposed so
/// batch-granular consumers (the fleet feeds validate each delivered
/// upload batch before storing it) apply exactly the same rules without
/// re-running the whole pass pipeline. Returns false when the record
/// would be quarantined; `reason` (optional) receives the quarantine
/// reason text ingest() would have sampled.
bool validate_event(const sys::ReadEvent& ev, const IngestConfig& config,
                    double window_begin_s, double window_end_s,
                    std::string* reason = nullptr);

/// Summarises one ingested pass as a monitor observation, built purely
/// from what survived the middleware — the production-side counterpart of
/// sys::PortalSimulator::pass_observation (which reads ground truth).
/// Per-reader "rounds" are accepted-event counts: the ingest stage cannot
/// see inventory rounds, but relative event volume carries the same
/// degradation signal (a reader whose stream collapses against its peers
/// drifts, one that goes silent reports zero and trips the silence alert).
/// `objects_total` is the expected distinct-tag count for the window
/// (manifest or registry size); seen/identified counts are clamped to it.
/// Feedback-free: reads the report only.
obs::PassObservation monitor_observation(const IngestReport& report,
                                         std::size_t reader_count,
                                         std::size_t objects_total);

}  // namespace rfidsim::track
