// rfidsim::obs — crash flight recorder.
//
// The recorder stores nothing of its own: it dumps the newest
// kFlightDumpRecords records of the process-wide provenance log's ring
// (provenance_log(), see provenance.hpp) to a file — on explicit trigger,
// or from a fatal-signal handler installed by install_crash_handler(). The
// point is post-mortems: when a backend dies mid-ingest, the dump
// preserves the last few thousand pipeline hops (uploads, merges,
// checkpoint writes) next to whatever checkpoint hit the disk, so the crash
// is attributable without a debugger.
//
// Contracts:
//   - The dump is a meta line (carrying the provenance log's recorded /
//     dropped tallies) followed by one JSON line per record, schema in
//     EXPERIMENTS.md. With obs off or compiled out the log is empty, so the
//     dump is the meta line alone — still written, still readable.
//   - Explicit dumps are atomic: written to "<path>.tmp", then renamed.
//     The signal handler uses the same tmp+rename dance with raw
//     async-signal-safe write(2)/rename(2) calls and only try-acquires the
//     ring — a ring held by the crashing thread is skipped, not
//     deadlocked on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rfidsim::obs {

/// Provenance records a dump carries (the newest ones).
inline constexpr std::size_t kFlightDumpRecords = 2048;

/// Explicit-dump bookkeeping, surfaced in FleetService::health_snapshot():
/// a fleet whose black box cannot reach the disk should say so *before*
/// the crash that needed it. Counts dump_flight_recorder() calls only (the
/// signal handler cannot update counters it might race).
std::uint64_t flight_dump_attempts();
std::uint64_t flight_dump_failures();

/// Writes the dump (meta line + one JSON object per record) to `out`.
void write_flight_dump(std::ostream& out, const char* reason = "explicit");

/// Atomically writes the dump to `path` (tmp + rename). Returns false if
/// the file could not be written.
bool dump_flight_recorder(const std::string& path);

/// Installs handlers for SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT that dump
/// the flight recorder to `path` and then re-raise with the default
/// disposition (so exit codes / core dumps are unchanged). `path` is
/// copied into static storage; later calls replace it. Returns false on
/// platforms without sigaction.
bool install_crash_handler(const std::string& path);

/// The path the crash handler will dump to ("" when none installed).
const char* crash_dump_path();

}  // namespace rfidsim::obs
