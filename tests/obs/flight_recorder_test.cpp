#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rfidsim::obs {
namespace {

/// Under -DRFIDSIM_OBS=OFF the provenance log records nothing, so dumps
/// carry only their meta line. The tests assert that rather than skipping.
#ifdef RFIDSIM_OBS_DISABLED
constexpr bool kCompiledOut = true;
#else
constexpr bool kCompiledOut = false;
#endif

/// A dump is the tail of the process-wide provenance log: every test starts
/// from a cleared log and restores the obs switch.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = enabled();
    set_enabled(true);
    provenance_log().clear();
  }
  void TearDown() override {
    provenance_log().clear();
    set_enabled(saved_);
  }

 private:
  bool saved_ = false;
};

void record(std::uint64_t batch_id, BatchHop hop, std::uint64_t value = 0,
            std::uint32_t facility = kNoFacility, double time_s = -1.0) {
  provenance_log().record({batch_id, hop, facility, value, time_s});
}

/// The dump's record lines (the meta line dropped).
std::vector<std::string> dump_records() {
  std::ostringstream out;
  write_flight_dump(out);
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // Meta.
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST_F(FlightRecorderTest, RecordsCarrySeqOrderAndPayload) {
  record(1, BatchHop::kEnqueued, 2, 3, 0.5);
  record(4, BatchHop::kMerged);
  // A time whose microseconds are not a u64 (non-finite, or |t| past
  // ~1.8e13 s) prints as null; the largest magnitudes that fit still print.
  const double unrepresentable[] = {std::numeric_limits<double>::quiet_NaN(),
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    1e300, -2e13};
  for (const double t : unrepresentable) record(5, BatchHop::kNak, 1, 2, t);
  record(6, BatchHop::kDelivered, 1, 2, 1e13);
  record(7, BatchHop::kDelivered, 1, 2, -1e13);
  const std::vector<std::string> lines = dump_records();
  if (kCompiledOut) {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_EQ(lines[0],
            "{\"seq\":0,\"cat\":\"provenance\",\"event\":\"enqueued\",\"a\":1,"
            "\"b\":2,\"c\":3,\"t_s\":0.500000}");
  // No facility, no simulated time: the sentinels print as-is.
  EXPECT_EQ(lines[1],
            "{\"seq\":1,\"cat\":\"provenance\",\"event\":\"merged\",\"a\":4,"
            "\"b\":0,\"c\":4294967295,\"t_s\":-1.000000}");
  for (std::size_t i = 2; i < 7; ++i) {
    EXPECT_EQ(lines[i], "{\"seq\":" + std::to_string(i) +
                            ",\"cat\":\"provenance\",\"event\":\"nak\",\"a\":5,"
                            "\"b\":1,\"c\":2,\"t_s\":null}");
  }
  EXPECT_NE(lines[7].find(",\"t_s\":10000000000000.000000}"), std::string::npos);
  EXPECT_NE(lines[8].find(",\"t_s\":-10000000000000.000000}"), std::string::npos);
}

TEST_F(FlightRecorderTest, RingWrapKeepsNewestAndTalliesDrops) {
  // Overflow the provenance ring itself by seven records: the meta line
  // carries its tallies, and the dump its newest kFlightDumpRecords records
  // with their stream positions.
  const std::uint64_t total = kProvenanceLogCapacity + 7;
  for (std::uint64_t i = 0; i < total; ++i) record(i + 1, BatchHop::kEnqueued, i);
  std::ostringstream out;
  write_flight_dump(out, "wrap");
  const std::string dump = out.str();
  if (kCompiledOut) {
    EXPECT_EQ(dump.find("\"seq\""), std::string::npos);
    return;
  }
  EXPECT_EQ(dump.substr(0, dump.find('\n')),
            "{\"flight_recorder\":\"rfidsim\",\"reason\":\"wrap\",\"recorded\":" +
                std::to_string(total) + ",\"dropped\":7}");
  const std::vector<std::string> lines = dump_records();
  ASSERT_EQ(lines.size(), kFlightDumpRecords);
  const std::uint64_t first = total - kFlightDumpRecords;
  EXPECT_EQ(lines.front().find("{\"seq\":" + std::to_string(first) + ","), 0u);
  EXPECT_NE(lines.front().find(",\"b\":" + std::to_string(first) + ","),
            std::string::npos);
  EXPECT_EQ(lines.back().find("{\"seq\":" + std::to_string(total - 1) + ","), 0u);
}

TEST_F(FlightRecorderTest, ThreadsShareOneStreamInSeqOrder) {
  record(1, BatchHop::kEnqueued);
  std::thread worker([] { record(2, BatchHop::kDelivered); });
  worker.join();
  record(3, BatchHop::kMerged);
  const std::vector<std::string> lines = dump_records();
  if (kCompiledOut) {
    EXPECT_TRUE(lines.empty());
    return;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"seq\":0,\"cat\":\"provenance\",\"event\":\"enqueued\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1,\"cat\":\"provenance\",\"event\":\"delivered\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"seq\":2,\"cat\":\"provenance\",\"event\":\"merged\""),
            std::string::npos);
}

// Golden dump schema: meta line first, then one JSON object per record —
// EXPERIMENTS.md documents exactly this.
TEST_F(FlightRecorderTest, DumpIsMetaLinePlusJsonlRecords) {
  record(11, BatchHop::kMerged, 22, 33, 1.5);
  std::ostringstream out;
  write_flight_dump(out, "unit-test");
  const std::string dump = out.str();
  if (kCompiledOut) {
    EXPECT_EQ(dump,
              "{\"flight_recorder\":\"rfidsim\",\"reason\":\"unit-test\","
              "\"recorded\":0,\"dropped\":0}\n");
    return;
  }
  EXPECT_EQ(dump,
            "{\"flight_recorder\":\"rfidsim\",\"reason\":\"unit-test\","
            "\"recorded\":1,\"dropped\":0}\n"
            "{\"seq\":0,\"cat\":\"provenance\",\"event\":\"merged\",\"a\":11,"
            "\"b\":22,\"c\":33,\"t_s\":1.500000}\n");
}

TEST_F(FlightRecorderTest, ExplicitDumpLandsAtomicallyOnDisk) {
  record(99, BatchHop::kCheckpointed, 5);
  const std::string path = ::testing::TempDir() + "rfidsim_flight_dump_test.jsonl";
  ASSERT_TRUE(dump_flight_recorder(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string meta;
  ASSERT_TRUE(std::getline(in, meta));
  EXPECT_NE(meta.find("\"flight_recorder\":\"rfidsim\""), std::string::npos);
  EXPECT_NE(meta.find("\"reason\":\"explicit\""), std::string::npos);
  std::size_t records = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++records;
  }
  EXPECT_EQ(records, kCompiledOut ? 0u : 1u);
  // tmp + rename: no temporary may survive a successful dump.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ClearZeroesRecordsAndTallies) {
  for (std::uint64_t i = 0; i < kFlightDumpRecords + 3; ++i) {
    record(i + 1, BatchHop::kEnqueued);
  }
  provenance_log().clear();
  std::ostringstream out;
  write_flight_dump(out, "cleared");
  EXPECT_EQ(out.str(),
            "{\"flight_recorder\":\"rfidsim\",\"reason\":\"cleared\","
            "\"recorded\":0,\"dropped\":0}\n");
  record(1, BatchHop::kLost);
  EXPECT_EQ(dump_records().size(), kCompiledOut ? 0u : 1u);
}

TEST_F(FlightRecorderTest, DisabledHooksRecordNothing) {
  set_enabled(false);
  record(1, BatchHop::kEnqueued);
  EXPECT_TRUE(dump_records().empty());
  EXPECT_EQ(provenance_log().recorded(), 0u);
}

#if (defined(__unix__) || defined(__APPLE__)) && !defined(__SANITIZE_THREAD__)

/// End-to-end crash path in a forked child: install the handler, record,
/// die on SIGABRT. The parent asserts the default disposition was
/// re-raised (the exit status is the signal, not a handler exit) and the
/// dump landed, meta line first.
TEST_F(FlightRecorderTest, CrashHandlerDumpsOnFatalSignal) {
  const std::string path = ::testing::TempDir() + "rfidsim_crash_dump_test.jsonl";
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    if (!install_crash_handler(path)) _Exit(10);
    record(7, BatchHop::kQuarantined, 3);
    std::raise(SIGABRT);
    _Exit(11);  // Unreachable: the handler re-raises with default disposition.
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler left no dump at " << path;
  std::string meta;
  ASSERT_TRUE(std::getline(in, meta));
  EXPECT_NE(meta.find("\"flight_recorder\":\"rfidsim\""), std::string::npos);
  EXPECT_NE(meta.find("\"reason\":\"signal:"), std::string::npos);
  bool saw_record = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"quarantined\",\"a\":7,") != std::string::npos) {
      saw_record = true;
    }
  }
  EXPECT_EQ(saw_record, !kCompiledOut);
  std::remove(path.c_str());
}

TEST(FlightRecorderInstallTest, InstallRecordsTheDumpPath) {
  // Installing twice replaces the path (the handler dumps to the latest).
  EXPECT_TRUE(install_crash_handler("first.jsonl"));
  EXPECT_STREQ(crash_dump_path(), "first.jsonl");
  EXPECT_TRUE(install_crash_handler("second.jsonl"));
  EXPECT_STREQ(crash_dump_path(), "second.jsonl");
}

#endif  // unix && !tsan

TEST_F(FlightRecorderTest, DumpStatusCountersTrackAttemptsAndFailures) {
  const std::uint64_t attempts = flight_dump_attempts();
  const std::uint64_t failures = flight_dump_failures();
  const std::string ok_path = "flight_dump_status.jsonl";
  EXPECT_TRUE(dump_flight_recorder(ok_path));
  EXPECT_EQ(flight_dump_attempts(), attempts + 1);
  EXPECT_EQ(flight_dump_failures(), failures);
  // A dump into a directory that does not exist must fail loudly — and the
  // failure tally is what health_snapshot() surfaces fleet-wide.
  EXPECT_FALSE(dump_flight_recorder("no_such_dir/flight_dump_status.jsonl"));
  EXPECT_EQ(flight_dump_attempts(), attempts + 2);
  EXPECT_EQ(flight_dump_failures(), failures + 1);
  std::remove(ok_path.c_str());
}

}  // namespace
}  // namespace rfidsim::obs
