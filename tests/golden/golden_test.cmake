# Golden stdout test (ctest -P script): the binary must exit 0 and its
# stdout must equal tests/golden/<name>.txt byte for byte. Every bench and
# example is seeded and runs in simulated time, so any difference is a
# behaviour change; on a mismatch the script prints a unified diff.
#
# Usage: cmake -DBIN=<binary> -DGOLDEN=<expected.txt> -P golden_test.cmake
#
# Regenerate every golden after an intended output change (repo root, after
# a build into ./build):
#   for g in tests/golden/*.txt; do n=$(basename "$g" .txt); b=build/bench/$n; [ -x "$b" ] || b=build/examples/$n; "$b" > "$g"; done
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "golden_test.cmake: pass -DBIN=<binary> -DGOLDEN=<file>")
endif()

execute_process(
  COMMAND "${BIN}"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}\nstderr:\n${stderr}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual_file}")
  message(FATAL_ERROR "${BIN}: stdout differs from ${GOLDEN} (diff above)")
endif()
