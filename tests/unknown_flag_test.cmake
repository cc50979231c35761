# Unknown-flag test (ctest -P script): a bench must refuse a `--` flag that
# bench::Session does not know, exiting 2 with "bench: unknown flag <flag>"
# on stderr, instead of handing it on as a positional argument (which
# fleet_loadgen, for one, would take as its output path).
#
# Usage: cmake -DBIN=<bench binary> -P unknown_flag_test.cmake
if(NOT DEFINED BIN)
  message(FATAL_ERROR "unknown_flag_test.cmake: pass -DBIN=<binary>")
endif()

# Retired flags: no bench may accept them again. --obs-off duplicated
# RFIDSIM_OBS=off; --provenance-dump wrote the records --flight-dump writes.
foreach(flag --log-dump --obs-off --provenance-dump)
  execute_process(
    COMMAND "${BIN}" ${flag} x
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 2 OR NOT stderr MATCHES "bench: unknown flag ${flag}")
    message(FATAL_ERROR "${BIN} ${flag} x: expected exit 2 and an unknown-flag "
                        "message, got exit ${rc}\nstderr:\n${stderr}")
  endif()
endforeach()
