# Runs one bench and byte-compares its stdout with its checked-in table:
#   cmake -DBENCH=<binary> -DGOLDEN=<table.txt> -DACTUAL=<out.txt> -P compare.cmake
# Every output toggle and the run-count override are cleared first, so the
# table depends on the simulation alone; two workers also exercise the
# parallel merge.  After a deliberate model change, regenerate a table with
#   BENCH_JOBS=2 build/bench/<name> > bench/golden/<name>.txt
foreach(var RUNS JSON TRACE_DIR TRACE_ALL TRACE_COMPRESS CHROME_TRACE_DIR PCAP_DIR
            METRICS PROF PROF_WALL PROGRESS)
  unset(ENV{INJECTABLE_${var}})
endforeach()
set(ENV{BENCH_JOBS} 2)

execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; see diff -u ${GOLDEN} ${ACTUAL}")
endif()
