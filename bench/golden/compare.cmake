# Runs a binary and byte-compares its stdout with its checked-in text:
#   cmake -DBENCH=<binary> [-DTABLE=<id>] -DGOLDEN=<file>[;<file>...]
#         -DACTUAL=<out.txt> -P compare.cmake
# For paper_eval, TABLE names the table to print; without it, paper_eval
# prints every table and GOLDEN lists their files in registry order.  Every
# output toggle and the run-count override are cleared first, so the output
# depends on the simulation alone; two workers also exercise the parallel
# merge.  After a deliberate model change, regenerate a table with
#   BENCH_JOBS=2 build/bench/paper_eval <id> > bench/golden/<id>.txt
foreach(var RUNS JSON TRACE_DIR TRACE_ALL PCAP_DIR METRICS PROF PROGRESS)
  unset(ENV{INJECTABLE_${var}})
endforeach()
set(ENV{BENCH_JOBS} 2)

execute_process(COMMAND "${BENCH}" ${TABLE} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${TABLE} exited with ${rc}")
endif()
set(expected "")
foreach(golden IN LISTS GOLDEN)
  file(READ "${golden}" text)
  string(APPEND expected "${text}")
endforeach()
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  string(REPLACE ";" " " files "${GOLDEN}")
  message(FATAL_ERROR "${BENCH} ${TABLE} output differs from ${files}; see "
                      "cat ${files} | diff -u - ${ACTUAL}")
endif()
