# The campaign artifact gates end to end, on the whole paper evaluation at two
# runs a series:
#   cmake -DPAPER_EVAL=<paper_eval> -DTRACE_REPLAY=<trace_replay>
#         -DPCAP_EXPORT=<pcap_export> -DCAMPAIGN_REPORT=<campaign_report>
#         -DWORK_DIR=<fresh dir> -P artifact_gates.cmake
# The campaign writes its JSON records, every trial's trace and every trial's
# capture.  Then: every recorded trial must have its own trace and capture
# (no two series may write the same file) and campaign_report --check must
# pass; the traces and the records must replay; pcap_export over the traces
# and over the records must each reproduce the recorded captures byte for
# byte; trace_replay --pcap-diff must pass on every trace/capture pair; and
# trace_replay --stats must reject a file that is not a trace.

# Clears every INJECTABLE_* variable, so only what this script sets is read.
function(clear_injectable_env)
  execute_process(COMMAND ${CMAKE_COMMAND} -E environment OUTPUT_VARIABLE env)
  string(REGEX MATCHALL "\nINJECTABLE_[A-Z_]*=" names "\n${env}")
  foreach(name IN LISTS names)
    string(REGEX MATCH "INJECTABLE_[A-Z_]*" name "${name}")
    unset(ENV{${name}})
  endforeach()
endfunction()

# Runs a command and fails the test unless it exits with <expected>.
function(expect_exit expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc STREQUAL expected)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "`${command}` exited with ${rc}, expected ${expected}:\n${out}")
  endif()
endfunction()

# Fails unless <dir> holds exactly the recorded captures (`pcaps`, names
# relative to ${WORK_DIR}/pcap), byte for byte.
function(expect_same_pcaps dir)
  file(GLOB actual RELATIVE ${dir} ${dir}/*)
  if(NOT actual STREQUAL pcaps)
    message(FATAL_ERROR "${dir} holds [${actual}], expected the recorded [${pcaps}]")
  endif()
  foreach(name IN LISTS pcaps)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/pcap/${name}
                            ${dir}/${name}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${dir}/${name} differs from the recorded capture")
    endif()
  endforeach()
endfunction()

clear_injectable_env()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/traces ${WORK_DIR}/pcap)

set(ENV{INJECTABLE_RUNS} 2)
set(ENV{BENCH_JOBS} 2)
set(ENV{INJECTABLE_JSON} ${WORK_DIR}/results.jsonl)
set(ENV{INJECTABLE_TRACE_DIR} ${WORK_DIR}/traces)
set(ENV{INJECTABLE_TRACE_ALL} 1)
set(ENV{INJECTABLE_PCAP_DIR} ${WORK_DIR}/pcap)
expect_exit(0 ${PAPER_EVAL})
clear_injectable_env()

file(READ ${WORK_DIR}/results.jsonl records)
string(REGEX MATCHALL "{\"seed\":" trials "${records}")
file(GLOB traces ${WORK_DIR}/traces/*.jsonl)
file(GLOB pcaps RELATIVE ${WORK_DIR}/pcap ${WORK_DIR}/pcap/*)
list(LENGTH trials trial_count)
list(LENGTH traces trace_count)
list(LENGTH pcaps pcap_count)
if(trial_count EQUAL 0 OR NOT trace_count EQUAL trial_count OR
   NOT pcap_count EQUAL trial_count)
  message(FATAL_ERROR "the campaign recorded ${trial_count} trials but wrote "
                      "${trace_count} traces and ${pcap_count} captures")
endif()
expect_exit(0 ${CAMPAIGN_REPORT} --traces ${WORK_DIR}/traces --check ${WORK_DIR}/results.jsonl)

expect_exit(0 ${TRACE_REPLAY} --diff --quiet ${traces})
expect_exit(0 ${TRACE_REPLAY} --from-json --quiet ${WORK_DIR}/results.jsonl)

expect_exit(0 ${PCAP_EXPORT} --quiet --out-dir ${WORK_DIR}/pcap-export ${traces})
expect_same_pcaps(${WORK_DIR}/pcap-export)
expect_exit(0 ${PCAP_EXPORT} --from-json --quiet --out-dir ${WORK_DIR}/pcap-from-json
            ${WORK_DIR}/results.jsonl)
expect_same_pcaps(${WORK_DIR}/pcap-from-json)

foreach(trace IN LISTS traces)
  get_filename_component(stem ${trace} NAME_WLE)
  expect_exit(0 ${TRACE_REPLAY} --pcap-diff --quiet ${trace} ${WORK_DIR}/pcap/${stem}.pcap)
endforeach()

# 300 seeded random bytes (1..255) are no trace.
set(codes)
foreach(code RANGE 1 255)
  list(APPEND codes ${code})
endforeach()
string(ASCII ${codes} alphabet)
string(RANDOM LENGTH 300 ALPHABET "${alphabet}" RANDOM_SEED 30 garbage)
file(WRITE ${WORK_DIR}/garbage.jsonl "${garbage}")
expect_exit(2 ${TRACE_REPLAY} --stats ${WORK_DIR}/garbage.jsonl)
