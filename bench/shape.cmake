# Runs one paper table the way golden/compare.cmake does and checks the
# paper's claims on it, not its numbers:
#   cmake -DBENCH=<paper_eval> -DTABLE=<id> -P shape.cmake
# A declared model-version bump may move any number in bench/golden/; it must
# never break one of these claims.  exp3b's means are also compared with the
# open-room exp3 means.
foreach(var RUNS JSON TRACE_DIR TRACE_ALL PCAP_DIR METRICS PROF PROGRESS)
  unset(ENV{INJECTABLE_${var}})
endforeach()
set(ENV{BENCH_JOBS} 2)

# Reports one broken claim; the script still checks the rest.
function(fail)
  string(CONCAT what ${ARGN})
  message(SEND_ERROR "${TABLE}: ${what}")
endfunction()

# Prints table <id> and parses every stdout line matching <regex>: group 1 is
# the row label, groups 2.. are stored under the field names that follow.
# Sets <prefix>_rows and <prefix>_label_<i> / <prefix>_<field>_<i> for row i.
function(parse_rows id prefix regex)
  execute_process(COMMAND "${BENCH}" ${id} OUTPUT_VARIABLE text RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_eval ${id} exited with ${rc}")
  endif()
  # Neither ';' nor brackets may reach a CMake list.
  string(REGEX REPLACE "[][;]" " " text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(i 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "${regex}")
      set(${prefix}_label_${i} "${CMAKE_MATCH_1}" PARENT_SCOPE)
      set(group 2)
      foreach(field IN LISTS ARGN)
        set(${prefix}_${field}_${i} "${CMAKE_MATCH_${group}}" PARENT_SCOPE)
        math(EXPR group "${group} + 1")
      endforeach()
      math(EXPR i "${i} + 1")
    endif()
  endforeach()
  set(${prefix}_rows ${i} PARENT_SCOPE)
endfunction()

# Fig. 9 rows: label, success n/m, min, Q1, median, Q3, max, mean.
set(fig9 "^(.*[^ ]) +([0-9]+)/([0-9]+) +[0-9]+ +[0-9.]+ +([0-9.]+) +[0-9.]+ +[0-9]+ +([0-9.]+)$")

# The table has exactly <rows> rows and every connection was injected.
function(check_full_success prefix rows)
  if(NOT ${prefix}_rows EQUAL rows)
    fail("parsed ${${prefix}_rows} table rows, expected ${rows}")
    return()
  endif()
  math(EXPR last "${rows} - 1")
  foreach(i RANGE ${last})
    if(NOT ${prefix}_ok_${i} EQUAL ${prefix}_n_${i})
      fail("'${${prefix}_label_${i}}' succeeded ${${prefix}_ok_${i}}/${${prefix}_n_${i}}, "
           "the paper injects every connection")
    endif()
  endforeach()
endfunction()

# <field> never decreases from one row to the next.
function(check_non_decreasing prefix field)
  math(EXPR last "${${prefix}_rows} - 1")
  foreach(i RANGE 1 ${last})
    math(EXPR prev "${i} - 1")
    if(${prefix}_${field}_${i} LESS ${prefix}_${field}_${prev})
      fail("${field} drops from ${${prefix}_${field}_${prev}} ('${${prefix}_label_${prev}}') "
           "to ${${prefix}_${field}_${i}} ('${${prefix}_label_${i}}'), but the paper's "
           "attempts grow with distance")
    endif()
  endforeach()
endfunction()

if(TABLE STREQUAL "exp1")
  parse_rows(${TABLE} exp "${fig9}" ok n median mean)
  check_full_success(exp 6)
  foreach(i RANGE 5)
    if(NOT exp_median_${i} LESS 4)
      fail("'${exp_label_${i}}' has median ${exp_median_${i}}, the paper's stays < 4")
    endif()
  endforeach()
elseif(TABLE STREQUAL "exp2")
  parse_rows(${TABLE} exp "${fig9}" ok n median mean)
  check_full_success(exp 4)
elseif(TABLE STREQUAL "exp3")
  parse_rows(${TABLE} exp "${fig9}" ok n median mean)
  check_full_success(exp 6)
  check_non_decreasing(exp median)
  check_non_decreasing(exp mean)
elseif(TABLE STREQUAL "exp3b")
  parse_rows(${TABLE} wall "${fig9}" ok n median mean)
  check_full_success(wall 4)
  check_non_decreasing(wall median)
  check_non_decreasing(wall mean)
  # 2/4/6/8 m behind the wall against open-room positions B/C/D/E.
  parse_rows(exp3 open "${fig9}" ok n median mean)
  check_full_success(open 6)
  foreach(i RANGE 3)
    math(EXPR j "${i} + 1")
    if(NOT wall_mean_${i} GREATER open_mean_${j})
      fail("'${wall_label_${i}}' mean ${wall_mean_${i}} is not above open-room "
           "'${open_label_${j}}' mean ${open_mean_${j}}")
    endif()
  endforeach()
elseif(TABLE STREQUAL "scenarios")
  # label, success n/m, mean attempts, takeover ms.
  parse_rows(${TABLE} sc "^(.*[^ ]) +([0-9]+)/([0-9]+) +[0-9.]+ +[0-9]+$" ok n)
  check_full_success(sc 4)
elseif(TABLE STREQUAL "ablation_ids")
  # label, runs, attack ok, detected, latency ms.
  parse_rows(${TABLE} ids "^(.*[^ ]) +([0-9]+) +[0-9]+ +([0-9]+) +[0-9]+$" runs detected)
  if(NOT ids_rows EQUAL 5)
    fail("parsed ${ids_rows} table rows, expected 5")
  else()
    if(NOT ids_label_0 MATCHES "^benign" OR NOT ids_runs_0 GREATER 0 OR
       NOT ids_detected_0 EQUAL 0)
      fail("'${ids_label_0}' raised alerts in ${ids_detected_0}/${ids_runs_0} runs, "
           "the IDS must stay silent on benign traffic")
    endif()
    set(ids_scenario_3 C)
    set(ids_scenario_4 D)
    foreach(i 3 4)
      if(NOT ids_label_${i} MATCHES "^scenario ${ids_scenario_${i}} " OR
         NOT ids_runs_${i} EQUAL 15 OR NOT ids_detected_${i} EQUAL 15)
        fail("'${ids_label_${i}}' detected ${ids_detected_${i}}/${ids_runs_${i}}, "
             "update-based hijacks are caught 15/15")
      endif()
    endforeach()
  endif()
else()
  message(FATAL_ERROR "no paper claims recorded for table ${TABLE}")
endif()
