# Host clocks, unseeded randomness and environment reads, banned by name:
#   cmake -DROOT=<checkout> -P banned_names.cmake
# A trial is a pure function of (config, seed) (DESIGN.md §6).  So no file
# under src/ tools/ bench/ examples/ may name a host clock or an unseeded
# random source, and no file under src/ may read the environment, except the
# files allowed below.  A line counts when a banned name comes before any
# `//`; a member of the same name (`.time(`, `->rand(`) does not count.
# Fails naming every offending line.
cmake_minimum_required(VERSION 3.20)

# The host clock: RunResult::wall_ms and the progress heartbeat, both
# reporting only.
set(clock_allowed src/world/experiment.cpp src/world/result_sink.cpp)
# The environment in src/: the INJECTABLE_* sink wiring and BENCH_JOBS.
set(env_allowed src/world/result_sink.cpp src/world/trial_runner.cpp)

set(lead "(^|[^A-Za-z0-9_.>])")
set(clock "${lead}(system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|\
timespec_get|random_device|srand)([^A-Za-z0-9_]|$)|${lead}(time|rand|clock)[ \t]*\\(")
set(env "${lead}(secure_)?getenv[ \t]*\\(")

set(offences "")
foreach(dir src tools bench examples)
  file(GLOB_RECURSE files RELATIVE ${ROOT} ${ROOT}/${dir}/*.cpp ${ROOT}/${dir}/*.cc
       ${ROOT}/${dir}/*.cxx ${ROOT}/${dir}/*.hpp ${ROOT}/${dir}/*.h ${ROOT}/${dir}/*.hh)
  foreach(file IN LISTS files)
    set(banned "")
    if(NOT file IN_LIST clock_allowed)
      list(APPEND banned "${clock}")
    endif()
    if(dir STREQUAL "src" AND NOT file IN_LIST env_allowed)
      list(APPEND banned "${env}")
    endif()
    list(JOIN banned "|" banned)
    file(READ ${ROOT}/${file} content)
    if(banned STREQUAL "" OR NOT content MATCHES "${banned}")
      continue()
    endif()
    # One list element per line: no character that CMake lists treat
    # specially survives, and no banned name uses one.
    string(REGEX REPLACE "[][;\\]" " " content "${content}")
    string(REPLACE "\n" ";" lines "${content}")
    set(n 0)
    foreach(line IN LISTS lines)
      math(EXPR n "${n} + 1")
      string(REGEX REPLACE "//.*" "" code "${line}")
      if(code MATCHES "${banned}")
        string(STRIP "${line}" line)
        string(APPEND offences "\n  ${file}:${n}: ${line}")
      endif()
    endforeach()
  endforeach()
endforeach()
if(offences)
  message(FATAL_ERROR "host clock, unseeded randomness or environment read outside "
                      "its allowlist (tests/lint/banned_names.cmake):${offences}")
endif()
