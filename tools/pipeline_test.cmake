# End-to-end CLI pipeline test, run by ctest:
#   wtp_generate -> wtp_train -> wtp_classify -> wtp_identify -> wtp_serve
# Expects -DGEN/-DTRAIN/-DCLASSIFY/-DIDENTIFY/-DSERVE (tool paths) and
# -DWORK (dir).

function(run_step)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "step failed (${status}): ${ARGN}\n${output}")
  endif()
  set(last_output "${output}" PARENT_SCOPE)
endfunction()

set(trace "${WORK}/pipeline_trace.csv")
set(store "${WORK}/pipeline_profiles.wtpstore")

run_step(${GEN} --out ${trace} --weeks 2 --scale 0.3 --users 8 --devices 5 --seed 5)
if(NOT EXISTS ${trace})
  message(FATAL_ERROR "wtp_generate produced no trace file")
endif()

run_step(${TRAIN} --log ${trace} --out ${store} --min-transactions 200)
if(NOT EXISTS ${store})
  message(FATAL_ERROR "wtp_train produced no profile store")
endif()

# wtp_classify on `store` must print the acceptance matrix, and its diagonal
# must dominate: the summary line reports both means.
function(expect_dominant_diagonal store)
  run_step(${CLASSIFY} --log ${trace} --store ${store})
  string(FIND "${last_output}" "acceptance matrix" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "wtp_classify printed no acceptance matrix:\n${last_output}")
  endif()
  string(REGEX MATCH "diagonal mean ([0-9.]+)%, off-diagonal mean ([0-9.]+)%"
         summary "${last_output}")
  if(NOT summary)
    message(FATAL_ERROR "wtp_classify printed no summary line:\n${last_output}")
  endif()
  if(NOT CMAKE_MATCH_1 GREATER CMAKE_MATCH_2)
    message(FATAL_ERROR
            "${store}: diagonal (${CMAKE_MATCH_1}) must exceed off-diagonal "
            "(${CMAKE_MATCH_2})")
  endif()
endfunction()
expect_dominant_diagonal(${store})

# The SVDD profile path end to end, and an unknown --classifier is a usage
# error (exit 2, naming the value) before any training.
set(svdd_store "${WORK}/pipeline_profiles_svdd.wtpstore")
run_step(${TRAIN} --log ${trace} --out ${svdd_store} --min-transactions 200
         --classifier svdd)
expect_dominant_diagonal(${svdd_store})
execute_process(COMMAND ${TRAIN} --log ${trace} --out ${WORK}/bogus.wtpstore
                        --classifier bogus
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
string(FIND "${output}" "'bogus'" named_value)
if(NOT status EQUAL 2 OR named_value EQUAL -1 OR EXISTS ${WORK}/bogus.wtpstore)
  message(FATAL_ERROR "wtp_train --classifier bogus: exit ${status}, want 2 "
                      "and a message naming the value:\n${output}")
endif()

run_step(${IDENTIFY} --log ${trace} --store ${store} --smooth 3)
string(FIND "${last_output}" "decisions:" found)
if(found EQUAL -1)
  message(FATAL_ERROR "wtp_identify printed no decision summary:\n${last_output}")
endif()

# Online serving: the full interleaved trace through the scoring engine must
# yield at least one correct identification event plus a metrics object.
run_step(${SERVE} --log ${trace} --store ${store} --smooth 3 --shards 4)
string(FIND "${last_output}" "\"correct\":true" found)
if(found EQUAL -1)
  message(FATAL_ERROR "wtp_serve emitted no correct identification event:\n${last_output}")
endif()
string(FIND "${last_output}" "\"type\":\"metrics\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "wtp_serve printed no metrics object:\n${last_output}")
endif()

# An unknown kernel environment value is a usage error (exit 2, message
# naming the variable and the value), not a crash at the first kernel call.
foreach(variable WTP_TRANSFORM_MODE WTP_KERNEL_BACKEND)
  foreach(tool ${CLASSIFY} ${IDENTIFY} ${SERVE})
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${variable}=bogus
                            ${tool} --log ${trace} --store ${store}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE output
                    ERROR_VARIABLE output)
    if(NOT status EQUAL 2)
      message(FATAL_ERROR
              "${variable}=bogus ${tool}: exit ${status}, want 2:\n${output}")
    endif()
    string(FIND "${output}" "${variable}" named_variable)
    string(FIND "${output}" "'bogus'" named_value)
    if(named_variable EQUAL -1 OR named_value EQUAL -1)
      message(FATAL_ERROR
              "${variable}=bogus ${tool}: message must name the variable and "
              "the value:\n${output}")
    endif()
  endforeach()
endforeach()

# Library errors are reported, not crashes: each tool prints
# `<tool>: <message>` and exits 1 on a missing store, on a store whose
# window breaks 0 < S <= D, on a file in the retired text store format (the
# message names the file), and on a log whose rows are out of time order.
function(expect_failure)
  cmake_parse_arguments(ARG "" "" "COMMAND;EXPECT" ${ARGN})
  execute_process(COMMAND ${ARG_COMMAND}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output)
  list(GET ARG_COMMAND 0 tool_path)
  get_filename_component(tool ${tool_path} NAME)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "${ARG_COMMAND}: exit ${status}, want 1:\n${output}")
  endif()
  foreach(fragment "${tool}: " ${ARG_EXPECT})
    string(FIND "${output}" "${fragment}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR
              "${ARG_COMMAND}: message lacks '${fragment}':\n${output}")
    endif()
  endforeach()
endfunction()

set(missing_store "${WORK}/no_such_store.wtpstore")
file(REMOVE ${missing_store})
# window_shift is the little-endian i64 at byte 40 of the store header
# (src/index/store_format.h); zeroing its low byte turns S = 30 into 0.
set(bad_window_store "${WORK}/bad_window_store.wtpstore")
file(READ ${store} shift_low_byte OFFSET 40 LIMIT 1 HEX)
if(NOT shift_low_byte STREQUAL "1e")
  message(FATAL_ERROR "store window_shift low byte is '${shift_low_byte}', want 1e (30)")
endif()
file(COPY_FILE ${store} ${bad_window_store})
run_step(dd if=/dev/zero of=${bad_window_store} bs=1 seek=40 count=1 conv=notrunc)
set(text_store "${WORK}/text_format_store.wtp")
file(WRITE ${text_store} "window 60 30\nprofiles 0\n")
foreach(tool ${CLASSIFY} ${IDENTIFY} ${SERVE})
  expect_failure(COMMAND ${tool} --log ${trace} --store ${missing_store}
                 EXPECT "cannot open" "${missing_store}")
  expect_failure(COMMAND ${tool} --log ${trace} --store ${text_store}
                 EXPECT "${text_store}")
endforeach()
foreach(tool ${CLASSIFY} ${IDENTIFY})
  expect_failure(COMMAND ${tool} --log ${trace} --store ${bad_window_store}
                 EXPECT "shift" "${bad_window_store}")
endforeach()

# A one-user log whose first two rows are swapped; they fall in the user's
# training share, so wtp_train windows them too.
set(swapped_log "${WORK}/swapped_rows.csv")
set(row_tail "HTTPS,GET,user_1,device_1,News,text/html,OneDrive,Minimal,0")
file(WRITE ${swapped_log}
  "timestamp,url,scheme,action,user_id,device_id,category,media_type,"
  "application_type,reputation,private_flag\n"
  "2015-01-05 05:07:19,www.site-2.example.com,${row_tail}\n"
  "2015-01-05 05:07:03,www.site-1.example.com,${row_tail}\n"
  "2015-01-05 05:08:00,www.site-3.example.com,${row_tail}\n")
expect_failure(COMMAND ${CLASSIFY} --log ${swapped_log} --store ${store}
               EXPECT "time-ordered")
expect_failure(COMMAND ${IDENTIFY} --log ${swapped_log} --store ${store}
               EXPECT "time-ordered")
expect_failure(COMMAND ${TRAIN} --log ${swapped_log}
                       --out ${WORK}/swapped_profiles.wtpstore --min-transactions 1
               EXPECT "time-ordered")

# Second configuration: build the serving tool and the FeatureMatrix
# equivalence suite with -DWTP_SANITIZE=ON and re-run both on the same trace
# and profile store.  ASan/UBSan guard the CSR scatter/gather hot paths
# (thread-local scratch reuse, borrowed row spans) that the fast build
# exercises without instrumentation.  Skipped when the outer build is
# already sanitized — the plain run above then covers it.
if(NOT SANITIZED AND SOURCE_DIR)
  set(san_build "${WORK}/sanitized_build")
  run_step(${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${san_build}
           -DCMAKE_BUILD_TYPE=Release
           -DCMAKE_CXX_COMPILER=${CXX_COMPILER}
           -DWTP_SANITIZE=ON)
  include(ProcessorCount)
  ProcessorCount(cores)
  if(cores EQUAL 0)
    set(cores 4)
  endif()
  run_step(${CMAKE_COMMAND} --build ${san_build} --parallel ${cores}
           --target wtp_serve equivalence_tests)

  run_step(${san_build}/tools/wtp_serve
           --log ${trace} --store ${store} --smooth 3 --shards 4)
  string(FIND "${last_output}" "\"correct\":true" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "sanitized wtp_serve emitted no correct identification event:\n${last_output}")
  endif()

  run_step(${san_build}/tests/equivalence_tests)
  message(STATUS "sanitized serve + equivalence OK")
endif()

message(STATUS "tools pipeline OK")
