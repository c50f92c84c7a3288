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
set(store "${WORK}/pipeline_profiles.wtp")

run_step(${GEN} --out ${trace} --weeks 2 --scale 0.3 --users 8 --devices 5 --seed 5)
if(NOT EXISTS ${trace})
  message(FATAL_ERROR "wtp_generate produced no trace file")
endif()

run_step(${TRAIN} --log ${trace} --out ${store} --min-transactions 200)
if(NOT EXISTS ${store})
  message(FATAL_ERROR "wtp_train produced no profile store")
endif()

run_step(${CLASSIFY} --log ${trace} --store ${store})
string(FIND "${last_output}" "acceptance matrix" found)
if(found EQUAL -1)
  message(FATAL_ERROR "wtp_classify printed no acceptance matrix:\n${last_output}")
endif()
# The diagonal must dominate: the summary line reports both means.
string(REGEX MATCH "diagonal mean ([0-9.]+)%, off-diagonal mean ([0-9.]+)%"
       summary "${last_output}")
if(NOT summary)
  message(FATAL_ERROR "wtp_classify printed no summary line:\n${last_output}")
endif()
if(NOT CMAKE_MATCH_1 GREATER CMAKE_MATCH_2)
  message(FATAL_ERROR
          "diagonal (${CMAKE_MATCH_1}) must exceed off-diagonal (${CMAKE_MATCH_2})")
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
