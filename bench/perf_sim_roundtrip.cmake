# Writer -> reader round trip of perf_sim's JSON: record a quick file
# at OUT, then reload it.  The second run must read every section back
# (the strict reader) and reproduce the recorded simulated work (the
# record-mode identity check) without adopting any fresh baseline.
#
#   cmake -DPERF_SIM=exe -DOUT=file.json -P perf_sim_roundtrip.cmake
file(REMOVE "${OUT}")
foreach(pass record reload)
    set(args --quick --jobs 2 --out "${OUT}")
    if(pass STREQUAL "record")
        list(APPEND args --record-baseline)
    endif()
    execute_process(COMMAND "${PERF_SIM}" ${args}
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    message("${err}")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${pass} run exited ${rc}")
    endif()
endforeach()
if(err MATCHES "recording this run")
    message(FATAL_ERROR "the reload did not find a recorded baseline")
endif()
