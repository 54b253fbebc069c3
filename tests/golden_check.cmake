# Run one paper bench in a fresh working directory and compare its
# stdout byte for byte with the committed transcript.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<transcript> -DWORKDIR=<dir>
#         -P golden_check.cmake
#
# The transcripts pin the paper's tables: a change that moves any
# printed number fails here. To record a deliberate change, rebuild
# and rerun the bench from an empty directory, e.g.
#   mkdir -p /tmp/g && cd /tmp/g &&
#   <build>/bench/bench_table2_microbenchmarks \
#       > <repo>/tests/golden/bench_table2_microbenchmarks.txt
# and say in the commit which numbers moved and why.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORKDIR}/stdout.txt" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
    execute_process(COMMAND diff -u "${GOLDEN}" "${WORKDIR}/stdout.txt")
    message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
