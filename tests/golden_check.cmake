# Run one paper bench in a fresh working directory and compare its
# stdout byte for byte with the committed transcript.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<transcript> -DWORKDIR=<dir>
#         [-DENV=<NAME=value,NAME=value,...>] [-DGOLDEN_DIR=<dir>]
#         -P golden_check.cmake
#
# ENV sets extra environment variables for the bench (comma
# separated). With GOLDEN_DIR the bench's stdout and stderr land in
# WORKDIR/stdout.txt and WORKDIR/stderr.txt, and every file under
# GOLDEN_DIR is checked against the file of the same relative path in
# WORKDIR: byte for byte, or, for a golden named <file>.sha256, by the
# SHA-256 digest of <file> (used for exports over 64 KB). Every file
# the run writes under WORKDIR must have one of the two goldens, so a
# lost or never-recorded golden fails the test instead of passing
# unchecked. GOLDEN is optional when GOLDEN_DIR holds stdout.txt.
#
# The transcripts pin the paper's tables: a change that moves any
# printed number fails here. To record a deliberate change, rebuild
# and rerun the bench from an empty directory, e.g.
#   mkdir -p /tmp/g && cd /tmp/g &&
#   <build>/bench/bench_table2_microbenchmarks \
#       > <repo>/tests/golden/bench_table2_microbenchmarks.txt
# and say in the commit which numbers moved and why. An export golden
# is recorded the same way with the ENV settings of its test; write
# `cmake -E sha256sum <file>`'s first field into <file>.sha256 for a
# file over 64 KB.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(envList)
if(ENV)
    string(REPLACE "," ";" envList "${ENV}")
endif()
if(GOLDEN_DIR)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E env ${envList}
                            "${BENCH}"
                    WORKING_DIRECTORY "${WORKDIR}"
                    OUTPUT_FILE "${WORKDIR}/stdout.txt"
                    ERROR_FILE "${WORKDIR}/stderr.txt"
                    RESULT_VARIABLE rc)
else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E env ${envList}
                            "${BENCH}"
                    WORKING_DIRECTORY "${WORKDIR}"
                    OUTPUT_FILE "${WORKDIR}/stdout.txt"
                    RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

set(failed)
if(GOLDEN)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORKDIR}/stdout.txt" "${GOLDEN}"
                    RESULT_VARIABLE differs)
    if(differs)
        execute_process(COMMAND diff -u "${GOLDEN}"
                                "${WORKDIR}/stdout.txt")
        list(APPEND failed "stdout")
    endif()
endif()

if(GOLDEN_DIR)
    file(GLOB_RECURSE goldens RELATIVE "${GOLDEN_DIR}"
         "${GOLDEN_DIR}/*")
    list(SORT goldens)
    foreach(rel IN LISTS goldens)
        if(rel MATCHES "^(.*)\\.sha256$")
            set(out "${CMAKE_MATCH_1}")
            if(NOT EXISTS "${WORKDIR}/${out}")
                list(APPEND failed "${out} (not written)")
                continue()
            endif()
            file(READ "${GOLDEN_DIR}/${rel}" want)
            string(STRIP "${want}" want)
            file(SHA256 "${WORKDIR}/${out}" got)
            if(NOT got STREQUAL want)
                list(APPEND failed "${out} (sha256 ${got})")
            endif()
            continue()
        endif()
        execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                                "${WORKDIR}/${rel}"
                                "${GOLDEN_DIR}/${rel}"
                        RESULT_VARIABLE differs)
        if(differs)
            execute_process(COMMAND diff -u "${GOLDEN_DIR}/${rel}"
                                    "${WORKDIR}/${rel}")
            list(APPEND failed "${rel}")
        endif()
    endforeach()

    file(GLOB_RECURSE outputs RELATIVE "${WORKDIR}" "${WORKDIR}/*")
    list(SORT outputs)
    foreach(rel IN LISTS outputs)
        if(NOT EXISTS "${GOLDEN_DIR}/${rel}" AND
           NOT EXISTS "${GOLDEN_DIR}/${rel}.sha256")
            list(APPEND failed "${rel} (no golden)")
        endif()
    endforeach()
endif()

if(failed)
    list(JOIN failed ", " failedText)
    message(FATAL_ERROR "${BENCH} output differs from its golden: "
                        "${failedText}")
endif()
