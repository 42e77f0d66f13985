# Run CMD with ARGS (one space-separated string) and require that it
# exits with CODE and prints a line matching MATCH - a command-line or
# input-file rejection that must happen before any work starts.
#
#   cmake -DCMD=exe "-DARGS=--jobs abc" -DCODE=1 -DMATCH=--jobs \
#         -P expect_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL "${CODE}")
    message(FATAL_ERROR "exit code ${rc}, want ${CODE}")
endif()
if(NOT out MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match \"${MATCH}\"")
endif()
