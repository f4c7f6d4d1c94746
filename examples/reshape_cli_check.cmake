# One reshape_cli check, run as a CTest through `cmake -P`.
#
#   -DCLI=<path to reshape_cli>
#   -DARGS=<its flags, space-separated>
#   -DEXPECT=usage     the flags must be rejected with the usage exit code 2
#   -DEXPECT=same-run  the run with --dynamic appended must print the same
#                      [run] line and exit with the same code as the run
#                      without it
#   -DEXPECT=golden    stdout followed by a line "[exit] <code>" must equal
#                      the file -DGOLDEN=<path> byte for byte

separate_arguments(args UNIX_COMMAND "${ARGS}")

function(run_cli out_var rc_var)
  execute_process(COMMAND "${CLI}" ${args} ${ARGN}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

if(EXPECT STREQUAL "usage")
  run_cli(out rc)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "reshape_cli ${ARGS}: exit '${rc}', expected 2")
  endif()
elseif(EXPECT STREQUAL "same-run")
  run_cli(static_out static_rc)
  run_cli(dynamic_out dynamic_rc --dynamic)
  string(REGEX MATCH "\\[run\\][^\n]*" static_run "${static_out}")
  string(REGEX MATCH "\\[run\\][^\n]*" dynamic_run "${dynamic_out}")
  if(NOT static_run OR NOT static_run STREQUAL dynamic_run OR
     NOT static_rc STREQUAL dynamic_rc)
    message(FATAL_ERROR "reshape_cli ${ARGS}\n"
            "  static  (exit ${static_rc}): ${static_run}\n"
            "  dynamic (exit ${dynamic_rc}): ${dynamic_run}")
  endif()
elseif(EXPECT STREQUAL "golden")
  run_cli(out rc)
  file(READ "${GOLDEN}" want)
  if(NOT "${out}[exit] ${rc}\n" STREQUAL "${want}")
    message(FATAL_ERROR "reshape_cli ${ARGS} (exit ${rc}) differs from "
            "${GOLDEN}:\n${out}")
  endif()
else()
  message(FATAL_ERROR "unknown EXPECT '${EXPECT}'")
endif()
