# Drives the earthred binary: a verb must reject an unknown flag with a
# coded error naming it and a non-zero exit, and accept the same command
# line without it. Run with: cmake -DEARTHRED=<path to earthred> -P <this>
if(NOT EARTHRED)
  message(FATAL_ERROR "pass -DEARTHRED=<path to the earthred binary>")
endif()

set(run_args run --kernel=fig1 --engine=native --nodes=200 --edges=800
    --procs=2 --k=2 --sweeps=1)

execute_process(COMMAND "${EARTHRED}" ${run_args} --no-such-flag
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag accepted (exit 0):\n${out}")
endif()
if(NOT err MATCHES "E-CLI-FLAG: unknown flag '--no-such-flag' for earthred run")
  message(FATAL_ERROR "unexpected diagnostic (exit ${rc}):\n${err}")
endif()

execute_process(COMMAND "${EARTHRED}" ${run_args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "known flags rejected (exit ${rc}):\n${err}")
endif()

execute_process(COMMAND "${EARTHRED}" version --verbose
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "E-CLI-FLAG: unknown flag '--verbose'")
  message(FATAL_ERROR "version accepted a flag (exit ${rc}):\n${err}")
endif()

# serve --listen has no stdin report, so --json and --quiet are unknown
# there and must be rejected before anything binds. The timeout kills a
# listener that binds anyway, so a regression fails here without leaving
# a server running.
foreach(flag --json=unused.jsonl --quiet)
  execute_process(COMMAND "${EARTHRED}" serve --listen=0 --workers=1 ${flag}
    TIMEOUT 10
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  if(rc EQUAL 0 OR NOT err MATCHES
     "E-CLI-FLAG: unknown flag '${name}' for earthred serve --listen")
    message(FATAL_ERROR
            "serve --listen accepted ${flag} (exit ${rc}):\n${err}")
  endif()
endforeach()
