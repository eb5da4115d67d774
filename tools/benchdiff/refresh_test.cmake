# Fixture test of `benchdiff --write-baseline`, run on a scratch copy of
# testdata/baseline.json so the committed fixture is never written:
#
#   EXPECT=keeps    refresh from an in-band run of BENCH_demo.json: exits
#                   0 and keeps the gated row of BENCH_other.json, a file
#                   the refresh was not given.
#   EXPECT=refuses  refresh from a regressed run: exits 1 and leaves the
#                   copy byte-identical to the fixture.
#
#   cmake -DBENCHDIFF=<exe> -DDATA=<testdata> -DINPUT=<BENCH file>
#         -DWORK=<scratch dir> -DEXPECT=keeps|refuses -P refresh_test.cmake

set(copy ${WORK}/baseline.json)
file(MAKE_DIRECTORY ${WORK})
file(COPY_FILE ${DATA}/baseline.json ${copy})
execute_process(
  COMMAND ${BENCHDIFF} --baseline ${copy} --write-baseline ${INPUT}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
file(READ ${copy} written)
if(EXPECT STREQUAL "keeps")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "refresh exited ${rc}, expected 0:\n${out}")
  endif()
  if(NOT written MATCHES "\"BENCH_other.json:gate_ok\"")
    message(FATAL_ERROR "refresh dropped BENCH_other.json:gate_ok:\n"
                        "${written}")
  endif()
elseif(EXPECT STREQUAL "refuses")
  file(READ ${DATA}/baseline.json original)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "refresh exited ${rc}, expected 1:\n${out}")
  endif()
  if(NOT written STREQUAL original)
    message(FATAL_ERROR "refresh rewrote the baseline:\n${written}")
  endif()
else()
  message(FATAL_ERROR "EXPECT must be keeps or refuses, got '${EXPECT}'")
endif()
