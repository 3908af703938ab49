# Pin every figure's printed output (ctest entry bench_figures_smoke; see
# CMakeLists.txt).
#
#   cmake -DFIGURES=<bench_figures> -DGOLDEN=<expected stdout> \
#         -DOUT=<actual stdout> -P bench_figures_smoke.cmake
#
# Run with DSARP_BENCH_CYCLES=5000 DSARP_BENCH_WARMUP=500
# DSARP_BENCH_WORKLOADS_PER_CAT=1. `bench_figures all --jobs 2` must exit
# 0 and print GOLDEN byte for byte. A deliberate model change re-records
# GOLDEN with the other anchors and says why in CHANGES.md.

execute_process(
  COMMAND ${FIGURES} all --jobs 2
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
file(WRITE ${OUT} "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_figures all exited ${rc}:\n${err}")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT} OUTPUT_VARIABLE diff)
  message(FATAL_ERROR
          "bench_figures all printed ${OUT}, not ${GOLDEN}:\n${diff}")
endif()
