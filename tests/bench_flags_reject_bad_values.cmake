# The bench flags fail loudly (ctest entry bench_flags_reject_bad_values;
# see CMakeLists.txt).
#
#   cmake -DFIGURES=<bench_figures> -DPERF=<bench_perf_sweep> \
#         -DOUT=<json> -P bench_flags_reject_bad_values.cmake
#
# Run with tiny DSARP_BENCH_* knobs, so a bench that wrongly accepts a
# flag still finishes fast and then fails here.

# probe(<text> <command...>): the command must exit non-zero with a fatal
# error that contains "fatal: <text>".
function(probe text)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(REPLACE ";" " " cmd "${ARGN}")
  string(FIND "${err}" "fatal: ${text}" named)
  if(rc EQUAL 0 OR named EQUAL -1)
    message(FATAL_ERROR
            "${cmd}: exit status ${rc}; expected a fatal error "
            "containing '${text}', got:\n${err}")
  endif()
  message("${cmd}: ${err}")
endfunction()

# 2^32 + 1 and 2^32 + 2 wrap to 1 and 2 in an unchecked cast to int.
probe(--channels ${FIGURES} fig13 --channels 4294967297)
probe(--channels ${FIGURES} fig13 --channels 4294967298)
probe(--jobs ${FIGURES} fig07 --jobs 4294967297)
probe(--sr-idle ${FIGURES} fig14 --sr-idle 12x)
probe(--sr-idle ${FIGURES} fig14 --sr-idle abc)
# Unknown flags and ids, missing values, and flags a figure would ignore.
probe(--bogus ${FIGURES} fig07 --bogus 1)
probe("--spec needs a value" ${FIGURES} fig07 --spec)
probe("unknown figure 'fig99'" ${FIGURES} fig99)
probe("--spec: figure spec_comparison" ${FIGURES} spec_comparison --spec
      DDR4-2400)
probe("--channels: figure ablation_channel_stagger" ${FIGURES}
      ablation_channel_stagger --channels 2)
probe("--channels: figure fig05" ${FIGURES} fig05 --channels 2)
probe("--grid: figure fig07" ${FIGURES} fig07 --grid smoke)

probe(--tolerance ${PERF} --tolerance abc)
probe(--tolerance ${PERF} --tolerance -0.5)
probe("--grid needs a value" ${PERF} --grid)
probe("--out needs a value" ${PERF} --grid smoke --out)
probe(--bogus ${PERF} --bogus 1)
probe(--jobs ${PERF} --jobs 0)

# --jobs 1 runs one worker: the sharded pass is "event x1", not x4.
execute_process(
  COMMAND ${PERF} --grid smoke --jobs 1 --out ${OUT}
  OUTPUT_VARIABLE out
  ERROR_QUIET)
string(FIND "${out}" "jobs: 1," one)
string(FIND "${out}" "event x4" four)
if(one EQUAL -1 OR NOT four EQUAL -1)
  message(FATAL_ERROR "bench_perf_sweep --jobs 1 did not run one worker:\n"
                      "${out}")
endif()
