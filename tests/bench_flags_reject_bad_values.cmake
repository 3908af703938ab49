# The benches' integer flags reject a malformed or out-of-range value with
# a fatal error that names the flag (ctest entry
# bench_flags_reject_bad_values; see CMakeLists.txt).
#
#   cmake -DFIG07=<bench_fig07_refpb_loss> \
#         -DFIG13=<bench_fig13_all_mechanisms> \
#         -DFIG14=<bench_fig14_energy> -P bench_flags_reject_bad_values.cmake
#
# Run with tiny DSARP_BENCH_* knobs, so a bench that wrongly accepts a
# value still finishes fast and then fails here.

# probe(<bench> <flag> <value>): the bench must exit non-zero with a
# fatal error that names <flag>.
function(probe bench flag value)
  execute_process(
    COMMAND ${bench} ${flag} ${value}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(FIND "${err}" "fatal: ${flag}" named)
  if(rc EQUAL 0 OR named EQUAL -1)
    message(FATAL_ERROR
            "${bench} ${flag} ${value}: exit status ${rc}; expected a "
            "fatal error naming ${flag}, got:\n${err}")
  endif()
  message("${flag} ${value}: ${err}")
endfunction()

# 2^32 + 1 and 2^32 + 2 wrap to 1 and 2 in an unchecked cast to int.
probe(${FIG13} --channels 4294967297)
probe(${FIG13} --channels 4294967298)
probe(${FIG07} --jobs 4294967297)
probe(${FIG14} --sr-idle 12x)
probe(${FIG14} --sr-idle abc)
