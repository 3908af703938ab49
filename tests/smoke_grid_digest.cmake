# Gate on the recorded command-stream digest of bench_perf_sweep's smoke
# grid (ctest entry smoke_grid_digest; see CMakeLists.txt).
#
#   cmake -DBENCH=<bench_perf_sweep> -DOUT=<json> -DDIGEST=<hex> \
#         -P smoke_grid_digest.cmake
#
# Run with the CI knobs (DSARP_BENCH_CYCLES=50000 DSARP_BENCH_WARMUP=5000
# DSARP_BENCH_WORKLOADS_PER_CAT=1). Passes only when all three passes
# (cycle x1, event x1, event x2) print `digest <DIGEST>` and the bench
# reports identical results across them. The bench's exit status is not
# checked: it also fails when the event engine runs slower than the
# cycle engine, a wall-clock ratio too noisy to gate tier-1 on.

execute_process(
  COMMAND ${BENCH} --grid smoke --jobs 2 --out ${OUT}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
message("${out}")

string(REGEX MATCHALL "digest ${DIGEST}" passes "${out}")
list(LENGTH passes matched)
if(NOT matched EQUAL 3)
  message(FATAL_ERROR
          "smoke grid: ${matched} of 3 passes printed digest ${DIGEST} "
          "(bench exit status ${rc}). A model change moves the digest on "
          "purpose; re-record it in CMakeLists.txt and ci.yml and say why "
          "in CHANGES.md.")
endif()
string(FIND "${out}" "results identical across passes: yes" identical)
if(identical EQUAL -1)
  message(FATAL_ERROR "smoke grid: results differ across passes")
endif()
