# Benchmark harness targets. Included from the top-level CMakeLists (not
# add_subdirectory) so that ${CMAKE_BINARY_DIR}/bench contains only the
# bench binaries and `for b in build/bench/*; do $b; done` runs clean.
function(udsim_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE udsim)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

udsim_bench(fig19_techniques)
udsim_bench(fig19b_zero_delay)
udsim_bench(fig20_trimming)
udsim_bench(fig21_retained_shifts)
udsim_bench(fig22_bitfield_widths)
udsim_bench(fig23_shift_elimination)
udsim_bench(fig24_combined)
udsim_bench(ext_fault_parallel)
udsim_bench(ext_multidelay)
udsim_bench(ablation_emitted_c)
target_link_libraries(ablation_emitted_c PRIVATE ${CMAKE_DL_LIBS})

udsim_bench(ablation_threads)
udsim_bench(ablation_observability)
udsim_bench(ablation_resilience)
udsim_bench(ablation_service)
udsim_bench(ablation_breaker)
udsim_bench(telemetry_smoke)

udsim_bench(bench_report)
# bench_report resolves circuit names through examples/common.h, which
# falls back to the repo data directory (c17 loads from data/c17.bench).
target_compile_definitions(bench_report PRIVATE
  UDSIM_DATA_DIR="${CMAKE_SOURCE_DIR}/data")

udsim_bench(ablation_wordsize)
udsim_bench(ablation_dataparallel)
udsim_bench(ablation_lane_io)
udsim_bench(ablation_compile_scale)

# Smoke-test every harness binary under ctest (tiny workloads).
add_test(NAME bench_fig19_smoke COMMAND fig19_techniques --vectors 40 --trials 1 --circuits c432,c499)
add_test(NAME bench_fig19b_smoke COMMAND fig19b_zero_delay --vectors 40 --trials 1 --circuits c432)
add_test(NAME bench_fig20_smoke COMMAND fig20_trimming --vectors 40 --trials 1 --circuits c432,c1908)
add_test(NAME bench_fig21_smoke COMMAND fig21_retained_shifts --circuits c432,c499)
add_test(NAME bench_fig22_smoke COMMAND fig22_bitfield_widths --circuits c432,c499)
add_test(NAME bench_fig23_smoke COMMAND fig23_shift_elimination --vectors 40 --trials 1 --circuits c432,c880)
add_test(NAME bench_fig24_smoke COMMAND fig24_combined --vectors 40 --trials 1 --circuits c432,c880)
add_test(NAME bench_fault_smoke COMMAND ext_fault_parallel --vectors 32 --trials 1 --circuits c432)
add_test(NAME bench_multidelay_smoke COMMAND ext_multidelay --vectors 40 --trials 1)
add_test(NAME bench_emitted_c_smoke COMMAND ablation_emitted_c --vectors 40 --trials 1 --circuits c432)
add_test(NAME bench_wordsize_smoke COMMAND ablation_wordsize --vectors 40 --trials 1 --circuits c432)
add_test(NAME bench_dataparallel_smoke COMMAND ablation_dataparallel --vectors 40 --trials 1 --circuits c432)
add_test(NAME bench_lane_io_smoke COMMAND ablation_lane_io --vectors 70 --trials 1 --circuits c432)
add_test(NAME bench_compile_scale_smoke COMMAND ablation_compile_scale --mult 4,8 --dag 500,2000 --trials 1)
add_test(NAME bench_threads_smoke COMMAND ablation_threads --vectors 200 --trials 1 --circuits c432 --threads 1,2 --json ablation_threads_smoke.json)
add_test(NAME bench_observability_smoke COMMAND ablation_observability --vectors 200 --trials 1 --circuits c432,c880 --json ablation_observability_smoke.json)
add_test(NAME bench_resilience_smoke COMMAND ablation_resilience --vectors 200 --trials 1 --circuits c432,c880 --json ablation_resilience_smoke.json)
add_test(NAME bench_service_smoke COMMAND ablation_service --vectors 64 --circuits c432 --json ablation_service_smoke.json)
set_tests_properties(bench_service_smoke PROPERTIES LABELS "service")
# Self-healing gate (ISSUE 9): the breaker ablation doubles as a smoke test —
# non-zero exit if any request fails to complete through the outage or the
# breaker does not cap the toolchain tax at its threshold.
add_test(NAME bench_breaker_smoke COMMAND ablation_breaker --vectors 32 --circuits c432 --json ablation_breaker_smoke.json)
set_tests_properties(bench_breaker_smoke PROPERTIES LABELS "service")
# Telemetry scrape gate (ISSUE 10): status_json must parse with every
# section present, the live service state and the exactly-once invariant
# visible over the wire, and the JSONL event log (rendered on its writer
# thread) must account for every resolution with parseable lines.
add_test(NAME bench_telemetry_smoke COMMAND telemetry_smoke --vectors 48 --circuits c432)
set_tests_properties(bench_telemetry_smoke PROPERTIES LABELS "service;telemetry")

# The report-label gate (ISSUE 5): bench_report must produce a valid report
# and --check must fail on injected counter drift. The drift test writes a
# fresh baseline, re-runs with --inject-drift against it, and must exit
# non-zero (WILL_FAIL).
add_test(NAME bench_report_smoke
  COMMAND bench_report --vectors 24 --trials 1 --circuits c432,c17
          --out bench_report_smoke.json)
add_test(NAME bench_report_check_pass
  COMMAND sh -c "$<TARGET_FILE:bench_report> --vectors 24 --trials 1 --circuits c432 --out bench_report_base.json && $<TARGET_FILE:bench_report> --vectors 24 --trials 1 --circuits c432 --no-throughput-check --out bench_report_cur.json --check bench_report_base.json")
add_test(NAME bench_report_check_drift
  COMMAND sh -c "$<TARGET_FILE:bench_report> --vectors 24 --trials 1 --circuits c432 --out bench_report_base2.json && $<TARGET_FILE:bench_report> --vectors 24 --trials 1 --circuits c432 --no-throughput-check --inject-drift --out bench_report_drift.json --check bench_report_base2.json")
set_tests_properties(bench_report_check_drift PROPERTIES WILL_FAIL TRUE)
set_tests_properties(bench_report_smoke bench_report_check_pass
  bench_report_check_drift PROPERTIES LABELS "report")

# Native-backend cache hygiene (ISSUE 6): LRU eviction bounds the object
# cache and evicted entries rebuild as misses. Exit 77 = no C compiler.
udsim_bench(native_cache_smoke)
add_test(NAME bench_native_cache_smoke COMMAND native_cache_smoke)
set_tests_properties(bench_native_cache_smoke PROPERTIES
  LABELS "native" SKIP_RETURN_CODE 77)
