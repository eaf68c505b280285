# Benchmark targets, included from the top-level CMakeLists so that the
# build/bench directory holds only the executables (the harness runs
# `for b in build/bench/*`).

function(trel_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE
    trel_kb trel_storage trel_baselines trel_core trel_graph trel_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(trel_add_microbench name)
  trel_add_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

trel_add_bench(fig3_9_storage_vs_degree)
trel_add_bench(fig3_10_inverse_closure)
trel_add_bench(fig3_11_storage_vs_nodes)
trel_add_bench(fig3_12_interval_histogram)
trel_add_bench(tbl_merging_benefit)
trel_add_bench(tbl_worst_case_bipartite)
trel_add_bench(tbl_chain_vs_tree)
trel_add_bench(tbl_incremental_updates)
trel_add_bench(tbl_io_cost)
trel_add_bench(tbl_cover_ablation)
trel_add_bench(tbl_multi_hierarchy)
trel_add_bench(tbl_child_order)
trel_add_bench(tbl_grail_comparison)
trel_add_bench(tbl_scaling)
trel_add_bench(tbl_kb_workload)
trel_add_microbench(micro_query)
trel_add_microbench(micro_build)
trel_add_microbench(micro_obs_overhead)
target_link_libraries(micro_obs_overhead PRIVATE trel_service)
trel_add_bench(micro_adversarial)
trel_add_bench(micro_publish)
trel_add_bench(micro_sharded)
target_link_libraries(micro_sharded PRIVATE trel_service)
