(* Aggregate test runner: one alcotest binary, one suite per module. *)

let () =
  Alcotest.run "causal-dsm"
    [
      ("prng", Test_prng.suite);
      ("heap", Test_heap.suite);
      ("bitrel", Test_bitrel.suite);
      ("stats", Test_stats.suite);
      ("table-csv", Test_table_csv.suite);
      ("vclock", Test_vclock.suite);
      ("engine", Test_engine.suite);
      ("proc", Test_proc.suite);
      ("network", Test_network.suite);
      ("reliable", Test_reliable.suite);
      ("memory-types", Test_memory_types.suite);
      ("membership", Test_membership.suite);
      ("shard", Test_shard.suite);
      ("history", Test_history.suite);
      ("policy-config", Test_policy_config.suite);
      ("node", Test_node.suite);
      ("protocol", Test_protocol.suite);
      ("mc", Test_mc.suite);
      ("causal-cluster", Test_causal_cluster.suite);
      ("precise-invalidation", Test_precise.suite);
      ("atomic", Test_atomic.suite);
      ("broadcast", Test_broadcast.suite);
      ("causality", Test_causality.suite);
      ("causal-check", Test_causal_check.suite);
      ("online-check", Test_online.suite);
      ("consistency", Test_consistency.suite);
      ("litmus", Test_litmus.suite);
      ("linalg", Test_linalg.suite);
      ("solver", Test_solver.suite);
      ("dictionary", Test_dictionary.suite);
      ("workload", Test_workload.suite);
      ("failures", Test_failures.suite);
      ("wal", Test_wal.suite);
      ("recovery", Test_recovery.suite);
      ("detector", Test_detector.suite);
      ("failover", Test_failover.suite);
      ("chaos", Test_chaos.suite);
      ("partition", Test_partition.suite);
      ("config-matrix", Test_config_matrix.suite);
      ("model", Test_model.suite);
      ("sync", Test_sync.suite);
      ("board", Test_board.suite);
      ("dynamic-ownership", Test_dynamic.suite);
      ("properties", Test_properties.suite);
      ("objects", Test_objects.suite);
      ("session", Test_session.suite);
      ("traces", Test_traces.suite);
      ("linearizability", Test_linearizability.suite);
      ("experiments", Test_experiments.suite);
      ("bench-cli", Test_bench_cli.suite);
      ("diagram", Test_diagram.suite);
      ("soak", Test_soak.suite);
    ]
