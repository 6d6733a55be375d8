(* Tests for the workload generator, scenarios and the experiment harness. *)

module Workload = Dsm_apps.Workload
module Harness = Dsm_apps.Harness
module Scenarios = Dsm_apps.Scenarios
module History = Dsm_memory.History

let test_spec_validation () =
  Alcotest.(check bool) "bad processes" true
    (try
       ignore (Workload.run_causal { Workload.default_spec with Workload.processes = 0 });
       false
     with Invalid_argument _ -> true)

let test_causal_workload_runs () =
  let outcome, cluster = Workload.run_causal ~seed:5L Workload.default_spec in
  Alcotest.(check bool) "ops recorded" true (History.op_count outcome.Workload.history > 0);
  Alcotest.(check bool) "time advanced" true (outcome.Workload.sim_time > 0.0);
  let stats = Dsm_causal.Cluster.total_stats cluster in
  Alcotest.(check bool) "some activity" true
    (stats.Dsm_causal.Node_stats.read_hits + stats.Dsm_causal.Node_stats.read_misses > 0)

let test_atomic_workload_runs () =
  let outcome = Workload.run_atomic ~seed:5L Workload.default_spec in
  Alcotest.(check bool) "ops recorded" true (History.op_count outcome.Workload.history > 0)

let test_bmem_workload_runs () =
  let outcome = Workload.run_bmem ~seed:5L Workload.default_spec in
  Alcotest.(check bool) "ops recorded" true (History.op_count outcome.Workload.history > 0);
  Alcotest.(check bool) "messages counted" true (outcome.Workload.messages > 0)

let test_workload_deterministic () =
  let a, _ = Workload.run_causal ~seed:77L Workload.default_spec in
  let b, _ = Workload.run_causal ~seed:77L Workload.default_spec in
  Alcotest.(check string) "same history"
    (History.to_string a.Workload.history)
    (History.to_string b.Workload.history);
  Alcotest.(check int) "same messages" a.Workload.messages b.Workload.messages

let test_mutation_changes_a_read () =
  let outcome, _ = Workload.run_causal ~seed:3L Workload.default_spec in
  let prng = Dsm_util.Prng.create 1L in
  match Workload.mutate_read prng outcome.Workload.history with
  | None -> Alcotest.fail "expected a mutable read"
  | Some mutated ->
      Alcotest.(check bool) "differs" true
        (History.to_string mutated <> History.to_string outcome.Workload.history);
      Alcotest.(check int) "same shape"
        (History.op_count outcome.Workload.history)
        (History.op_count mutated)

let test_fig5_scenario () =
  let r = Scenarios.fig5_owner_protocol () in
  Alcotest.(check bool) "causal ok" true r.Scenarios.f5_causal_ok;
  Alcotest.(check bool) "not sc" false r.Scenarios.f5_sc_ok;
  (* It is literally the paper's execution. *)
  Alcotest.(check string) "history text" "P0: r(y)0 w(x)1 r(y)0\nP1: r(x)0 w(y)1 r(x)0"
    (History.to_string r.Scenarios.f5_history)

let test_stale_install_race_guarded () =
  (* The race the model checker found in Figure 4's literal pseudocode must
     fire (the guard drops at least one fetched entry) and the recorded
     history must nevertheless be causally correct. *)
  let r = Scenarios.stale_install_race () in
  Alcotest.(check bool) "guard fired" true (r.Scenarios.si_stale_drops >= 1);
  Alcotest.(check bool) "history causal" true r.Scenarios.si_causal_ok

let test_stale_install_race_literal () =
  (* With the guard switched off (the published pseudocode) the same race
     caches the stale reply and the history violates causality: the one
     guard in Node.install_read_reply is what keeps Cluster correct. *)
  let config = Dsm_causal.Config.(with_mutation Figure4_literal default) in
  let r = Scenarios.stale_install_race ~config () in
  Alcotest.(check int) "nothing dropped" 0 r.Scenarios.si_stale_drops;
  Alcotest.(check bool) "history violates" false r.Scenarios.si_causal_ok

let test_harness_reports_kinds () =
  let r = Harness.solver_causal ~n:3 ~iters:4 () in
  let kinds = List.map fst r.Harness.by_kind in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (List.mem k kinds))
    [ "READ"; "R_REPLY"; "WRITE"; "W_REPLY" ]

let test_harness_deterministic () =
  let a = Harness.solver_causal ~n:3 ~iters:4 () in
  let b = Harness.solver_causal ~n:3 ~iters:4 () in
  Alcotest.(check int) "same messages" a.Harness.messages_total b.Harness.messages_total;
  Alcotest.(check (float 0.0)) "same time" a.Harness.sim_time b.Harness.sim_time

let test_steady_rate_requires_increasing_iters () =
  Alcotest.(check bool) "validated" true
    (try
       ignore
         (Harness.steady_rate
            ~run:(fun ~iters -> Harness.solver_causal ~n:2 ~iters ())
            ~iters_lo:5 ~iters_hi:5);
       false
     with Invalid_argument _ -> true)

let test_message_count_canaries () =
  (* Deterministic canaries: these exact totals are a fingerprint of the
     protocol's message behaviour under the pinned seeds.  A legitimate
     protocol change may move them — update the numbers consciously and
     check E-MSG still matches the paper's analysis. *)
  let c = Harness.solver_causal ~n:4 ~iters:5 () in
  Alcotest.(check int) "causal solver messages" 284 c.Harness.messages_total;
  let a = Harness.solver_atomic ~n:4 ~iters:5 () in
  Alcotest.(check int) "atomic solver messages" 375 a.Harness.messages_total;
  let b = Harness.solver_causal_blocks ~n:8 ~workers:2 ~iters:4 () in
  Alcotest.(check int) "block solver messages" 234 b.Harness.messages_total

let suite =
  [
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "causal workload" `Quick test_causal_workload_runs;
    Alcotest.test_case "atomic workload" `Quick test_atomic_workload_runs;
    Alcotest.test_case "bmem workload" `Quick test_bmem_workload_runs;
    Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "mutation" `Quick test_mutation_changes_a_read;
    Alcotest.test_case "fig5 scenario" `Quick test_fig5_scenario;
    Alcotest.test_case "stale-install race guarded" `Quick test_stale_install_race_guarded;
    Alcotest.test_case "stale-install race literal" `Quick test_stale_install_race_literal;
    Alcotest.test_case "harness kinds" `Quick test_harness_reports_kinds;
    Alcotest.test_case "harness deterministic" `Quick test_harness_deterministic;
    Alcotest.test_case "steady rate validation" `Quick test_steady_rate_requires_increasing_iters;
    Alcotest.test_case "message-count canaries" `Quick test_message_count_canaries;
  ]
