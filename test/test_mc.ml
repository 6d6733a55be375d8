(* The bounded model checker's own contract: exhaustive small-scope
   exploration finds no counterexample against the real protocol, finds
   one for every planted mutation (and shrinks it to a replayable
   minimum), the sleep-set reduction changes cost but never verdicts,
   and everything is deterministic. *)

module Gen = Dsm_mc.Gen
module Explore = Dsm_mc.Explore
module MSys = Dsm_mc.System
module Config = Dsm_protocol.Config

let test_presets_clean () =
  (* Every preset scope, unmutated: the full state space fits under the
     default bound and contains no violation, online or post-hoc. *)
  List.iter
    (fun scope ->
      let report = Explore.explore scope in
      Alcotest.(check bool)
        (scope.Gen.sname ^ ": no counterexample")
        true
        (report.Explore.cex = None);
      Alcotest.(check bool)
        (scope.Gen.sname ^ ": explored exhaustively")
        false report.Explore.stats.Explore.truncated;
      Alcotest.(check bool)
        (scope.Gen.sname ^ ": visited at least one terminal execution")
        true
        (report.Explore.stats.Explore.executions > 0))
    Gen.presets

let test_mutations_caught () =
  (* Every planted protocol bug has a scope that exposes it, and the
     shrunk schedule still violates under lenient replay — i.e. the
     counterexample is replayable evidence, not an exploration artifact. *)
  List.iter
    (fun (mutation, sname) ->
      let scope =
        match Gen.preset sname with
        | Some s -> { s with Gen.mutation }
        | None -> Alcotest.failf "unknown preset %s" sname
      in
      let label = Config.mutation_name mutation ^ " on " ^ sname in
      let report = Explore.run scope in
      match report.Explore.cex with
      | None -> Alcotest.failf "%s: mutation not caught" label
      | Some cex ->
          Alcotest.(check bool)
            (label ^ ": shrunk schedule is nonempty")
            true
            (cex.Explore.schedule <> []);
          Alcotest.(check bool)
            (label ^ ": shrunk schedule still violates")
            true
            (Explore.violates scope cex.Explore.schedule))
    Gen.matrix

let test_reduction_preserves_verdicts () =
  (* Sleep sets prune transitions, never verdicts: clean scopes stay
     clean and caught mutants stay caught with reduction off. *)
  let check_scope scope =
    let with_r = Explore.explore ~reduction:true scope in
    let without_r = Explore.explore ~reduction:false scope in
    Alcotest.(check bool)
      (scope.Gen.sname ^ ": same verdict with and without reduction")
      (with_r.Explore.cex = None)
      (without_r.Explore.cex = None);
    Alcotest.(check bool)
      (scope.Gen.sname ^ ": reduction explores no more transitions")
      true
      (with_r.Explore.stats.Explore.transitions
      <= without_r.Explore.stats.Explore.transitions)
  in
  check_scope Gen.publication;
  check_scope Gen.race;
  check_scope { Gen.publication with Gen.mutation = Config.Skip_invalidation }

let test_exploration_deterministic () =
  (* Same scope, same bounds: bit-identical statistics and (for a mutant)
     the same counterexample schedule. *)
  let stats_tuple (s : Explore.stats) =
    ( s.Explore.states,
      s.Explore.revisits,
      s.Explore.pruned,
      s.Explore.executions,
      s.Explore.transitions,
      s.Explore.max_depth,
      s.Explore.truncated )
  in
  let scope = { Gen.race with Gen.mutation = Config.Skip_writestamp_merge } in
  let a = Explore.run scope in
  let b = Explore.run scope in
  Alcotest.(check bool) "identical stats" true
    (stats_tuple a.Explore.stats = stats_tuple b.Explore.stats);
  Alcotest.(check bool) "identical counterexample" true
    (a.Explore.cex = b.Explore.cex);
  let c = Explore.explore Gen.failover in
  let d = Explore.explore Gen.failover in
  Alcotest.(check bool) "identical clean-run stats" true
    (stats_tuple c.Explore.stats = stats_tuple d.Explore.stats)

let test_counterexample_trace_written () =
  (* A shrunk counterexample renders to non-empty Trace JSONL, one line
     per event. *)
  let scope = { Gen.publication with Gen.mutation = Config.Skip_invalidation } in
  let report = Explore.run scope in
  match report.Explore.cex with
  | None -> Alcotest.fail "expected a counterexample to render"
  | Some cex ->
      let path = Filename.temp_file "dsm_mc_cex" ".jsonl" in
      let n = Explore.write_counterexample scope cex.Explore.schedule path in
      Alcotest.(check bool) "events written" true (n > 0);
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> ());
      close_in ic;
      Sys.remove path;
      Alcotest.(check int) "one JSONL line per event" n !lines

let test_failover_shadow_read_explored () =
  (* The explored client path is the shipped one: while the backup
     suspects the crashed owner and has not promoted yet, its read of x is
     served from its own shadow copy — some explored execution does so. *)
  let shadow_reads = ref 0 in
  let report =
    Explore.explore
      ~on_terminal:(fun sys ->
        shadow_reads := max !shadow_reads (MSys.counters sys).Dsm_protocol.Protocol.shadow_reads)
      Gen.failover
  in
  Alcotest.(check bool) "clean" true (report.Explore.cex = None);
  Alcotest.(check bool) "a read went through the shadow path" true (!shadow_reads > 0)

let test_takeover_late_write_reply () =
  (* The promoted backup's own write: the old owner's W_REPLY arrives after
     the promotion and completes the op without a cached copy. *)
  let sched =
    MSys.
      [
        Issue 1;
        Deliver { src = 1; dst = 0 };
        Deliver { src = 0; dst = 1 };
        Deliver { src = 1; dst = 0 };
        Crash_victim;
        Takeover_tick;
        Deliver { src = 1; dst = 2 };
        Deliver { src = 1; dst = 2 };
        Deliver { src = 2; dst = 1 };
        Deliver { src = 0; dst = 1 };
      ]
  in
  let sys = Explore.replay Gen.takeover sched in
  Alcotest.(check bool) "no violation" true (MSys.violation sys = None);
  Alcotest.(check bool) "the write completed" true (MSys.completed sys);
  Alcotest.(check int) "node 1 promoted" 1 (MSys.counters sys).Dsm_protocol.Protocol.takeovers;
  Alcotest.(check bool) "node 1 serves x=1" true
    (MSys.owner_value sys Gen.x = Some (Dsm_memory.Value.Int 1))

let test_matrix_end_to_end () =
  (* The CLI's --matrix verdict logic: all rows ok under the default
     bound (the fence scope's quorum canvass pushes it past 160k states,
     so a tighter budget would truncate and spoil the verdict). *)
  let entries = Explore.run_matrix ~max_states:200_000 () in
  Alcotest.(check int) "presets + mutants all ran"
    (List.length Gen.presets + List.length Gen.matrix)
    (List.length entries);
  List.iter
    (fun (e : Explore.matrix_entry) ->
      Alcotest.(check bool) (e.Explore.scope_name ^ ": ok") true e.Explore.ok)
    entries

let suite =
  [
    Alcotest.test_case "presets explore clean" `Quick test_presets_clean;
    Alcotest.test_case "mutations caught and shrunk" `Quick test_mutations_caught;
    Alcotest.test_case "reduction preserves verdicts" `Quick
      test_reduction_preserves_verdicts;
    Alcotest.test_case "exploration deterministic" `Quick test_exploration_deterministic;
    Alcotest.test_case "counterexample trace written" `Quick
      test_counterexample_trace_written;
    Alcotest.test_case "failover shadow read explored" `Quick test_failover_shadow_read_explored;
    Alcotest.test_case "takeover late write reply" `Quick test_takeover_late_write_reply;
    Alcotest.test_case "matrix end to end" `Slow test_matrix_end_to_end;
  ]
