(* Exhaustive small-scope verification of the Figure 4 protocol, plus
   mutation testing: breaking any of the algorithm's rules must produce a
   causal violation the explorer finds.  Every case runs the bounded model
   checker over the shipped [Protocol.step]. *)

module Gen = Dsm_mc.Gen
module Explore = Dsm_mc.Explore
module MSys = Dsm_mc.System
module Config = Dsm_protocol.Config
module Policy = Dsm_protocol.Policy
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module History = Dsm_memory.History

let x = Gen.x
and y = Gen.y

let owner ~nodes f = Dsm_memory.Owner.make ~nodes f

(* Figure 5's layout: P0 owns x, P1 owns y. *)
let fig5 =
  Gen.make "fig5"
    ~owner:(owner ~nodes:2 (fun loc -> if Loc.equal loc x then 0 else 1))
    [|
      [ Gen.Read y; Gen.Write (x, Value.Int 1); Gen.Read y ];
      [ Gen.Read x; Gen.Write (y, Value.Int 1); Gen.Read x ];
    |]

(* Two writes crossing at a third node's variables, plus a pure reader. *)
let three_node =
  let v i = Loc.indexed "v" i in
  Gen.make "three-node"
    ~owner:(owner ~nodes:3 (function Loc.Indexed (_, i) -> i mod 3 | _ -> 0))
    [|
      [ Gen.Write (v 1, Value.Int 10); Gen.Read (v 2) ];
      [ Gen.Write (v 2, Value.Int 20); Gen.Read (v 1) ];
      [ Gen.Read (v 1); Gen.Read (v 2) ];
    |]

(* Remote writers contending on one owner. *)
let contention =
  Gen.make "contention"
    ~owner:(owner ~nodes:3 (fun _ -> 0))
    [|
      [ Gen.Read x ];
      [ Gen.Write (x, Value.Int 1); Gen.Read x ];
      [ Gen.Write (x, Value.Int 2); Gen.Read x ];
    |]

let history_text sys = History.to_string (History.of_ops (MSys.history sys))

(* Every clean terminal state of [scope], after asserting exhaustion and
   no counterexample. *)
let terminals scope =
  let acc = ref [] in
  let r = Explore.explore ~on_terminal:(fun sys -> acc := sys :: !acc) scope in
  Alcotest.(check bool) (scope.Gen.sname ^ ": no counterexample") true (r.Explore.cex = None);
  Alcotest.(check bool) (scope.Gen.sname ^ ": exhaustive") false r.Explore.stats.Explore.truncated;
  !acc

let fig5_histories () = List.sort_uniq compare (List.map history_text (terminals fig5))

let caught scope = (Explore.run scope).Explore.cex <> None

let test_faithful_protocol_never_violates () =
  List.iter
    (fun scope ->
      Alcotest.(check bool) (scope.Gen.sname ^ ": reached terminals") true (terminals scope <> []))
    [ fig5; Gen.publication; three_node; contention ]

let test_fig5_weak_execution_reachable () =
  let histories = fig5_histories () in
  let fig5_text = "P0: r(y)0 w(x)1 r(y)0\nP1: r(x)0 w(y)1 r(x)0" in
  Alcotest.(check bool) "paper's weak execution among them" true (List.mem fig5_text histories)

let test_fig5_exactly_three_executions () =
  (* The blocking protocol narrows Figure 5's space: both remote first
     reads return 0, both re-reads hit the cached 0; only the order of the
     two remote certifications varies, giving 3 distinct histories. *)
  Alcotest.(check int) "distinct terminal histories" 3 (List.length (fig5_histories ()))

let test_figure4_literal_admits_violations () =
  (* The finding: the published pseudocode, with owners servicing requests
     while blocked, caches a reply that raced with a write certification
     and later reads an overwritten value.  The stale-install guard makes
     the same scope exhaustively clean. *)
  Alcotest.(check bool) "literal Figure 4 violates" true
    (caught { Gen.race with Gen.mutation = Config.Figure4_literal });
  Alcotest.(check bool) "patched is clean" true ((Explore.explore Gen.race).Explore.cex = None)

let test_skip_invalidation_found () =
  Alcotest.(check bool) "mutation caught" true
    (caught { Gen.publication with Gen.mutation = Config.Skip_invalidation })

let test_skip_certify_merge_found () =
  (* Without the owner's clock merge, servicing a WRITE no longer
     invalidates the owner's stale cache. *)
  Alcotest.(check bool) "mutation caught" true
    (caught { Gen.race with Gen.mutation = Config.Skip_writestamp_merge })

let test_skip_install_merge_found () =
  (* Without merging fetched stamps, a reader's later writes carry stamps
     that do not dominate what it read, so downstream caches stay stale. *)
  Alcotest.(check bool) "mutation caught" true
    (caught { Gen.race with Gen.mutation = Config.Skip_install_merge })

let test_state_limit () =
  let r = Explore.explore ~max_states:5 Gen.race in
  Alcotest.(check bool) "truncated" true r.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "no counterexample" true (r.Explore.cex = None)

(* The Section 4.2 dictionary race: P0 owns the cell, inserts 1 and
   re-inserts 2 over a delete; P1 reads the cell and then blind-writes the
   free marker 99.  The paper's argument: under owner-favored resolution a
   delete based on a stale read never kills the newer insert. *)
let dict_race policy =
  {
    (Gen.make "dict-race"
       ~owner:(owner ~nodes:2 (fun _ -> 0))
       [|
         [ Gen.Write (x, Value.Int 1); Gen.Write (x, Value.Int 2) ];
         [ Gen.Read x; Gen.Write (x, Value.Int 99) ];
       |])
    with
    Gen.policy;
  }

(* Did P1's read see the re-insert, and did its delete survive? *)
let delete_outcome sys =
  let saw_new = MSys.read_values sys 1 = [ Value.Int 2 ] in
  let deleted = MSys.owner_value sys x = Some (Value.Int 99) in
  (saw_new, deleted)

let stale_delete_won sys = delete_outcome sys = (false, true)

let test_dictionary_race_exhaustive_owner_favored () =
  let ts = terminals (dict_race Policy.Owner_favored) in
  Alcotest.(check bool) "some schedules exist" true (ts <> []);
  Alcotest.(check bool) "stale delete never kills the re-insert" false
    (List.exists stale_delete_won ts)

let test_dictionary_race_exhaustive_lww_fails () =
  Alcotest.(check bool) "a losing schedule exists" true
    (List.exists stale_delete_won (terminals (dict_race Policy.Last_writer_wins)))

let test_policy_affects_only_concurrent () =
  (* A delete that read the re-insert causally follows it and applies
     under both policies. *)
  List.iter
    (fun policy ->
      Alcotest.(check bool) "an ordered delete applies" true
        (List.exists (fun sys -> delete_outcome sys = (true, true)) (terminals (dict_race policy))))
    [ Policy.Last_writer_wins; Policy.Owner_favored ]

(* Every history the simulator produces for a scope, under any latency
   schedule, is among the model checker's terminal histories. *)
let cluster_history (scope : Gen.scope) ~seed =
  let module Engine = Dsm_sim.Engine in
  let module Proc = Dsm_runtime.Proc in
  let module Cluster = Dsm_causal.Cluster in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let cluster =
    Cluster.create ~sched ~owner:scope.Gen.owner
      ~latency:(Dsm_net.Latency.Uniform (0.1, 10.0))
      ~seed ()
  in
  let prng = Dsm_util.Prng.create seed in
  Array.iteri
    (fun i program ->
      let start = Dsm_util.Prng.float prng 5.0 in
      let h = Cluster.handle cluster i in
      ignore
        (Proc.spawn sched ~delay:start (fun () ->
             List.iter
               (function
                 | Gen.Read loc -> ignore (Cluster.read h loc)
                 | Gen.Write (loc, v) -> Cluster.write h loc v
                 | Gen.Query _ -> ())
               program)))
    scope.Gen.programs;
  Engine.run engine;
  Proc.check sched;
  History.to_string (Cluster.history cluster)

let test_simulator_subset_of_model () =
  List.iter
    (fun scope ->
      let known = List.map history_text (terminals scope) in
      for seed = 1 to 25 do
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: cluster history is an mc terminal" scope.Gen.sname seed)
          true
          (List.mem (cluster_history scope ~seed:(Int64.of_int seed)) known)
      done)
    [ fig5; contention; Gen.publication ]

let test_deterministic () =
  let a = Explore.explore fig5 and b = Explore.explore fig5 in
  Alcotest.(check int) "states" a.Explore.stats.Explore.states b.Explore.stats.Explore.states;
  Alcotest.(check int) "executions" a.Explore.stats.Explore.executions
    b.Explore.stats.Explore.executions

let suite =
  [
    Alcotest.test_case "faithful never violates" `Quick test_faithful_protocol_never_violates;
    Alcotest.test_case "fig5 weak execution reachable" `Quick test_fig5_weak_execution_reachable;
    Alcotest.test_case "fig5 execution count" `Quick test_fig5_exactly_three_executions;
    Alcotest.test_case "FINDING: literal Figure 4 violates" `Quick
      test_figure4_literal_admits_violations;
    Alcotest.test_case "mutation: skip invalidation" `Quick test_skip_invalidation_found;
    Alcotest.test_case "mutation: skip certify merge" `Quick test_skip_certify_merge_found;
    Alcotest.test_case "mutation: skip install merge" `Quick test_skip_install_merge_found;
    Alcotest.test_case "state limit" `Quick test_state_limit;
    Alcotest.test_case "dict race exhaustive (owner-favored)" `Quick
      test_dictionary_race_exhaustive_owner_favored;
    Alcotest.test_case "dict race exhaustive (lww ablation)" `Quick
      test_dictionary_race_exhaustive_lww_fails;
    Alcotest.test_case "policy only on concurrent" `Quick test_policy_affects_only_concurrent;
    Alcotest.test_case "simulator subset of model" `Slow test_simulator_subset_of_model;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
