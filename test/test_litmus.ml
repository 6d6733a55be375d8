(* Litmus-test classifications: every classic shape must land exactly where
   the literature (and the paper's strict definition) places it — first as
   recorded histories through the checkers, then as executable programs
   pushed through the real protocol by the bounded model checker. *)

module Litmus = Dsm_checker.Litmus
module Histories = Dsm_checker.Histories
module Gen = Dsm_mc.Gen
module Explore = Dsm_mc.Explore
module MSys = Dsm_mc.System
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner
module Config = Dsm_protocol.Config

let case_test (c : Litmus.case) () =
  List.iter
    (fun (checker, expected, measured) ->
      Alcotest.(check bool) (c.Litmus.name ^ " / " ^ checker) expected measured)
    (Litmus.check c)

let test_wrc_separates_causal_from_pram () =
  (* The defining separation: WRC is PRAM-legal but causally illegal. *)
  let c = Litmus.write_read_causality in
  Alcotest.(check bool) "pram allows" true
    (Dsm_checker.Consistency.is_pram c.Litmus.history);
  Alcotest.(check bool) "causal forbids" false
    (Dsm_checker.Causal_check.is_correct c.Litmus.history)

let test_sb_separates_sc_from_causal () =
  let c = Litmus.store_buffering in
  Alcotest.(check bool) "causal allows" true
    (Dsm_checker.Causal_check.is_correct c.Litmus.history);
  Alcotest.(check bool) "sc forbids" false (Dsm_checker.Consistency.is_sc c.Litmus.history)

let test_hierarchy_is_respected () =
  (* On every litmus case: sc => causal => pram => slow. *)
  List.iter
    (fun (c : Litmus.case) ->
      let cl = Dsm_checker.Consistency.classify c.Litmus.history in
      let imp a b = (not a) || b in
      Alcotest.(check bool) (c.Litmus.name ^ " sc=>causal") true
        (imp cl.Dsm_checker.Consistency.sc cl.Dsm_checker.Consistency.causal);
      Alcotest.(check bool) (c.Litmus.name ^ " causal=>pram") true
        (imp cl.Dsm_checker.Consistency.causal cl.Dsm_checker.Consistency.pram);
      Alcotest.(check bool) (c.Litmus.name ^ " pram=>slow") true
        (imp cl.Dsm_checker.Consistency.pram cl.Dsm_checker.Consistency.slow))
    Litmus.all

let test_naive_checker_agrees_on_litmus () =
  List.iter
    (fun (c : Litmus.case) ->
      Alcotest.(check bool) c.Litmus.name c.Litmus.expected.Litmus.causal
        (Dsm_checker.Causal_check.Naive.is_correct c.Litmus.history))
    Litmus.all

(* ------------------------------------------------------------------ *)
(* The paper's figures as executable programs through the protocol     *)
(*                                                                     *)
(* Histories.all already pins the checker's verdict on each figure as  *)
(* a recorded history.  Here the same programs run through the real    *)
(* owner protocol under the bounded model checker, which enumerates    *)
(* every interleaving: outcomes the paper exhibits must be producible  *)
(* (or provably not, where the implementation is strictly stronger     *)
(* than causal memory), and no interleaving may violate Definition 1.  *)
(* ------------------------------------------------------------------ *)

let x = Gen.x
and y = Gen.y
and z = Gen.z

let mk_scope name ~nodes ~owner ~programs = Gen.make name ~owner:(Owner.make ~nodes owner) programs

(* Explore [scope], asserting every interleaving causal (no online or
   post-hoc counterexample); returns whether some terminal state
   satisfied [outcome]. *)
let explore_for ?max_states scope ~outcome =
  let seen = ref false in
  let report =
    Explore.explore ?max_states scope ~on_terminal:(fun sys ->
        if outcome sys then seen := true)
  in
  Alcotest.(check bool)
    (scope.Gen.sname ^ ": no interleaving violates causality")
    true (report.Explore.cex = None);
  (report, !seen)

(* Figure 1: P1 writes x then y and re-reads both; P2 writes its own z and
   then reads P1's publications.  The figure's outcome — both processes
   reading y=2 then x=1 — must be an actual execution of the protocol,
   and no schedule may produce a non-causal one. *)
let fig1_scope =
  mk_scope "fig1" ~nodes:2
    ~owner:(fun loc -> if Loc.equal loc z then 1 else 0)
    ~programs:
      [|
        [
          Gen.Write (x, Value.Int 1);
          Gen.Write (y, Value.Int 2);
          Gen.Read y;
          Gen.Read x;
        ];
        [ Gen.Write (z, Value.Int 1); Gen.Read y; Gen.Read x ];
      |]

let test_fig1_through_protocol () =
  let report, seen =
    explore_for fig1_scope ~outcome:(fun sys ->
        MSys.read_values sys 0 = [ Value.Int 2; Value.Int 1 ]
        && MSys.read_values sys 1 = [ Value.Int 2; Value.Int 1 ])
  in
  Alcotest.(check bool) "fig1 explored exhaustively" false
    report.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "fig1's outcome is an execution of the protocol" true seen

(* Figure 2: the paper's three-process "correct execution on causal
   memory".  Fourteen operations is too deep to exhaust cheaply, so the
   exploration is capped — the assertion is purely that no explored
   interleaving violates causality. *)
let fig2_scope =
  mk_scope "fig2" ~nodes:3
    ~owner:(fun loc -> if Loc.equal loc z then 1 else 0)
    ~programs:
      [|
        [
          Gen.Write (x, Value.Int 2);
          Gen.Write (y, Value.Int 2);
          Gen.Write (y, Value.Int 3);
          Gen.Read z;
          Gen.Write (x, Value.Int 4);
        ];
        [
          Gen.Write (x, Value.Int 1);
          Gen.Read y;
          Gen.Write (x, Value.Int 7);
          Gen.Write (z, Value.Int 5);
          Gen.Read x;
          Gen.Read x;
        ];
        [ Gen.Read z; Gen.Write (x, Value.Int 9) ];
      |]

let test_fig2_through_protocol () =
  let report, _ = explore_for fig2_scope ~max_states:4_000 ~outcome:(fun _ -> false) in
  Alcotest.(check bool) "fig2 visited a substantial frontier" true
    (report.Explore.stats.Explore.states >= 1_000)

(* Figure 3: causal broadcasting is not causal memory.  The anomaly — P2
   overwrites its own w(x)2 view by reading x=5, then writes z=4; P3 reads
   that z=4 yet still the overwritten x=2 — must NOT be producible by the
   protocol under any interleaving (and the post-hoc checker must agree
   the anomalous history is illegal, which Histories.all pins). *)
let fig3_scope =
  mk_scope "fig3" ~nodes:3
    ~owner:(fun loc -> if Loc.equal loc z then 1 else 0)
    ~programs:
      [|
        [ Gen.Write (x, Value.Int 5); Gen.Write (y, Value.Int 3) ];
        [
          Gen.Write (x, Value.Int 2);
          Gen.Read y;
          Gen.Read x;
          Gen.Write (z, Value.Int 4);
        ];
        [ Gen.Read z; Gen.Read x ];
      |]

let test_fig3_anomaly_unreachable () =
  let anomaly sys =
    MSys.read_values sys 1 = [ Value.Int 3; Value.Int 5 ]
    && MSys.read_values sys 2 = [ Value.Int 4; Value.Int 2 ]
  in
  let report, seen = explore_for fig3_scope ~outcome:anomaly in
  Alcotest.(check bool) "fig3 explored exhaustively" false
    report.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "fig3's anomaly is not producible" false seen;
  Alcotest.(check bool) "the checker rejects the fig3 history" false
    (Dsm_checker.Causal_check.is_correct Histories.fig3)

(* Figure 5: the weakly consistent (store-buffering flavoured) execution.
   Causal memory allows all four reads to return 0 — Histories.all pins
   that verdict — and the protocol actually produces it: each process's
   first read caches the initial copy, and with no causal path carrying
   the other's write, the second read legally hits that stale cache. *)
let fig5_scope =
  mk_scope "fig5" ~nodes:2
    ~owner:(fun loc -> if Loc.equal loc y then 1 else 0)
    ~programs:
      [|
        [ Gen.Read y; Gen.Write (x, Value.Int 1); Gen.Read y ];
        [ Gen.Read x; Gen.Write (y, Value.Int 1); Gen.Read x ];
      |]

let test_fig5_through_protocol () =
  let report, seen =
    explore_for fig5_scope ~outcome:(fun sys ->
        MSys.read_values sys 0 = [ Value.initial; Value.initial ]
        && MSys.read_values sys 1 = [ Value.initial; Value.initial ])
  in
  Alcotest.(check bool) "fig5 explored exhaustively" false
    report.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "fig5's all-zero outcome is an execution of the protocol"
    true seen;
  Alcotest.(check bool) "and the checker accepts the fig5 history" true
    (Dsm_checker.Causal_check.is_correct Histories.fig5)

(* ------------------------------------------------------------------ *)
(* The same figure shapes, lifted from registers to causal objects:     *)
(* counter and G-set programs whose op-log writes and probes ride the   *)
(* protocol, with a Query folding what each process observed.  Every    *)
(* scope is explored exhaustively; [cex = None] certifies that no       *)
(* interleaving produces a query return outside its spec-legal set      *)
(* (the generalized checker runs inside the MC), and the outcome        *)
(* assertions pin which returns the protocol actually produces.         *)
(* ------------------------------------------------------------------ *)

let ctr w k = Loc.cell "ctr" w k

let gs w k = Loc.cell "gset" w k

(* Query returns of process [pid] at a terminal state, in program order. *)
let rets sys pid =
  Dsm_mc.System.queries sys
  |> List.filter (fun (q : Dsm_checker.Obj_check.query) -> q.Dsm_checker.Obj_check.q_pid = pid)
  |> List.map (fun (q : Dsm_checker.Obj_check.query) -> q.Dsm_checker.Obj_check.q_ret)

let explore_objects scope ~outcomes =
  (* [outcomes] maps a terminal to a key; returns the set of keys seen. *)
  let seen = Hashtbl.create 8 in
  let report =
    Explore.explore scope ~on_terminal:(fun sys -> Hashtbl.replace seen (outcomes sys) ())
  in
  Alcotest.(check bool)
    (scope.Gen.sname ^ ": no interleaving yields a spec-illegal return")
    true (report.Explore.cex = None);
  Alcotest.(check bool) (scope.Gen.sname ^ " explored exhaustively") false
    report.Explore.stats.Explore.truncated;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

(* Figure 1 on a counter: P0 publishes two increments in program order and
   queries; P1 probes the op log newest-first and queries.  P1 may see
   both ("2"), neither ("0") — stale is causally legal — but never the
   second without the first: its probes rode the same causal machinery,
   so "1" at P1 can only mean inc#1 alone. *)
let obj_fig1_counter () =
  let scope =
    mk_scope "obj-fig1-ctr" ~nodes:2
      ~owner:(fun _ -> 0)
      ~programs:
        [|
          (* The MC's query folds the process's probe reads, so P0 probes
             its own op log (cache hits) before querying. *)
          [ Gen.Write (ctr 0 0, Value.Str "inc"); Gen.Write (ctr 0 1, Value.Str "inc");
            Gen.Read (ctr 0 0); Gen.Read (ctr 0 1); Gen.Query "ctr" ];
          [ Gen.Read (ctr 0 1); Gen.Read (ctr 0 0); Gen.Query "ctr" ];
        |]
  in
  let outcomes =
    explore_objects scope ~outcomes:(fun sys ->
        (rets sys 0, rets sys 1, MSys.read_values sys 1))
  in
  Alcotest.(check bool) "P0 always sees its own two increments" true
    (List.for_all (fun (r0, _, _) -> r0 = [ "2" ]) outcomes);
  Alcotest.(check bool) "full publication is an execution" true
    (List.exists (fun (_, r1, _) -> r1 = [ "2" ]) outcomes);
  (* "1" is legal only as inc#1-alone (the newest-first probe missed
     inc#2); observing inc#2 while its prerequisite reads Free is the
     causally illegal view and must be unreachable. *)
  List.iter
    (fun (_, r1, reads1) ->
      Alcotest.(check bool) "P1 return causally closed" true
        (List.mem r1 [ [ "0" ]; [ "1" ]; [ "2" ] ]);
      Alcotest.(check bool) "inc#2 never visible without inc#1" true
        (reads1 <> [ Value.Str "inc"; Value.Free ]))
    outcomes

(* Figure 3 on a counter: P1's increment is causally after P0's (it probed
   it first).  No interleaving may let P2 fold P1's increment while P0's
   prerequisite is invisible — the query-level reply-before-post anomaly. *)
let obj_fig3_counter () =
  let scope =
    mk_scope "obj-fig3-ctr" ~nodes:3
      ~owner:(fun (loc : Loc.t) ->
        match loc with Loc.Cell (_, w, _) -> (w : int) mod 2 | _ -> 0)
      ~programs:
        [|
          [ Gen.Write (ctr 0 0, Value.Str "inc") ];
          [ Gen.Read (ctr 0 0); Gen.Write (ctr 1 0, Value.Str "inc") ];
          [ Gen.Read (ctr 1 0); Gen.Read (ctr 0 0); Gen.Query "ctr" ];
        |]
  in
  let outcomes =
    explore_objects scope ~outcomes:(fun sys ->
        (MSys.read_values sys 1, MSys.read_values sys 2, rets sys 2))
  in
  let dependent = ref false in
  List.iter
    (fun (reads1, reads2, r2) ->
      match (reads1, reads2) with
      | [ Value.Str "inc" ], [ Value.Str "inc"; second ] ->
          (* P1 probed the prerequisite before incrementing, and P2 saw
             P1's dependent increment: the prerequisite must be visible at
             P2 too, and the fold must count both. *)
          dependent := true;
          Alcotest.(check bool) "prerequisite visible" true
            (Value.equal second (Value.Str "inc"));
          Alcotest.(check (list string)) "fold counts both" [ "2" ] r2
      | _ -> ())
    outcomes;
  Alcotest.(check bool) "the dependent-visibility outcome is reachable" true !dependent

(* Figure 5 on a counter (store buffering): each process probes the
   other's op log first (caching the empty view), increments, re-probes
   its own log and queries.  Both queries returning "1" — each side blind
   to the other's concurrent increment — is causally legal and actually
   producible; both returning "2" is not (the probe-first shape forces the
   same cycle that makes fig5's all-fresh outcome impossible). *)
let obj_fig5_counter () =
  let scope =
    mk_scope "obj-fig5-ctr" ~nodes:2
      ~owner:(fun (loc : Loc.t) ->
        match loc with Loc.Cell (_, w, _) -> (w : int) | _ -> 0)
      ~programs:
        [|
          [ Gen.Read (ctr 1 0); Gen.Write (ctr 0 0, Value.Str "inc"); Gen.Read (ctr 0 0);
            Gen.Query "ctr" ];
          [ Gen.Read (ctr 0 0); Gen.Write (ctr 1 0, Value.Str "inc"); Gen.Read (ctr 1 0);
            Gen.Query "ctr" ];
        |]
  in
  let outcomes = explore_objects scope ~outcomes:(fun sys -> (rets sys 0, rets sys 1)) in
  Alcotest.(check bool) "both-stale is an execution" true
    (List.mem ([ "1" ], [ "1" ]) outcomes);
  Alcotest.(check bool) "mutual convergence is not" false
    (List.mem ([ "2" ], [ "2" ]) outcomes)

(* Figure 1 on a G-set: publication with set semantics.  Seeing [b]
   (published second) without [a] is the causally illegal view; the
   reachable returns at P1 are exactly {}, {a}, {a,b}. *)
let obj_fig1_gset () =
  let scope =
    mk_scope "obj-fig1-gset" ~nodes:2
      ~owner:(fun _ -> 0)
      ~programs:
        [|
          [ Gen.Write (gs 0 0, Value.Str "add:a"); Gen.Write (gs 0 1, Value.Str "add:b");
            Gen.Read (gs 0 0); Gen.Read (gs 0 1); Gen.Query "gset" ];
          [ Gen.Read (gs 0 1); Gen.Read (gs 0 0); Gen.Query "gset" ];
        |]
  in
  let outcomes = explore_objects scope ~outcomes:(fun sys -> (rets sys 0, rets sys 1)) in
  Alcotest.(check bool) "P0 renders its own publication" true
    (List.for_all (fun (r0, _) -> r0 = [ "a,b" ]) outcomes);
  List.iter
    (fun (_, r1) ->
      Alcotest.(check bool)
        (Printf.sprintf "P1 view %s causally closed"
           (match r1 with [ s ] -> s | _ -> "?"))
        true
        (List.mem r1 [ [ "" ]; [ "a" ]; [ "a,b" ] ]))
    outcomes;
  Alcotest.(check bool) "full set reachable" true
    (List.exists (fun (_, r1) -> r1 = [ "a,b" ]) outcomes)

(* Figure 5 on a G-set: concurrent adds of distinct elements under the
   same probe-first shape; each side seeing only its own element is an
   execution, mutual full visibility is not. *)
let obj_fig5_gset () =
  let scope =
    mk_scope "obj-fig5-gset" ~nodes:2
      ~owner:(fun (loc : Loc.t) ->
        match loc with Loc.Cell (_, w, _) -> (w : int) | _ -> 0)
      ~programs:
        [|
          [ Gen.Read (gs 1 0); Gen.Write (gs 0 0, Value.Str "add:a"); Gen.Read (gs 0 0);
            Gen.Query "gset" ];
          [ Gen.Read (gs 0 0); Gen.Write (gs 1 0, Value.Str "add:b"); Gen.Read (gs 1 0);
            Gen.Query "gset" ];
        |]
  in
  let outcomes = explore_objects scope ~outcomes:(fun sys -> (rets sys 0, rets sys 1)) in
  Alcotest.(check bool) "both-stale is an execution" true
    (List.mem ([ "a" ], [ "b" ]) outcomes);
  Alcotest.(check bool) "mutual convergence is not" false
    (List.mem ([ "a,b" ], [ "a,b" ]) outcomes)

(* The planted merge bug on the shipped objects scope: the model checker
   must find it and shrink the schedule to a replayable 1-minimal
   counterexample (the matrix pins the same pairing; this test keeps the
   litmus family self-contained). *)
let obj_merge_drops_op_caught () =
  let scope = { Gen.objects_scope with Gen.mutation = Config.Merge_drops_op } in
  let report = Explore.run scope in
  match report.Explore.cex with
  | None -> Alcotest.fail "merge-drops-op not caught on the objects scope"
  | Some cex ->
      Alcotest.(check bool) "shrunk schedule nonempty" true (cex.Explore.schedule <> []);
      Alcotest.(check bool) "shrunk schedule still violates" true
        (Explore.violates scope cex.Explore.schedule);
      let _, reason = cex.Explore.cex_violation in
      Alcotest.(check bool) "violation is object-level" true
        (Str_contains.contains reason "ctr")

let suite =
  List.map
    (fun (c : Litmus.case) -> Alcotest.test_case c.Litmus.name `Quick (case_test c))
    Litmus.all
  @ [
      Alcotest.test_case "WRC separates causal/PRAM" `Quick test_wrc_separates_causal_from_pram;
      Alcotest.test_case "SB separates SC/causal" `Quick test_sb_separates_sc_from_causal;
      Alcotest.test_case "hierarchy respected" `Quick test_hierarchy_is_respected;
      Alcotest.test_case "naive agrees" `Quick test_naive_checker_agrees_on_litmus;
      Alcotest.test_case "fig1 through the protocol" `Quick test_fig1_through_protocol;
      Alcotest.test_case "fig2 through the protocol" `Quick test_fig2_through_protocol;
      Alcotest.test_case "fig3 anomaly unreachable" `Quick test_fig3_anomaly_unreachable;
      Alcotest.test_case "fig5 through the protocol" `Quick test_fig5_through_protocol;
      Alcotest.test_case "obj fig1 on counter" `Quick obj_fig1_counter;
      Alcotest.test_case "obj fig3 on counter" `Quick obj_fig3_counter;
      Alcotest.test_case "obj fig5 on counter" `Quick obj_fig5_counter;
      Alcotest.test_case "obj fig1 on g-set" `Quick obj_fig1_gset;
      Alcotest.test_case "obj fig5 on g-set" `Quick obj_fig5_gset;
      Alcotest.test_case "obj merge-drops-op caught" `Quick obj_merge_drops_op_caught;
    ]
