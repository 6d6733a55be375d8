(* Cross-cutting property tests: randomized model checking, transport FIFO,
   notation round-trips, and live-set laws. *)

module Gen = Dsm_mc.Gen
module Explore = Dsm_mc.Explore
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module History = Dsm_memory.History
module Op = Dsm_memory.Op
module Check = Dsm_checker.Causal_check
module Causality = Dsm_checker.Causality

(* ------------------------------------------------------------------ *)
(* Randomized exhaustive model checking: ANY small configuration of the
   shipped protocol must be violation-free over ALL interleavings.      *)
(* ------------------------------------------------------------------ *)

let gen_scope =
  let open QCheck.Gen in
  let* nodes = int_range 2 3 in
  let* locs = int_range 1 2 in
  let loc i = Loc.indexed "m" i in
  let gen_op =
    let* l = int_range 0 (locs - 1) in
    let* is_write = bool in
    if is_write then
      (* Unique values are assigned after generation. *)
      return (`W (loc l))
    else return (`R (loc l))
  in
  let* programs = list_repeat nodes (list_size (int_range 1 2) gen_op) in
  (* Make write values globally unique. *)
  let counter = ref 0 in
  let programs =
    List.map
      (List.map (function
        | `R l -> Gen.Read l
        | `W l ->
            incr counter;
            Gen.Write (l, Value.Int !counter)))
      programs
  in
  return
    (Gen.make "random" ~owner:(Dsm_memory.Owner.by_hash ~nodes) (Array.of_list programs))

let arb_scope =
  QCheck.make gen_scope ~print:(fun scope ->
      String.concat " | "
        (Array.to_list
           (Array.map
              (fun prog ->
                String.concat ";"
                  (List.map
                     (function
                       | Gen.Read l -> "R" ^ Loc.to_string l
                       | Gen.Write (l, v) -> "W" ^ Loc.to_string l ^ "=" ^ Value.to_string v
                       | Gen.Query o -> "Q" ^ o)
                     prog))
              scope.Gen.programs)))

let prop_model_always_causal =
  QCheck.Test.make ~name:"exhaustive: random configs never violate" ~count:25 arb_scope
    (fun scope ->
      let r = Explore.explore scope in
      r.Explore.cex = None && not r.Explore.stats.Explore.truncated)

(* ------------------------------------------------------------------ *)
(* Transport: per-link FIFO under any latency model                     *)
(* ------------------------------------------------------------------ *)

let prop_network_fifo =
  QCheck.Test.make ~name:"network delivers per-link FIFO under random latency" ~count:50
    QCheck.(pair (int_range 1 1000) (int_range 2 40))
    (fun (seed, count) ->
      let e = Dsm_sim.Engine.create () in
      let net =
        Dsm_net.Network.create e ~nodes:2
          ~latency:(Dsm_net.Latency.Exponential { base = 0.1; mean = 10.0 })
          ~seed:(Int64.of_int seed) ()
      in
      let got = ref [] in
      Dsm_net.Network.set_handler net ~node:1 (fun ~src:_ m -> got := m :: !got);
      for i = 1 to count do
        Dsm_net.Network.send net ~src:0 ~dst:1 i
      done;
      Dsm_sim.Engine.run e;
      List.rev !got = List.init count (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* History notation: parse . to_string = identity                       *)
(* ------------------------------------------------------------------ *)

let gen_history_text =
  let open QCheck.Gen in
  let* procs = int_range 1 3 in
  let* ops_per = int_range 0 5 in
  let counter = ref 0 in
  let* rows =
    list_repeat procs
      (list_repeat ops_per
         (let* loc = int_range 0 2 in
          let* w = bool in
          if w then begin
            incr counter;
            return (Printf.sprintf "w(v.%d)%d" loc !counter)
          end
          else return (Printf.sprintf "r(v.%d)0" loc)))
  in
  return
    (String.concat "\n" (List.mapi (fun i ops -> Printf.sprintf "P%d: %s" i (String.concat " " ops)) rows))

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse . to_string = identity (modulo whitespace)" ~count:100
    (QCheck.make gen_history_text ~print:Fun.id)
    (fun text ->
      match History.parse text with
      | Error _ -> QCheck.assume_fail ()
      | Ok h -> (
          match History.parse (History.to_string h) with
          | Error _ -> false
          | Ok h2 -> History.to_string h = History.to_string h2))

(* ------------------------------------------------------------------ *)
(* Live-set laws on protocol histories                                  *)
(* ------------------------------------------------------------------ *)

let prop_alpha_nonempty_and_contains_rf =
  QCheck.Test.make ~name:"on protocol histories alpha is nonempty and contains the rf"
    ~count:20
    QCheck.(int_range 1 5000)
    (fun seed ->
      let outcome, _ =
        Dsm_apps.Workload.run_causal ~seed:(Int64.of_int seed)
          { Dsm_apps.Workload.default_spec with Dsm_apps.Workload.ops_per_process = 10 }
      in
      let g = Causality.build_exn outcome.Dsm_apps.Workload.history in
      let ok = ref true in
      for io = 0 to Causality.op_count g - 1 do
        let op = Causality.op g io in
        if Op.is_read op then begin
          let live = Check.alpha g io in
          if live = [] then ok := false;
          if
            not
              (List.exists
                 (fun (l : Check.live) -> Dsm_memory.Wid.equal l.Check.wid op.Op.wid)
                 live)
          then ok := false
        end
      done;
      !ok)

let prop_classification_monotone =
  QCheck.Test.make ~name:"hierarchy: sc => causal => pram => slow on random workloads"
    ~count:15
    QCheck.(int_range 1 5000)
    (fun seed ->
      let outcome, _ =
        Dsm_apps.Workload.run_causal ~seed:(Int64.of_int seed)
          {
            Dsm_apps.Workload.default_spec with
            Dsm_apps.Workload.processes = 3;
            ops_per_process = 6;
          }
      in
      let c = Dsm_checker.Consistency.classify outcome.Dsm_apps.Workload.history in
      let imp a b = (not a) || b in
      imp c.Dsm_checker.Consistency.sc c.Dsm_checker.Consistency.causal
      && imp c.Dsm_checker.Consistency.causal c.Dsm_checker.Consistency.pram
      && imp c.Dsm_checker.Consistency.pram c.Dsm_checker.Consistency.slow)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model_always_causal;
    QCheck_alcotest.to_alcotest prop_network_fifo;
    QCheck_alcotest.to_alcotest prop_parse_print_roundtrip;
    QCheck_alcotest.to_alcotest prop_alpha_nonempty_and_contains_rf;
    QCheck_alcotest.to_alcotest prop_classification_monotone;
  ]
