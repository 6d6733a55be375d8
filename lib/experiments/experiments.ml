(* The per-figure / per-claim experiment harness (see DESIGN.md section 4).

   Every experiment prints a table comparing what the paper states with what
   this implementation measures; EXPERIMENTS.md records the outcomes. *)

module Table = Dsm_util.Table
module History = Dsm_memory.History
module Value = Dsm_memory.Value
module Loc = Dsm_memory.Loc
module Op = Dsm_memory.Op
module Causality = Dsm_checker.Causality
module Check = Dsm_checker.Causal_check
module Consistency = Dsm_checker.Consistency
module Histories = Dsm_checker.Histories
module Harness = Dsm_apps.Harness
module Workload = Dsm_apps.Workload
module Scenarios = Dsm_apps.Scenarios
module Node_stats = Dsm_causal.Node_stats

(* Optional CSV sink: when set (bench/main.exe --csv DIR) every printed
   table is also written as <dir>/<section>-<k>.csv. *)
let csv_dir = ref None

let set_csv_dir dir = csv_dir := dir

let current_section = ref "misc"

let table_counter = ref 0

let header title =
  (match String.split_on_char ' ' title with
  | section :: _ -> current_section := String.lowercase_ascii section
  | [] -> current_section := "misc");
  table_counter := 0;
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=');
  print_newline ()

let print_table ?title t =
  Table.print ?title t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr table_counter;
      let file = Printf.sprintf "%s/%s-%d.csv" dir !current_section !table_counter in
      Dsm_util.Csv.write_file file (Table.headers t :: Table.rows t)

let yes_no b = if b then "yes" else "no"

let pass b = if b then "PASS" else "FAIL"

(* ------------------------------------------------------------------ *)
(* E-FIG1: the causal-relations example                                 *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "E-FIG1  Figure 1: example of causal relations";
  print_endline "History:";
  print_endline (History.to_string Histories.fig1);
  print_newline ();
  let g = Causality.build_exn Histories.fig1 in
  (* Global indices: P1 ops at 0..3, P2 ops at 4..6. *)
  let t = Table.create ~headers:[ "claim (paper, Section 2)"; "holds" ] in
  Table.add_row t
    [ "writes of x and z are concurrent"; pass (Causality.concurrent g 0 4) ];
  Table.add_row t [ "w(x)1 ->* r1(y)2"; pass (Causality.precedes g 0 2) ];
  Table.add_row t
    [ "r2(y)2 establishes causality (w(y)2 ->* r2(y)2)"; pass (Causality.precedes g 1 5) ];
  Table.add_row t
    [ "r1(x)1 confirms program order (w(x)1 ->* r1(x)1)"; pass (Causality.precedes g 0 3) ];
  Table.add_row t
    [ "execution is correct on causal memory"; pass (Check.is_correct Histories.fig1) ];
  print_table t

(* ------------------------------------------------------------------ *)
(* E-FIG2: the live sets of the worked example                          *)
(* ------------------------------------------------------------------ *)

let alpha_string g ~pid ~index =
  let found = ref None in
  for io = 0 to Causality.op_count g - 1 do
    let op = Causality.op g io in
    if op.Op.pid = pid && op.Op.index = index then found := Some io
  done;
  Check.alpha g (Option.get !found)
  |> List.map (fun (l : Check.live) -> Value.to_string l.Check.value)
  |> List.sort compare |> String.concat ","

let fig2 () =
  header "E-FIG2  Figure 2: a correct execution, with its live sets";
  print_endline "History:";
  print_endline (History.to_string Histories.fig2);
  print_newline ();
  let g = Causality.build_exn Histories.fig2 in
  let t = Table.create ~headers:[ "read"; "computed alpha"; "paper alpha"; "match" ] in
  let row name ~pid ~index paper =
    let computed = alpha_string g ~pid ~index in
    Table.add_row t [ name; "{" ^ computed ^ "}"; "{" ^ paper ^ "}"; pass (computed = paper) ]
  in
  row "r1(z)5" ~pid:1 ~index:3 "0,5";
  row "r2(y)3" ~pid:2 ~index:1 "0,2,3";
  row "r2(x)4" ~pid:2 ~index:4 "4,7,9";
  row "r2(x)9" ~pid:2 ~index:5 "4,9";
  row "r3(z)5" ~pid:3 ~index:0 "0,5";
  print_table t;
  Printf.printf "Whole execution correct on causal memory: %s\n\n"
    (pass (Check.is_correct Histories.fig2))

(* ------------------------------------------------------------------ *)
(* E-FIG3: causal broadcasting is not causal memory                     *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "E-FIG3  Figure 3: causal broadcast memory violates causal memory";
  let t =
    Table.create
      ~headers:[ "delivery"; "causal memory"; "PRAM"; "x at P1/P2/P3"; "paper prediction" ]
  in
  List.iter
    (fun (label, mode, prediction) ->
      let r = Scenarios.fig3_broadcast ~mode () in
      let xs =
        String.concat "/"
          (Array.to_list (Array.map Value.to_string r.Scenarios.f3_final_x))
      in
      Table.add_row t
        [
          label;
          (if r.Scenarios.f3_causal_ok then "satisfied" else "VIOLATED");
          (if r.Scenarios.f3_pram_ok then "satisfied" else "VIOLATED");
          xs;
          prediction;
        ])
    [
      ("causal (ISIS cbcast)", `Causal, "violated (Section 2)");
      ("fifo only", `Fifo, "weaker still");
    ];
  print_table t;
  let r = Scenarios.fig3_broadcast () in
  (match Check.check r.Scenarios.f3_history with
  | Ok (Check.Violations (v :: _)) -> Printf.printf "violating read: %s\n\n" v.Check.reason
  | Ok _ | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* E-FIG4: protocol conformance (the owner protocol is causal memory)   *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "E-FIG4  Figure 4: the owner protocol always yields causal executions";
  let t =
    Table.create
      ~headers:
        [ "workload"; "runs"; "causally correct"; "ops/run"; "invalidations"; "msgs/run" ]
  in
  let specs =
    [
      ("default (3p x 12 ops, 50% writes)", Workload.default_spec);
      ( "write-heavy (4p, 80% writes)",
        { Workload.default_spec with Workload.processes = 4; write_ratio = 0.8 } );
      ( "read-heavy + refresh (4p, 20% writes)",
        {
          Workload.default_spec with
          Workload.processes = 4;
          write_ratio = 0.2;
          refresh_ratio = 0.5;
        } );
      ( "contended (2 locations)",
        { Workload.default_spec with Workload.locations = 2; ops_per_process = 16 } );
    ]
  in
  List.iter
    (fun (name, spec) ->
      let runs = 40 in
      let correct = ref 0 and ops = ref 0 and inval = ref 0 and msgs = ref 0 in
      for seed = 1 to runs do
        let outcome, cluster = Workload.run_causal ~seed:(Int64.of_int seed) spec in
        if Check.is_correct outcome.Workload.history then incr correct;
        ops := !ops + History.op_count outcome.Workload.history;
        msgs := !msgs + outcome.Workload.messages;
        let stats = Dsm_causal.Cluster.total_stats cluster in
        inval := !inval + stats.Node_stats.invalidations
      done;
      Table.add_row t
        [
          name;
          string_of_int runs;
          Printf.sprintf "%d/%d %s" !correct runs (pass (!correct = runs));
          string_of_int (!ops / runs);
          string_of_int !inval;
          string_of_int (!msgs / runs);
        ])
    specs;
  print_table t

(* ------------------------------------------------------------------ *)
(* E-FIG5: the protocol admits weakly consistent executions             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "E-FIG5  Figure 5: a weakly consistent execution the protocol admits";
  let r = Scenarios.fig5_owner_protocol () in
  print_endline "Execution produced by the owner protocol (P1 owns x, P2 owns y):";
  print_endline (History.to_string r.Scenarios.f5_history);
  print_newline ();
  let c = Consistency.classify r.Scenarios.f5_history in
  let t = Table.create ~headers:[ "property"; "measured"; "paper claim" ] in
  Table.add_row t [ "causal memory"; yes_no c.Consistency.causal; "yes (allowed)" ];
  Table.add_row t [ "sequentially consistent"; yes_no c.Consistency.sc; "no (weak)" ];
  Table.add_row t [ "PRAM"; yes_no c.Consistency.pram; "yes" ];
  Table.add_row t [ "coherent"; yes_no c.Consistency.coherent; "yes" ];
  print_table t

(* ------------------------------------------------------------------ *)
(* E-FIG6: the synchronous solver                                       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "E-FIG6  Figure 6: synchronous iterative linear solver";
  let t =
    Table.create
      ~headers:
        [ "n"; "memory"; "max|x - jacobi|"; "residual"; "messages"; "history causal" ]
  in
  List.iter
    (fun n ->
      let causal = Harness.solver_causal ~n ~iters:10 () in
      let atomic = Harness.solver_atomic ~n ~iters:10 () in
      let row name (r : Harness.solver_result) =
        Table.add_row t
          [
            string_of_int n;
            name;
            Printf.sprintf "%.1e" r.Harness.max_diff;
            Printf.sprintf "%.2e" r.Harness.residual;
            string_of_int r.Harness.messages_total;
            yes_no r.Harness.history_correct;
          ]
      in
      row "causal" causal;
      row "atomic" atomic)
    [ 4; 8; 16 ];
  print_table t;
  print_endline "(max|x - jacobi| = 0 means the distributed iterates are bit-identical";
  print_endline " to sequential Jacobi, the paper's Section 4.1 correctness claim.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-MSG: the headline message-count comparison                         *)
(* ------------------------------------------------------------------ *)

let msg () =
  header "E-MSG  Section 4.1: messages per processor per solver iteration";
  let t =
    Table.create
      ~headers:
        [ "n"; "causal (measured)"; "2n+6 (paper)"; "atomic (measured)"; "3n+5 (paper, lower bound)"; "savings" ]
  in
  List.iter
    (fun n ->
      let causal =
        Harness.steady_rate
          ~run:(fun ~iters -> Harness.solver_causal ~n ~iters ())
          ~iters_lo:5 ~iters_hi:12
      in
      let atomic =
        Harness.steady_rate
          ~run:(fun ~iters -> Harness.solver_atomic ~n ~iters ())
          ~iters_lo:5 ~iters_hi:12
      in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.2f" causal;
          string_of_int ((2 * n) + 6);
          Printf.sprintf "%.2f" atomic;
          string_of_int ((3 * n) + 5);
          Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (causal /. atomic)));
        ])
    [ 2; 4; 8; 16; 32 ];
  print_table t;
  print_endline "(The atomic baseline measures slightly above 3n+5 because the paper's";
  print_endline " count omits the invalidations triggered by handshake-flag writes.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-DICT: the distributed dictionary                                   *)
(* ------------------------------------------------------------------ *)

let dict () =
  header "E-DICT  Section 4.2: distributed dictionary";
  (* Convergence under a random R1/R2-respecting workload. *)
  let t =
    Table.create
      ~headers:[ "processes"; "inserted"; "deleted"; "views converge"; "messages"; "causal" ]
  in
  List.iter
    (fun processes ->
      let module Engine = Dsm_sim.Engine in
      let module Proc = Dsm_runtime.Proc in
      let module Cluster = Dsm_causal.Cluster in
      let module Dictionary = Dsm_apps.Dictionary in
      let engine = Engine.create () in
      let sched = Proc.scheduler engine in
      let cluster =
        Cluster.create ~sched ~owner:(Dictionary.owner_map ~processes)
          ~config:Dictionary.config ~latency:(Dsm_net.Latency.Constant 1.0) ()
      in
      let d = Array.init processes (fun i -> Dictionary.attach (Cluster.handle cluster i) ~cols:16) in
      let prng = Dsm_util.Prng.create 2024L in
      let per_process = 8 in
      let items =
        List.concat_map
          (fun p -> List.init per_process (fun k -> (p, Printf.sprintf "p%d-%d" p k)))
          (List.init processes Fun.id)
      in
      List.iter
        (fun (p, item) ->
          ignore
            (Proc.spawn sched ~delay:(Dsm_util.Prng.float prng 4.0) (fun () ->
                 ignore (Dictionary.insert d.(p) item))))
        items;
      Engine.run engine;
      Proc.check sched;
      let deleted = ref 0 in
      List.iteri
        (fun i (_, item) ->
          if i mod 3 = 0 then begin
            incr deleted;
            let deleter = Dsm_util.Prng.int prng processes in
            ignore
              (Proc.spawn sched ~delay:(Dsm_util.Prng.float prng 4.0) (fun () ->
                   Dictionary.refresh d.(deleter);
                   ignore (Dictionary.delete d.(deleter) item)))
          end)
        items;
      Engine.run engine;
      Proc.check sched;
      let views =
        Array.map
          (fun di ->
            let out = ref [] in
            ignore
              (Proc.spawn sched (fun () ->
                   Dictionary.refresh di;
                   out := List.sort compare (Dictionary.items di)));
            Engine.run engine;
            Proc.check sched;
            !out)
          d
      in
      let converged = Array.for_all (fun v -> v = views.(0)) views in
      Table.add_row t
        [
          string_of_int processes;
          string_of_int (List.length items);
          string_of_int !deleted;
          pass converged;
          string_of_int (Dsm_net.Network.lifetime_total (Cluster.net cluster));
          yes_no (Harness.check_history (Cluster.history cluster));
        ])
    [ 2; 4; 8 ];
  print_table t;
  (* The race the paper's correctness argument hinges on. *)
  let t2 =
    Table.create ~headers:[ "resolution policy"; "stale delete"; "owner's view after"; "verdict" ]
  in
  let row name policy want_reject =
    let r = Scenarios.dictionary_race ~policy in
    let rejected = r.Scenarios.dr_delete_outcome = `Rejected in
    Table.add_row t2
      [
        name;
        (match r.Scenarios.dr_delete_outcome with
        | `Rejected -> "rejected"
        | `Deleted -> "applied"
        | `Not_found -> "not-found");
        "[" ^ String.concat "; " r.Scenarios.dr_items_at_owner ^ "]";
        (if rejected = want_reject then "as the paper argues" else "UNEXPECTED");
      ]
  in
  row "owner-favored (paper)" Dsm_causal.Policy.Owner_favored true;
  row "last-writer-wins (ablation)" Dsm_causal.Policy.Last_writer_wins false;
  print_table ~title:"Concurrent delete vs owner re-insert (Section 4.2 race)" t2

(* ------------------------------------------------------------------ *)
(* E-WEAK: how often do causal executions fall outside SC?              *)
(* ------------------------------------------------------------------ *)

let weak () =
  header "E-WEAK  Section 3.1: the protocol admits weakly consistent executions";
  let t =
    Table.create ~headers:[ "workload"; "runs"; "causal"; "sequentially consistent"; "weak (causal, not SC)" ]
  in
  List.iter
    (fun (name, spec) ->
      let runs = 30 in
      let causal = ref 0 and sc = ref 0 in
      for seed = 1 to runs do
        let outcome, _ = Workload.run_causal ~seed:(Int64.of_int (seed * 7)) spec in
        if Check.is_correct outcome.Workload.history then incr causal;
        if Consistency.is_sc outcome.Workload.history then incr sc
      done;
      Table.add_row t
        [
          name;
          string_of_int runs;
          Printf.sprintf "%d/%d" !causal runs;
          Printf.sprintf "%d/%d" !sc runs;
          Printf.sprintf "%d/%d" (!causal - !sc) runs;
        ])
    [
      ( "contended small (3p, 2 locs, 8 ops)",
        {
          Workload.default_spec with
          Workload.locations = 2;
          ops_per_process = 8;
          think_time = 0.5;
        } );
      ( "default (3p, 4 locs, 12 ops)",
        { Workload.default_spec with Workload.ops_per_process = 10 } );
    ];
  print_table t;
  print_endline "(Figure 5's execution is deterministic evidence: see E-FIG5.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ABL-INV: how coarse is the Figure 4 invalidation rule?             *)
(* ------------------------------------------------------------------ *)

let abl_inv () =
  header "E-ABL-INV  Over-invalidation of the coarse rule (Section 3.2)";
  let t =
    Table.create
      ~headers:
        [ "workload"; "invalidations"; "redundant refetches"; "redundancy"; "messages" ]
  in
  List.iter
    (fun (name, spec) ->
      let runs = 20 in
      let inval = ref 0 and redundant = ref 0 and msgs = ref 0 in
      for seed = 1 to runs do
        let outcome, cluster = Workload.run_causal ~seed:(Int64.of_int (seed * 13)) spec in
        let stats = Dsm_causal.Cluster.total_stats cluster in
        inval := !inval + stats.Node_stats.invalidations;
        redundant := !redundant + stats.Node_stats.redundant_fetches;
        msgs := !msgs + outcome.Workload.messages
      done;
      Table.add_row t
        [
          name;
          string_of_int !inval;
          string_of_int !redundant;
          (if !inval = 0 then "-"
           else Printf.sprintf "%.0f%%" (100.0 *. float_of_int !redundant /. float_of_int !inval));
          string_of_int !msgs;
        ])
    [
      ( "read-mostly (10% writes)",
        { Workload.default_spec with Workload.write_ratio = 0.1; locations = 6; ops_per_process = 20 } );
      ("balanced (50% writes)", { Workload.default_spec with Workload.ops_per_process = 20 });
      ( "write-heavy (80% writes)",
        { Workload.default_spec with Workload.write_ratio = 0.8; ops_per_process = 20 } );
      ( "many locations (16)",
        { Workload.default_spec with Workload.locations = 16; ops_per_process = 20 } );
    ];
  print_table t;
  print_endline "(A redundant refetch re-reads the very write the rule invalidated:";
  print_endline " pure overhead the precise-bookkeeping variant of [3] would avoid.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ABL-PRECISE: coarse rule vs [3]-style precise bookkeeping          *)
(* ------------------------------------------------------------------ *)

let abl_precise () =
  header "E-ABL-PRECISE  Coarse (Figure 4) vs precise ([3]) invalidation";
  let t =
    Table.create
      ~headers:
        [ "variant"; "invalidations"; "redundant refetches"; "messages"; "bytes on wire" ]
  in
  let totals config =
    let inval = ref 0 and redundant = ref 0 and msgs = ref 0 and bytes = ref 0 in
    for seed = 1 to 25 do
      let outcome, cluster =
        Workload.run_causal ~seed:(Int64.of_int (seed * 11)) ~config
          { Workload.default_spec with Workload.ops_per_process = 18; write_ratio = 0.3 }
      in
      let stats = Dsm_causal.Cluster.total_stats cluster in
      inval := !inval + stats.Node_stats.invalidations;
      redundant := !redundant + stats.Node_stats.redundant_fetches;
      msgs := !msgs + outcome.Workload.messages;
      let counters = Dsm_net.Network.counters (Dsm_causal.Cluster.net cluster) in
      bytes := !bytes + counters.Dsm_net.Network.bytes
    done;
    (!inval, !redundant, !msgs, !bytes)
  in
  let row name config =
    let inval, redundant, msgs, bytes = totals config in
    Table.add_row t
      [
        name;
        string_of_int inval;
        string_of_int redundant;
        string_of_int msgs;
        string_of_int bytes;
      ]
  in
  row "coarse (Figure 4)" Dsm_causal.Config.default;
  row "precise (digest piggyback)"
    (Dsm_causal.Config.with_invalidation Dsm_causal.Config.Precise Dsm_causal.Config.default);
  print_table t;
  print_endline "(Precise bookkeeping removes nearly all spurious invalidations and";
  print_endline " their refetch messages, at the price of shipping newest-write digests";
  print_endline " on every reply — the exact overhead Section 3.1 declines to pay.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ABL-PAGE: page granularity                                         *)
(* ------------------------------------------------------------------ *)

let abl_page () =
  header "E-ABL-PAGE  Section 3.2: scaling the unit of sharing to a page";
  let module Engine = Dsm_sim.Engine in
  let module Proc = Dsm_runtime.Proc in
  let module Cluster = Dsm_causal.Cluster in
  let module Config = Dsm_causal.Config in
  let array_len = 64 in
  let t =
    Table.create ~headers:[ "granularity"; "messages"; "read misses"; "invalidations" ]
  in
  let scan_run granularity =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let config = Config.with_granularity granularity Config.default in
    let cluster =
      Cluster.create ~sched ~owner:(Dsm_memory.Owner.all_to ~nodes:2 1) ~config
        ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    (* The owner populates the array, then the reader streams through it
       twice (the second pass hits the cache). *)
    ignore
      (Proc.spawn sched ~name:"writer" (fun () ->
           for i = 0 to array_len - 1 do
             Cluster.write (Cluster.handle cluster 1) (Loc.indexed "a" i) (Value.Int i)
           done));
    Engine.run engine;
    Proc.check sched;
    ignore
      (Proc.spawn sched ~name:"reader" (fun () ->
           for _pass = 1 to 2 do
             for i = 0 to array_len - 1 do
               ignore (Cluster.read (Cluster.handle cluster 0) (Loc.indexed "a" i))
             done
           done));
    Engine.run engine;
    Proc.check sched;
    let stats = Dsm_causal.Cluster.total_stats cluster in
    ( Dsm_net.Network.lifetime_total (Cluster.net cluster),
      stats.Node_stats.read_misses,
      stats.Node_stats.invalidations )
  in
  List.iter
    (fun (name, granularity) ->
      let msgs, misses, inval = scan_run granularity in
      Table.add_row t
        [ name; string_of_int msgs; string_of_int misses; string_of_int inval ])
    [
      ("word (basic algorithm)", Config.Word);
      ("page of 2", Config.Page 2);
      ("page of 4", Config.Page 4);
      ("page of 8", Config.Page 8);
      ("page of 16", Config.Page 16);
    ];
  print_table t;
  print_endline "(Streaming read of a 64-element remote array, two passes: pages cut";
  print_endline " the miss round-trips by the page size, as Section 3.2 anticipates.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ABL-DISCARD: discard period vs staleness and traffic               *)
(* ------------------------------------------------------------------ *)

let abl_discard () =
  header "E-ABL-DISCARD  Section 3.1: discard policy (liveness vs traffic)";
  let t =
    Table.create
      ~headers:[ "refresh every k sweeps"; "final error"; "messages"; "history causal" ]
  in
  List.iter
    (fun refresh_every ->
      let r = Harness.solver_async ~n:6 ~sweeps:96 ~refresh_every () in
      Table.add_row t
        [
          string_of_int refresh_every;
          Printf.sprintf "%.1e" r.Harness.a_error;
          string_of_int r.Harness.a_messages_total;
          yes_no r.Harness.a_history_correct;
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  print_table t;
  print_endline "(Rarer discards mean fewer refetches but staler inputs: the async";
  print_endline " solver needs more sweeps' worth of freshness to converge. Without";
  print_endline " discard at all it would never converge — Section 3.1's liveness note.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-BLOCK: blocks of elements per worker, and who caches well          *)
(* ------------------------------------------------------------------ *)

(* §4.1: "The code is easily modified so that each process computes a set
   of elements."  With blocks, a worker re-reads each foreign element once
   per owned element — IF the cache holds.  Under the coarse rule it does
   not: consecutive fetches of one writer's elements carry strictly ordered
   stamps, so each install evicts the previous element of that writer
   (thrashing).  Precise invalidation restores true caching; block-sized
   pages fetch the whole block in one round trip and beat the per-element
   analysis outright. *)
let block () =
  header "E-BLOCK  Block-distributed solver: coarse vs precise vs pages";
  let n = 16 in
  let rate ?config ~workers () =
    let hi = Harness.solver_causal_blocks ?config ~n ~workers ~iters:10 () in
    let lo = Harness.solver_causal_blocks ?config ~n ~workers ~iters:5 () in
    float_of_int (hi.Harness.messages_total - lo.Harness.messages_total)
    /. 5.0 /. float_of_int workers
  in
  let precise = Dsm_causal.Config.(with_invalidation Precise default) in
  let t =
    Table.create
      ~headers:
        [ "workers"; "coarse (Figure 4)"; "precise"; "page = block"; "analytic 2(n-n/w)+8" ]
  in
  List.iter
    (fun workers ->
      let page =
        Dsm_causal.Config.(with_granularity (Page (n / workers)) default)
      in
      Table.add_row t
        [
          string_of_int workers;
          Printf.sprintf "%.1f" (rate ~workers ());
          Printf.sprintf "%.1f" (rate ~config:precise ~workers ());
          Printf.sprintf "%.1f" (rate ~config:page ~workers ());
          string_of_int ((2 * (n - (n / workers))) + 8);
        ])
    [ 2; 4; 8 ];
  print_table t;
  print_endline "(n = 16 unknowns; messages per worker per iteration, steady state.";
  print_endline " All three variants compute bit-identical Jacobi iterates.  The coarse";
  print_endline " rule thrashes on same-writer blocks — the sharpest quantitative case";
  print_endline " for the paper's own deferred enhancements: precise invalidation";
  print_endline " recovers the per-element analysis, block-sized pages halve it again.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-BARRIER: coordinator handshake vs event-count barrier              *)
(* ------------------------------------------------------------------ *)

let barrier () =
  header "E-BARRIER  Synchronisation style: coordinator handshake vs event counts";
  let t =
    Table.create
      ~headers:
        [ "n"; "coordinator msgs"; "barrier msgs"; "coordinator time"; "barrier time"; "identical iterates" ]
  in
  List.iter
    (fun n ->
      let coord = Harness.solver_causal ~n ~iters:10 () in
      let bar = Harness.solver_causal_barrier ~n ~iters:10 () in
      Table.add_row t
        [
          string_of_int n;
          string_of_int coord.Harness.messages_total;
          string_of_int bar.Harness.messages_total;
          Printf.sprintf "%.0f" coord.Harness.sim_time;
          Printf.sprintf "%.0f" bar.Harness.sim_time;
          pass (Dsm_apps.Linalg.max_diff coord.Harness.solution bar.Harness.solution = 0.0);
        ])
    [ 2; 4; 8; 16 ];
  print_table t;
  print_endline "(The paper prefers the coordinator for its message count — event-count";
  print_endline " barriers poll n-1 peers per phase — but the barrier variant removes";
  print_endline " the central process and finishes phases in fewer simulated time units";
  print_endline " at scale because polls overlap instead of serialising at one node.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ASYNC: the asynchronous solver                                     *)
(* ------------------------------------------------------------------ *)

let async () =
  header "E-ASYNC  Section 4.1: eliminating the synchronization entirely";
  let sync = Harness.solver_causal ~n:6 ~iters:40 () in
  let async2 = Harness.solver_async ~n:6 ~sweeps:80 ~refresh_every:2 () in
  let async8 = Harness.solver_async ~n:6 ~sweeps:120 ~refresh_every:8 () in
  let exact_err (r : Harness.solver_result) =
    (* distance of the sync solution to the true solution *)
    r.Harness.residual
  in
  let t = Table.create ~headers:[ "solver"; "accuracy"; "messages"; "notes" ] in
  Table.add_row t
    [
      "synchronous (40 phases)";
      Printf.sprintf "residual %.1e" (exact_err sync);
      string_of_int sync.Harness.messages_total;
      "two barriers per phase";
    ];
  Table.add_row t
    [
      "asynchronous (80 sweeps, refresh 2)";
      Printf.sprintf "error %.1e" async2.Harness.a_error;
      string_of_int async2.Harness.a_messages_total;
      "no barriers";
    ];
  Table.add_row t
    [
      "asynchronous (120 sweeps, refresh 8)";
      Printf.sprintf "error %.1e" async8.Harness.a_error;
      string_of_int async8.Harness.a_messages_total;
      "sparse refresh";
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* E-LAT: operation latency — one owner round trip, ever                *)
(* ------------------------------------------------------------------ *)

(* The introduction's argument: strongly consistent DSM "performs poorly in
   high latency distributed systems" because writes synchronise globally,
   while on causal memory "read and write operations never require
   communication with more than a single processor (the owner)".  Measure
   per-operation latency in simulated time on a contended location. *)
let lat () =
  header "E-LAT  Per-operation latency on a contended location";
  let module Engine = Dsm_sim.Engine in
  let module Proc = Dsm_runtime.Proc in
  let processes = 6 in
  let hot = Loc.indexed "hot" 0 in
  let rounds = 30 in
  let run_clients ~spawn_ops =
    (* Each client alternates: write the hot location (owned by node 0),
       then read it; latencies collected per op kind. *)
    let reads = Dsm_util.Stats.create () and writes = Dsm_util.Stats.create () in
    spawn_ops ~reads ~writes;
    (reads, writes)
  in
  let client engine prng ~read ~write ~reads ~writes () =
    for k = 1 to rounds do
      Proc.sleep (Dsm_util.Prng.exponential prng ~mean:3.0);
      let t0 = Engine.now engine in
      write hot (Value.Int ((k * 100) + 1));
      Dsm_util.Stats.add writes (Engine.now engine -. t0);
      let t1 = Engine.now engine in
      ignore (read hot);
      Dsm_util.Stats.add reads (Engine.now engine -. t1)
    done
  in
  let causal_case () =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let cluster =
      Dsm_causal.Cluster.create ~sched ~owner:(Dsm_memory.Owner.by_index ~nodes:processes)
        ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    run_clients ~spawn_ops:(fun ~reads ~writes ->
        let master = Dsm_util.Prng.create 7L in
        for pid = 1 to processes - 1 do
          let prng = Dsm_util.Prng.split master in
          let h = Dsm_causal.Cluster.handle cluster pid in
          ignore
            (Proc.spawn sched
               (client engine prng
                  ~read:(Dsm_causal.Cluster.read h)
                  ~write:(Dsm_causal.Cluster.write h)
                  ~reads ~writes))
        done;
        Engine.run engine;
        Proc.check sched)
  in
  let atomic_case mode =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let cluster =
      Dsm_atomic.Cluster.create ~sched ~owner:(Dsm_memory.Owner.by_index ~nodes:processes)
        ~mode ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    run_clients ~spawn_ops:(fun ~reads ~writes ->
        let master = Dsm_util.Prng.create 7L in
        for pid = 1 to processes - 1 do
          let prng = Dsm_util.Prng.split master in
          let h = Dsm_atomic.Cluster.handle cluster pid in
          ignore
            (Proc.spawn sched
               (client engine prng
                  ~read:(Dsm_atomic.Cluster.read h)
                  ~write:(Dsm_atomic.Cluster.write h)
                  ~reads ~writes))
        done;
        Engine.run engine;
        Proc.check sched)
  in
  let t =
    Table.create
      ~headers:
        [ "memory"; "write mean"; "write max"; "read mean"; "read max"; "unit" ]
  in
  let row name (reads, writes) =
    Table.add_row t
      [
        name;
        Printf.sprintf "%.2f" (Dsm_util.Stats.mean writes);
        Printf.sprintf "%.2f" (Dsm_util.Stats.max writes);
        Printf.sprintf "%.2f" (Dsm_util.Stats.mean reads);
        Printf.sprintf "%.2f" (Dsm_util.Stats.max reads);
        "link delays (1.0 each way)";
      ]
  in
  row "causal" (causal_case ());
  row "atomic (acknowledged)" (atomic_case `Acknowledged);
  row "atomic (counted)" (atomic_case `Counted);
  print_table t;
  print_endline "(A causal write is one owner round trip (~2.0) regardless of how many";
  print_endline " nodes cache the location; an acknowledged atomic write also waits for";
  print_endline " the owner's invalidation round to every cacher, so contention stretches";
  print_endline " its tail — the introduction's scaling argument.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-LITMUS: causal memory located in the hierarchy                     *)
(* ------------------------------------------------------------------ *)

let litmus () =
  header "E-LITMUS  Locating causal memory among its neighbours";
  let t =
    Table.create
      ~headers:[ "litmus"; "causal"; "SC"; "PRAM"; "slow"; "coherent"; "as expected" ]
  in
  List.iter
    (fun (c : Dsm_checker.Litmus.case) ->
      let results = Dsm_checker.Litmus.check c in
      let cell name =
        let _, _, m = List.find (fun (n, _, _) -> n = name) results in
        if m then "ok" else "VIOL"
      in
      Table.add_row t
        [
          c.Dsm_checker.Litmus.name;
          cell "causal";
          cell "sc";
          cell "pram";
          cell "slow";
          cell "coherent";
          pass (Dsm_checker.Litmus.passes c);
        ])
    Dsm_checker.Litmus.all;
  print_table t;
  print_endline "(SB separates SC from causal; WRC separates causal from PRAM;";
  print_endline " MP shows causal memory still protects flag-then-data publication.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-ATOMIC: who is actually atomic?                                    *)
(* ------------------------------------------------------------------ *)

(* Linearizability with real-time intervals (the register property of
   [17]) checked on timed executions of each protocol. *)
let atomicity () =
  header "E-ATOMIC  Real-time atomicity (linearizability) across protocols";
  let module Engine = Dsm_sim.Engine in
  let module Proc = Dsm_runtime.Proc in
  let module Lin = Dsm_checker.Linearizability in
  let to_lin timed = List.map (fun (op, s, e) -> Lin.make op ~start_time:s ~end_time:e) timed in
  let t = Table.create ~headers:[ "protocol / scenario"; "causal"; "linearizable"; "note" ] in
  (* 1. Acknowledged atomic, random workloads. *)
  let acked_ok = ref true in
  for seed = 1 to 5 do
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let c =
      Dsm_atomic.Cluster.create ~sched ~owner:(Dsm_memory.Owner.by_index ~nodes:3)
        ~mode:`Acknowledged
        ~latency:(Dsm_net.Latency.Uniform (0.3, 3.0))
        ~seed:(Int64.of_int seed) ()
    in
    let prng = Dsm_util.Prng.create (Int64.of_int (seed * 31)) in
    for pid = 0 to 2 do
      let prng = Dsm_util.Prng.split prng in
      ignore
        (Proc.spawn sched (fun () ->
             for k = 1 to 6 do
               Proc.sleep (Dsm_util.Prng.float prng 4.0);
               let loc = Workload.loc (Dsm_util.Prng.int prng 2) in
               if Dsm_util.Prng.bool prng then
                 Dsm_atomic.Cluster.write (Dsm_atomic.Cluster.handle c pid) loc
                   (Value.Int ((pid * 100) + k))
               else ignore (Dsm_atomic.Cluster.read (Dsm_atomic.Cluster.handle c pid) loc)
             done))
    done;
    Engine.run engine;
    Proc.check sched;
    if not (Lin.is_linearizable (to_lin (Dsm_atomic.Cluster.timed_history c))) then
      acked_ok := false
  done;
  Table.add_row t
    [ "atomic, acknowledged (5 random runs)"; "yes"; (if !acked_ok then "yes" else "NO");
      "invalidation acks make writes atomic" ];
  (* 2. Counted atomic: the stale window after a fire-and-forget write. *)
  let counted_lin =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let c =
      Dsm_atomic.Cluster.create ~sched ~owner:(Dsm_memory.Owner.by_index ~nodes:2)
        ~mode:`Counted ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    let hot = Loc.indexed "v" 0 in
    ignore
      (Proc.spawn sched (fun () ->
           ignore (Dsm_atomic.Cluster.read (Dsm_atomic.Cluster.handle c 1) hot);
           (* First read completes at ~t=2; wake at ~t=10.5, after the
              owner's write (t=10) but before its INVAL lands (t=11). *)
           Proc.sleep 8.5;
           ignore (Dsm_atomic.Cluster.read (Dsm_atomic.Cluster.handle c 1) hot)));
    ignore
      (Proc.spawn sched ~delay:10.0 (fun () ->
           Dsm_atomic.Cluster.write (Dsm_atomic.Cluster.handle c 0) hot (Value.Int 1)));
    Engine.run engine;
    Proc.check sched;
    Lin.is_linearizable (to_lin (Dsm_atomic.Cluster.timed_history c))
  in
  Table.add_row t
    [ "atomic, counted (stale-window race)"; "yes"; (if counted_lin then "yes" else "NO");
      "fire-and-forget invalidation leaks a stale read" ];
  (* 3. Causal protocol, Figure 5. *)
  let f5 =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let x = Loc.named "x" and y = Loc.named "y" in
    let owner = Dsm_memory.Owner.make ~nodes:2 (fun l -> if Loc.equal l x then 0 else 1) in
    let c = Dsm_causal.Cluster.create ~sched ~owner ~latency:(Dsm_net.Latency.Constant 1.0) () in
    ignore
      (Proc.spawn sched (fun () ->
           ignore (Dsm_causal.Cluster.read (Dsm_causal.Cluster.handle c 0) y);
           Dsm_causal.Cluster.write (Dsm_causal.Cluster.handle c 0) x (Value.Int 1);
           ignore (Dsm_causal.Cluster.read (Dsm_causal.Cluster.handle c 0) y)));
    ignore
      (Proc.spawn sched (fun () ->
           ignore (Dsm_causal.Cluster.read (Dsm_causal.Cluster.handle c 1) x);
           Dsm_causal.Cluster.write (Dsm_causal.Cluster.handle c 1) y (Value.Int 1);
           ignore (Dsm_causal.Cluster.read (Dsm_causal.Cluster.handle c 1) x)));
    Engine.run engine;
    Proc.check sched;
    Lin.is_linearizable (to_lin (Dsm_causal.Cluster.timed_history c))
  in
  Table.add_row t
    [ "causal protocol (Figure 5 schedule)"; "yes"; (if f5 then "yes" else "NO");
      "weakly consistent by design" ];
  print_table t;
  print_endline "(The acknowledged baseline really is atomic; the counted variant the";
  print_endline " paper's message counting assumes is not (its stale window is the two";
  print_endline " messages the paper saves); causal memory gives atomicity up on purpose.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-SCALE: the causal advantage grows with link latency                *)
(* ------------------------------------------------------------------ *)

(* The introduction's motivation: strong-consistency DSM "performs poorly
   in high latency distributed systems".  Sweep the link latency and watch
   solver completion time — the result is more nuanced than the slogan, and
   worth reporting as measured. *)
let scale () =
  header "E-SCALE  Solver completion time vs link latency";
  let t =
    Table.create
      ~headers:
        [ "link latency"; "causal time"; "atomic (acked) time"; "atomic/causal" ]
  in
  List.iter
    (fun latency ->
      let lat = Dsm_net.Latency.Constant latency in
      (* Scale the poll interval with the latency so polling noise stays
         proportionate. *)
      let poll_interval = Float.max 0.5 (2.0 *. latency) in
      let causal = Harness.solver_causal ~latency:lat ~poll_interval ~n:6 ~iters:8 () in
      let atomic =
        Harness.solver_atomic ~latency:lat ~poll_interval ~mode:`Acknowledged ~n:6 ~iters:8 ()
      in
      Table.add_row t
        [
          Printf.sprintf "%.1f" latency;
          Printf.sprintf "%.0f" causal.Harness.sim_time;
          Printf.sprintf "%.0f" atomic.Harness.sim_time;
          Printf.sprintf "%.2fx" (atomic.Harness.sim_time /. causal.Harness.sim_time);
        ])
    [ 0.5; 1.0; 2.0; 5.0; 10.0 ];
  print_table t;
  print_endline "(Honest result: completion time scales linearly with latency in BOTH";
  print_endline " systems, atomic paying a constant ~3% more — the solver's barriers";
  print_endline " dominate the critical path and invalidation rounds overlap with other";
  print_endline " workers' phases.  For THIS workload the cost of strong consistency is";
  print_endline " bandwidth (E-MSG: ~40% more messages), while the latency argument of";
  print_endline " the introduction shows up in per-operation latency on contended data";
  print_endline " (E-LAT: acknowledged atomic writes are 3.3x slower) rather than in";
  print_endline " end-to-end time of a barrier-structured program.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-BYTES: the cost the paper does not count                           *)
(* ------------------------------------------------------------------ *)

(* The paper counts MESSAGES; causal memory's messages carry O(n) vector
   clocks, so the byte picture is different — fewer, fatter messages vs
   more, thinner ones.  Entry wire size is modelled as (dim + 2) units. *)
let bytes_exp () =
  header "E-BYTES  Bytes per processor per iteration (the cost the paper omits)";
  let t =
    Table.create
      ~headers:
        [ "n"; "causal msgs"; "atomic msgs"; "causal bytes"; "atomic bytes"; "causal/atomic bytes" ]
  in
  List.iter
    (fun n ->
      let causal = Harness.solver_causal ~n ~iters:10 () in
      let atomic = Harness.solver_atomic ~n ~iters:10 () in
      Table.add_row t
        [
          string_of_int n;
          string_of_int causal.Harness.messages_total;
          string_of_int atomic.Harness.messages_total;
          string_of_int causal.Harness.bytes_total;
          string_of_int atomic.Harness.bytes_total;
          Printf.sprintf "%.2fx"
            (float_of_int causal.Harness.bytes_total /. float_of_int atomic.Harness.bytes_total);
        ])
    [ 2; 4; 8; 16; 32 ];
  print_table t;
  print_endline "(Causal memory wins the message count (Section 4.1) but every reply";
  print_endline " and certification carries an n-entry writestamp, so its byte volume";
  print_endline " grows O(n) per message.  At larger n the byte ratio climbs — the";
  print_endline " modern critique that motivated later bounded-metadata causal stores.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-SESSION: session guarantees vs strict causal memory                *)
(* ------------------------------------------------------------------ *)

let session () =
  header "E-SESSION  Session guarantees vs the paper's strict causal memory";
  let t =
    Table.create
      ~headers:[ "execution"; "RYW"; "MR"; "MW"; "WFR"; "causal (strict)" ]
  in
  let mark b = if b then "ok" else "VIOL" in
  let row name history =
    let r = Dsm_checker.Session.check_exn history in
    Table.add_row t
      [
        name;
        mark r.Dsm_checker.Session.ryw;
        mark r.Dsm_checker.Session.mr;
        mark r.Dsm_checker.Session.mw;
        mark r.Dsm_checker.Session.wfr;
        mark (Check.is_correct history);
      ]
  in
  List.iter (fun (name, h, _) -> row name h) Histories.all;
  List.iter
    (fun (c : Dsm_checker.Litmus.case) -> row c.Dsm_checker.Litmus.name c.Dsm_checker.Litmus.history)
    Dsm_checker.Litmus.all;
  print_table t;
  print_endline "(Figure 3 is the separation witness: it satisfies every classic";
  print_endline " session guarantee yet violates the paper's causal memory — the";
  print_endline " strict live-set definition is genuinely stronger than";
  print_endline " PRAM + sessions, which is why the paper needs Definition 1.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-DYN: static vs dynamic (Li-Hudak) ownership                        *)
(* ------------------------------------------------------------------ *)

let dyn () =
  header "E-DYN  Atomic DSM: static owner vs Li-Hudak dynamic ownership";
  let module Engine = Dsm_sim.Engine in
  let module Proc = Dsm_runtime.Proc in
  let hot = Loc.indexed "hot" 0 in
  (* Writer-migration workload: nodes take turns writing a burst to one hot
     location, with a few remote readers in between. *)
  let run_workload ~write ~read ~spawn ~finish ~nodes ~burst =
    for turn = 0 to (nodes * 2) - 1 do
      let writer = turn mod nodes in
      spawn (fun () ->
          Proc.sleep (float_of_int (turn * 20));
          for k = 1 to burst do
            write writer hot (Value.Int ((turn * 100) + k))
          done;
          ignore (read ((writer + 1) mod nodes) hot))
    done;
    finish ()
  in
  let nodes = 4 and burst = 8 in
  let static_msgs =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let c =
      Dsm_atomic.Cluster.create ~sched ~owner:(Dsm_memory.Owner.all_to ~nodes 0)
        ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    run_workload ~nodes ~burst
      ~write:(fun pid loc v -> Dsm_atomic.Cluster.write (Dsm_atomic.Cluster.handle c pid) loc v)
      ~read:(fun pid loc -> Dsm_atomic.Cluster.read (Dsm_atomic.Cluster.handle c pid) loc)
      ~spawn:(fun body -> ignore (Proc.spawn sched body))
      ~finish:(fun () ->
        Engine.run engine;
        Proc.check sched);
    Dsm_net.Network.lifetime_total (Dsm_atomic.Cluster.net c)
  in
  let dynamic_msgs, forwards =
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let c =
      Dsm_atomic.Dynamic.create ~sched ~initial_owner:(Dsm_memory.Owner.all_to ~nodes 0)
        ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    run_workload ~nodes ~burst
      ~write:(fun pid loc v -> Dsm_atomic.Dynamic.write (Dsm_atomic.Dynamic.handle c pid) loc v)
      ~read:(fun pid loc -> Dsm_atomic.Dynamic.read (Dsm_atomic.Dynamic.handle c pid) loc)
      ~spawn:(fun body -> ignore (Proc.spawn sched body))
      ~finish:(fun () ->
        Engine.run engine;
        Proc.check sched);
    (Dsm_net.Network.lifetime_total (Dsm_atomic.Dynamic.net c), Dsm_atomic.Dynamic.forwards c)
  in
  let t = Table.create ~headers:[ "protocol"; "messages"; "chain forwards" ] in
  Table.add_row t [ "static owner (paper's comparator)"; string_of_int static_msgs; "-" ];
  Table.add_row t
    [ "dynamic ownership (Li-Hudak)"; string_of_int dynamic_msgs; string_of_int forwards ];
  print_table t;
  Printf.printf
    "Writer-migration workload (%d nodes x %d-write bursts): dynamic ownership\n\
     saves %.0f%% of the messages — after the first write of a burst the\n\
     writer owns the location and the rest are free.  The paper's Section 4.1\n\
     count assumes the static comparator, which matches its solver workload\n\
     (each x_i has a single writer), so the comparison there is fair.\n\n"
    nodes burst
    (100.0 *. (1.0 -. (float_of_int dynamic_msgs /. float_of_int static_msgs)))

(* ------------------------------------------------------------------ *)
(* E-BOARD: orphan replies across the memory models                     *)
(* ------------------------------------------------------------------ *)

let board () =
  header "E-BOARD  Message board: no orphan replies on causal memory";
  let t =
    Table.create
      ~headers:
        [ "memory"; "early posts"; "early orphans"; "final posts"; "final orphans" ]
  in
  let row name (r : Scenarios.board_result) =
    Table.add_row t
      [
        name;
        string_of_int r.Scenarios.br_early_posts;
        string_of_int r.Scenarios.br_early_orphans;
        string_of_int r.Scenarios.br_final_posts;
        string_of_int r.Scenarios.br_final_orphans;
      ]
  in
  row "causal DSM (owner protocol)" (Scenarios.board_on_causal_dsm ());
  row "broadcast replicas, causal delivery" (Scenarios.board_on_broadcast ~mode:`Causal);
  row "broadcast replicas, FIFO delivery" (Scenarios.board_on_broadcast ~mode:`Fifo);
  print_table t;
  print_endline "(A reply races ahead of its parent toward a third reader.  Causal";
  print_endline " memory never shows the orphan: the owner protocol resolves the parent";
  print_endline " by pulling from its owner, causal delivery holds the reply back.";
  print_endline " FIFO-only replication exposes it — the application-level face of the";
  print_endline " paper's Figure 3 argument.)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-MODEL: exhaustive small-scope verification + the finding           *)
(* ------------------------------------------------------------------ *)

let model () =
  header "E-MODEL  Exhaustive model checking of the owner protocol";
  let module Gen = Dsm_mc.Gen in
  let module Explore = Dsm_mc.Explore in
  let module Config = Dsm_causal.Config in
  let x = Gen.x and y = Gen.y in
  let v i = Loc.indexed "v" i in
  let owner ~nodes f = Dsm_memory.Owner.make ~nodes f in
  let fig5 =
    Gen.make "fig5"
      ~owner:(owner ~nodes:2 (fun loc -> if Loc.equal loc x then 0 else 1))
      [|
        [ Gen.Read y; Gen.Write (x, Value.Int 1); Gen.Read y ];
        [ Gen.Read x; Gen.Write (y, Value.Int 1); Gen.Read x ];
      |]
  in
  let three =
    Gen.make "three-node"
      ~owner:(owner ~nodes:3 (function Loc.Indexed (_, i) -> i mod 3 | _ -> 0))
      [|
        [ Gen.Write (v 1, Value.Int 10); Gen.Read (v 2) ];
        [ Gen.Write (v 2, Value.Int 20); Gen.Read (v 1) ];
        [ Gen.Read (v 1); Gen.Read (v 2) ];
      |]
  in
  let t =
    Table.create ~headers:[ "configuration"; "mutation"; "states"; "executions"; "counterexample" ]
  in
  let literal_cex = ref None in
  let row name (scope : Gen.scope) mutation =
    let r = Explore.run { scope with Gen.mutation } in
    let cex =
      match r.Explore.cex with
      | None -> "none"
      | Some c ->
          if mutation = Config.Figure4_literal then literal_cex := Some c;
          Printf.sprintf "%d steps%s" (List.length c.Explore.schedule)
            (if c.Explore.online then " (online)" else "")
    in
    Table.add_row t
      [
        name;
        Config.mutation_name mutation;
        string_of_int r.Explore.stats.Explore.states;
        string_of_int r.Explore.stats.Explore.executions;
        cex;
      ]
  in
  row "fig5 layout (2 nodes)" fig5 Config.No_mutation;
  row "3-node exchange" three Config.No_mutation;
  List.iter (row "race probe" Gen.race)
    Config.
      [
        No_mutation;
        Figure4_literal;
        Skip_install_merge;
        Skip_invalidation;
        Skip_writestamp_merge;
      ];
  print_table t;
  print_endline "FINDING: the literal Figure 4 pseudocode admits causal violations when";
  print_endline "an owner certifies a write while its own read request is in flight (the";
  print_endline "reply caches a value older than knowledge gained from the certification).";
  print_endline "The protocol adds a stale-install guard (Node.install_read_reply): a fetched";
  print_endline "entry is not retained when the reader's clock grew mid-flight.  The model";
  print_endline "checker runs the shipped Protocol.step; the figure4-literal mutation turns";
  print_endline "the guard off.  Shrunk counterexample:";
  (match !literal_cex with
  | Some c ->
      Format.printf "  %s@.  schedule: %a@." (snd c.Explore.cex_violation) Explore.pp_schedule
        c.Explore.schedule
  | None -> print_endline "  (none found)");
  print_newline ();
  let replay name config =
    let r = Scenarios.stale_install_race ~config () in
    Printf.printf "Cluster replay of the race, %-16s guard dropped %d reply(ies); history %s.\n"
      (name ^ ":") r.Scenarios.si_stale_drops
      (if r.Scenarios.si_causal_ok then "causally CORRECT" else "VIOLATING")
  in
  replay "guarded" Config.default;
  replay "figure4-literal" (Config.with_mutation Config.Figure4_literal Config.default);
  print_newline ()

let all : (string * (unit -> unit)) list =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("msg", msg);
    ("dict", dict);
    ("weak", weak);
    ("lat", lat);
    ("model", model);
    ("litmus", litmus);
    ("session", session);
    ("bytes", bytes_exp);
    ("scale", scale);
    ("atomicity", atomicity);
    ("abl-inv", abl_inv);
    ("abl-precise", abl_precise);
    ("abl-page", abl_page);
    ("abl-discard", abl_discard);
    ("block", block);
    ("barrier", barrier);
    ("board", board);
    ("dyn", dyn);
    ("async", async);
  ]
