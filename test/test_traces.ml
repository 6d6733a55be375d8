(* The traces/ corpus must stay parseable and classified as documented. *)

module History = Dsm_memory.History
module Check = Dsm_checker.Causal_check

let traces_dir =
  (* dune runs tests from _build/default/test; the corpus is source data. *)
  let rec find dir =
    let candidate = Filename.concat dir "traces" in
    if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  find (Sys.getcwd ())

let load name =
  match traces_dir with
  | None -> Alcotest.fail "traces/ directory not found"
  | Some dir ->
      let path = Filename.concat dir name in
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let expectations =
  [
    ("fig1_causal_relations.txt", true);
    ("fig2_correct_execution.txt", true);
    ("fig3_broadcast_anomaly.txt", false);
    ("fig5_weakly_consistent.txt", true);
    ("litmus_store_buffering.txt", true);
    ("litmus_message_passing_stale.txt", false);
    ("litmus_wrc.txt", false);
    ("litmus_iriw.txt", true);
    ("protocol_run.txt", true);
  ]

let test_corpus () =
  List.iter
    (fun (name, expect_causal) ->
      match History.parse (load name) with
      | Error e -> Alcotest.fail (Printf.sprintf "%s: parse error %s" name e)
      | Ok h ->
          Alcotest.(check bool) name expect_causal (Check.is_correct h))
    expectations

let test_corpus_complete () =
  (* Every .txt in traces/ is covered by an expectation. *)
  match traces_dir with
  | None -> Alcotest.fail "traces/ directory not found"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".txt")
      |> List.iter (fun f ->
             Alcotest.(check bool)
               (f ^ " has an expectation")
               true
               (List.mem_assoc f expectations))

(* {1 Golden event-bus trace}

   traces/owner_crash.trace.jsonl is the milestone stream of the
   owner-crash chaos scenario at its default seed, as dumped by
   [dsm trace owner-crash --milestones].  The run is fully deterministic,
   so regenerating it must reproduce the committed file byte for byte —
   any diff means the protocol's observable behaviour changed and the
   golden file needs a deliberate update (rerun the command above). *)

module Chaos = Dsm_apps.Chaos
module Trace = Dsm_causal.Trace

let golden_scenario ~scenario ~file () =
  let bus = Trace.create () in
  let knobs = { Chaos.default_knobs with Chaos.trace = Some bus } in
  let r = Chaos.run ~knobs ~seed:5L scenario in
  Alcotest.(check bool) "traced run still healthy" true (Chaos.healthy r);
  let regenerated =
    Trace.events bus
    |> List.filter (fun (ev : Trace.event) -> Trace.milestone ev.Trace.body)
    |> List.map Trace.to_json
  in
  let golden =
    load file |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int)
    "same milestone count" (List.length golden) (List.length regenerated);
  List.iteri
    (fun i (want, got) ->
      if want <> got then
        Alcotest.failf "golden trace diverges at line %d:\n  golden: %s\n  run:    %s"
          (i + 1) want got)
    (List.combine golden regenerated)

let test_golden_owner_crash =
  golden_scenario ~scenario:"owner-crash" ~file:"owner_crash.trace.jsonl"

(* traces/failover.trace.jsonl covers the full takeover-and-revive path:
   crash, suspicion, promotion, the deposed owner's restart and epoch
   re-fencing.  Regenerate with [dsm trace failover --milestones]. *)
let test_golden_failover =
  golden_scenario ~scenario:"failover" ~file:"failover.trace.jsonl"

(* traces/power_failure.trace.jsonl covers whole-cluster power loss and
   recovery: the coordinated checkpoint's recovery_line milestone, all four
   crashes at once, and every node's restart from its log.  Regenerate with
   [dsm trace power-failure --milestones]. *)
let test_golden_power_failure =
  golden_scenario ~scenario:"power-failure" ~file:"power_failure.trace.jsonl"

(* traces/partition_heal.trace.jsonl covers the quorum-fenced partition
   path: the isolated owner degrading on quorum loss, the majority-side
   backup promoting after its OWNER_VOTE canvass, the heal, and the deposed
   owner's gossip demotion.  Regenerate with
   [dsm trace partition --milestones]. *)
let test_golden_partition =
  golden_scenario ~scenario:"partition" ~file:"partition_heal.trace.jsonl"

(* traces/objects_counter.trace.jsonl covers the causal-object embedding:
   the counter clients' op-log writes and probe reads riding the ordinary
   WRITE/invalidation path, plus the [query] milestones the chaos runner
   publishes for every spec-level fold.  Regenerate with
   [dsm trace obj-counter --milestones]. *)
let test_golden_objects_counter =
  golden_scenario ~scenario:"obj-counter" ~file:"objects_counter.trace.jsonl"

(* traces/chaos.golden is every chaos report [dsm chaos <s> --seed <k>
   --online-check --mutation <m>] prints: each scenario at seeds 1-3, then
   each planted mutation against each scenario at seed 1, every block
   headed by its run and exit code.  Regenerate with
   [sh traces/chaos_golden.sh > traces/chaos.golden]. *)
let test_golden_chaos_reports () =
  let b = Buffer.create (1 lsl 18) in
  let block scenario seed (mname, mutation) =
    let knobs = { Chaos.default_knobs with Chaos.online_check = true; mutation } in
    let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) scenario in
    Printf.bprintf b "== %s seed %d mutation %s exit %d\n%s" scenario seed mname
      (if Chaos.healthy r then 0 else 1)
      (Format.asprintf "%a" Chaos.pp_report r)
  in
  List.iter
    (fun s -> List.iter (fun k -> block s k ("none", Dsm_causal.Config.No_mutation)) [ 1; 2; 3 ])
    Chaos.scenarios;
  List.iter (fun m -> List.iter (fun s -> block s 1 m) Chaos.scenarios) Dsm_causal.Config.mutations;
  let golden = String.split_on_char '\n' (load "chaos.golden") in
  let regenerated = String.split_on_char '\n' (Buffer.contents b) in
  let rec diverge i = function
    | want :: ws, got :: gs ->
        if want <> got then
          Alcotest.failf "chaos.golden diverges at line %d:\n  golden: %s\n  run:    %s" i want got
        else diverge (i + 1) (ws, gs)
    | [], [] -> ()
    | _ ->
        Alcotest.failf "chaos.golden diverges at line %d: %s" i
          (if List.length golden > List.length regenerated then "the run ends early"
           else "the golden ends early")
  in
  diverge 1 (golden, regenerated)

let suite =
  [
    Alcotest.test_case "corpus verdicts" `Quick test_corpus;
    Alcotest.test_case "corpus coverage" `Quick test_corpus_complete;
    Alcotest.test_case "golden owner-crash trace" `Quick test_golden_owner_crash;
    Alcotest.test_case "golden failover trace" `Quick test_golden_failover;
    Alcotest.test_case "golden power-failure trace" `Quick test_golden_power_failure;
    Alcotest.test_case "golden partition trace" `Quick test_golden_partition;
    Alcotest.test_case "golden objects-counter trace" `Quick test_golden_objects_counter;
    Alcotest.test_case "golden chaos reports" `Quick test_golden_chaos_reports;
  ]
