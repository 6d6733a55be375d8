module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Latency = Dsm_net.Latency
module Causal = Dsm_causal.Cluster
module Owner = Dsm_memory.Owner
module Value = Dsm_memory.Value

type case = {
  mode : string;  (** "checkpointed" or "uncheckpointed" *)
  interval : float option;
  ops_per_node : int;
  ops_issued : int;
  wal_records : int;
  wal_checkpoints : int;
  wal_truncated : int;
  recoveries : int;
  replayed_per_recovery : float;
  seconds_per_recovery : float;
  unfinished : int;
}

type result = {
  nodes : int;
  cycles : int;
  quick : bool;
  cases : case list;
  replay_bounded : bool;
}

(* One cell of the grid: run a pure owner-write workload (each node writes
   its own locations, one write per unit of sim time, so a fixed
   [checkpoint_every] period snapshots a fixed-size window), then measure
   whole-cluster recovery by power-cycling the quiesced cluster [cycles]
   times.  Replay counts are seed-deterministic; the host CPU seconds are
   the one measured quantity. *)
let run_case ~interval ~nodes ~ops ~cycles ~seed =
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let owner = Owner.by_index ~nodes in
  let c =
    Causal.create ~sched ~owner ~latency:Latency.lan ?checkpoint_every:interval ~seed ()
  in
  for pid = 0 to nodes - 1 do
    let h = Causal.handle c pid in
    ignore
      (Proc.spawn sched
         ~name:(Printf.sprintf "writer%d" pid)
         (fun () ->
           for k = 1 to ops do
             Causal.write h (Workload.loc (pid + (nodes * (k mod 3)))) (Value.Int k);
             Proc.sleep 1.0
           done))
  done;
  Engine.run engine;
  for _ = 1 to cycles do
    for pid = 0 to nodes - 1 do
      ignore (Causal.crash_result c pid)
    done;
    for pid = 0 to nodes - 1 do
      ignore (Causal.restart_result c pid)
    done
  done;
  Causal.shutdown c;
  let stats = Causal.cluster_stats c in
  let recoveries = stats.Dsm_causal.Node_stats.recoveries in
  let per r = if recoveries = 0 then 0.0 else r /. float_of_int recoveries in
  {
    mode = (match interval with Some _ -> "checkpointed" | None -> "uncheckpointed");
    interval;
    ops_per_node = ops;
    ops_issued = nodes * ops;
    wal_records = stats.Dsm_causal.Node_stats.wal_records;
    wal_checkpoints = stats.Dsm_causal.Node_stats.wal_checkpoints;
    wal_truncated = stats.Dsm_causal.Node_stats.wal_truncated;
    recoveries;
    replayed_per_recovery = per (float_of_int stats.Dsm_causal.Node_stats.replayed_records);
    seconds_per_recovery = per (Causal.recovery_seconds c);
    unfinished = List.length (Proc.unfinished_since sched);
  }

let default_interval = 5.0

let run ?(quick = false) ?(seed = 7L) () =
  let nodes = 4 in
  let cycles = if quick then 10 else 25 in
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200; 400 ] in
  let cases =
    List.concat_map
      (fun ops ->
        [
          run_case ~interval:(Some default_interval) ~nodes ~ops ~cycles ~seed;
          run_case ~interval:None ~nodes ~ops ~cycles ~seed;
        ])
      sizes
  in
  (* The tentpole claim in one bit: at the largest log, recovery work with
     checkpointing is bounded by records-since-checkpoint and therefore
     strictly smaller than the full-log replay without it. *)
  let at mode =
    List.filter (fun c -> c.mode = mode) cases
    |> List.fold_left (fun acc c -> max acc c.replayed_per_recovery) 0.0
  in
  let replay_bounded = at "checkpointed" < at "uncheckpointed" in
  { nodes; cycles; quick; cases; replay_bounded }

(* Hand-rolled JSON, like {!Bench.to_json}: flat, stable field order.  The
   [seconds_per_recovery] figures are host CPU-time measurements and
   therefore the one non-deterministic part of the artifact. *)
let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let json_case b (c : case) =
  let field fmt = Printf.bprintf b fmt in
  field "    {\n";
  field "      \"mode\": %S,\n" c.mode;
  field "      \"checkpoint_every\": %s,\n"
    (match c.interval with Some p -> json_float p | None -> "null");
  field "      \"ops_per_node\": %d,\n" c.ops_per_node;
  field "      \"ops_issued\": %d,\n" c.ops_issued;
  field "      \"wal_records\": %d,\n" c.wal_records;
  field "      \"wal_checkpoints\": %d,\n" c.wal_checkpoints;
  field "      \"wal_truncated\": %d,\n" c.wal_truncated;
  field "      \"recoveries\": %d,\n" c.recoveries;
  field "      \"replayed_per_recovery\": %s,\n" (json_float c.replayed_per_recovery);
  field "      \"seconds_per_recovery\": %s,\n" (json_float c.seconds_per_recovery);
  field "      \"unfinished\": %d\n" c.unfinished;
  field "    }"

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"recovery\",\n";
  field "  \"workload\": \"owner-writes\",\n";
  field "  \"nodes\": %d,\n" r.nodes;
  field "  \"cycles\": %d,\n" r.cycles;
  field "  \"quick\": %b,\n" r.quick;
  field "  \"cases\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then field ",\n";
      json_case b c)
    r.cases;
  field "\n  ],\n";
  field "  \"replay_bounded_by_checkpoint\": %b\n" r.replay_bounded;
  field "}\n";
  Buffer.contents b

let pp_case ppf (c : case) =
  Format.fprintf ppf
    "%-14s %4d ops/node  wal %5d  cp %3d  replayed/rec %8.1f  %10.6fs/rec" c.mode
    c.ops_per_node c.wal_records c.wal_checkpoints c.replayed_per_recovery
    c.seconds_per_recovery

let pp ppf r =
  Format.fprintf ppf "recovery bench: %d nodes, %d power cycles per case%s@." r.nodes
    r.cycles
    (if r.quick then " (quick)" else "");
  List.iter (fun c -> Format.fprintf ppf "  %a@." pp_case c) r.cases;
  Format.fprintf ppf "  replay bounded by checkpoint: %b@." r.replay_bounded

let healthy r = r.replay_bounded && List.for_all (fun c -> c.unfinished = 0) r.cases
