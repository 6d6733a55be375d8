module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable
module Latency = Dsm_net.Latency
module Causal = Dsm_causal.Cluster
module Owner = Dsm_memory.Owner
module History = Dsm_memory.History
module Value = Dsm_memory.Value
module Check = Dsm_checker.Causal_check
module Online = Dsm_checker.Online
module Trace = Dsm_causal.Trace
module Node_stats = Dsm_causal.Node_stats
module Op = Dsm_memory.Op
module Prng = Dsm_util.Prng

type knobs = {
  drop : float;
  duplicate : float;
  latency : Latency.t;
  reliability : Reliable.config;
  rpc : Causal.rpc option;
  detector : Dsm_causal.Detector.config option;
  checkpoint_every : float option;
  online_check : bool;
  online_window : int option;
  mutation : Dsm_causal.Config.mutation;
  trace : Trace.t option;
}

let default_knobs =
  {
    drop = 0.05;
    duplicate = 0.01;
    latency = Latency.lan;
    reliability = Reliable.default_config;
    rpc = Some { Causal.timeout = 100.0; retries = 5 };
    detector = None;
    checkpoint_every = None;
    online_check = false;
    online_window = None;
    mutation = Dsm_causal.Config.No_mutation;
    trace = None;
  }

type report = {
  scenario : string;
  processes : int;
  ops : int;
  causal_ok : bool;
  sim_time : float;
  transport : Reliable.counters;
  crashes : int;
  view : (int * int * int) list;
  unfinished : (string * float) list;
  stats : Node_stats.cluster;
  online_checked : bool;
  online_violation : string option;
  notes : (string * string) list;
}

(* Rebuild Op.t values from the bus's application-level events (per-pid
   indices recount program order, which is how the recorder assigned them)
   and feed them to the incremental checker as they complete.  A violation
   is published back onto the same bus, so a trace dump shows it in
   place. *)
let attach_online ?window bus =
  let ck = Online.create ?window () in
  let next = Hashtbl.create 8 in
  let index pid =
    let i = match Hashtbl.find_opt next pid with Some i -> i | None -> 0 in
    Hashtbl.replace next pid (i + 1);
    i
  in
  let feed time node op =
    match Online.add_op ck op with
    | [] -> ()
    | v :: _ ->
        Trace.emit bus ~time (Trace.Violation { node; reason = v.Online.v_reason })
  in
  Trace.subscribe bus (fun ev ->
      match ev.Trace.body with
      | Trace.Op_read { node; loc; value; from } ->
          feed ev.Trace.time node
            (Op.read ~pid:node ~index:(index node) ~loc ~value ~from)
      | Trace.Op_write { node; loc; value; wid } ->
          feed ev.Trace.time node
            (Op.write ~pid:node ~index:(index node) ~loc ~value ~wid)
      (* A crashed node's uncertified writes never arrive: give up the reads
         pending on them so the checker's deferred state stays bounded over
         a crash-heavy run. *)
      | Trace.Crash { node } -> Online.note_crashed ck ~node
      | _ -> ());
  ck

(* {1 The runner} *)

type ctx = { engine : Engine.t; sched : Proc.sched; c : Causal.t; master : Prng.t }

let scenario ~name ~knobs ~seed ~owner ?config ?sharding body =
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let config =
    if knobs.mutation = Dsm_causal.Config.No_mutation then config
    else
      let base = Option.value config ~default:Dsm_causal.Config.default in
      Some { base with Dsm_causal.Config.mutation = knobs.mutation }
  in
  let trace =
    match knobs.trace with
    | Some _ as t -> t
    | None -> if knobs.online_check then Some (Trace.create ~record:false ()) else None
  in
  let online =
    if knobs.online_check then
      Option.map (fun bus -> attach_online ?window:knobs.online_window bus) trace
    else None
  in
  let c =
    Causal.create ~sched ~owner ?config ~latency:knobs.latency
      ~fault:(Network.fault ~drop:knobs.drop ~duplicate:knobs.duplicate ())
      ~reliability:knobs.reliability ?rpc:knobs.rpc ?detector:knobs.detector
      ?sharding ?checkpoint_every:knobs.checkpoint_every ?trace ~seed ()
  in
  let finish = body { engine; sched; c; master = Prng.create seed } in
  (* Unlike [Proc.check], a process that raised does not abort the run: it
     is reported, after the scenario's own notes. *)
  Engine.run engine;
  let failures =
    List.map (fun (p, exn) -> ("failed:" ^ p, Printexc.to_string exn)) (Proc.failures sched)
  in
  let crashes, notes = finish () in
  Causal.shutdown c;
  let history = Causal.history c in
  let notes = notes @ failures in
  let notes =
    match online with
    | None -> notes
    | Some ck ->
        ("online_ops", string_of_int (Online.ops_seen ck))
        :: ("online_checks", string_of_int (Online.checks ck))
        :: ("online_edges", string_of_int (Online.edges ck))
        :: ("online_pending", string_of_int (Online.pending_reads ck))
        :: ("online_dropped", string_of_int (Online.dropped_reads ck))
        :: notes
  in
  {
    scenario = name;
    processes = Causal.processes c;
    ops = History.op_count history;
    causal_ok = Harness.check_history history;
    stats = Causal.cluster_stats c;
    online_checked = online <> None;
    online_violation =
      Option.bind online (fun ck ->
          Option.map (fun v -> v.Online.v_reason) (Online.first_violation ck));
    sim_time = Engine.now engine;
    (* The runner always layers the reliable transport. *)
    transport = Reliable.counters (Option.get (Causal.reliable c));
    crashes;
    view = Causal.view c;
    unfinished = Proc.unfinished_since sched;
    notes;
  }

(* {1 Shared scenario pieces} *)

(* Run [op k] for k = first..last, one time unit apart. *)
let steps ~first ~last op =
  for k = first to last do
    op k;
    Proc.sleep 1.0
  done

(* An even-odds write of a unique value or a read of [target].  The caller
   draws [target] first: the chance is drawn here, after it. *)
let write_or_read h prng ~pid target k =
  if Prng.chance prng 0.5 then Causal.write h target (Value.Int ((pid * 1_000_000) + k))
  else ignore (Causal.read h target)

(* One more process after quiescence, e.g. to read results back through the
   memory API (which must happen inside a process). *)
let collect ctx body =
  ignore (Proc.spawn ctx.sched ~name:"collect" body);
  Engine.run ctx.engine

let sleep_until ctx at = Proc.sleep (Float.max 0.0 (at -. Engine.now ctx.engine))

let failover_detector = { Dsm_causal.Detector.period = 5.0; suspect_after = 3 }

(* The failover scenarios need heartbeats: a fast detector unless the
   caller chose one. *)
let with_detector knobs =
  match knobs.detector with
  | Some _ -> knobs
  | None -> { knobs with detector = Some failover_detector }

(* {1 Scenario: random read/write mix} *)

let mix ?(knobs = default_knobs) ?(seed = 1L) ?(spec = Workload.default_spec) () =
  Workload.validate spec;
  scenario ~name:"mix" ~knobs ~seed ~owner:(Owner.by_index ~nodes:spec.Workload.processes)
    (fun ctx ->
      Workload.spawn_causal_clients ctx.sched ~spec ~master:ctx.master ctx.c;
      fun () -> (0, []))

(* {1 Scenario: the Section 4.2 dictionary under loss} *)

let dictionary ?(knobs = default_knobs) ?(seed = 2L) ?(processes = 4) ?(rounds = 6) () =
  if processes < 2 then invalid_arg "Chaos.dictionary: processes must be >= 2";
  if rounds < 1 then invalid_arg "Chaos.dictionary: rounds must be >= 1";
  let cols = rounds + 2 in
  scenario ~name:"dictionary" ~knobs ~seed ~owner:(Dictionary.owner_map ~processes)
    ~config:Dictionary.config (fun ctx ->
      (* Each process inserts unique items into its own row, looks up and
         occasionally deletes a neighbour's earlier item, and refreshes so
         its view converges — the paper's usage pattern, now over lossy
         links. *)
      let client pid () =
        let prng = Prng.split ctx.master in
        let dict = Dictionary.attach (Causal.handle ctx.c pid) ~cols in
        for round = 1 to rounds do
          Proc.sleep (Prng.exponential prng ~mean:2.0);
          ignore (Dictionary.insert dict (Printf.sprintf "item-%d-%d" pid round));
          if round > 1 then begin
            let neighbour = (pid + 1) mod processes in
            let target = Printf.sprintf "item-%d-%d" neighbour (round - 1) in
            Dictionary.refresh dict;
            if Dictionary.lookup dict target && Prng.chance prng 0.5 then
              ignore (Dictionary.delete dict target)
          end
        done
      in
      for pid = 0 to processes - 1 do
        ignore (Proc.spawn ctx.sched ~name:(Printf.sprintf "dict%d" pid) (client pid))
      done;
      fun () ->
        (* After quiescence, every process refreshes and reads the full
           dictionary: all views must agree on the final contents. *)
        let views = Array.make processes [] in
        collect ctx (fun () ->
            for pid = 0 to processes - 1 do
              let dict = Dictionary.attach (Causal.handle ctx.c pid) ~cols in
              Dictionary.refresh dict;
              views.(pid) <- Dictionary.items dict
            done);
        let converged =
          Array.for_all (fun v -> List.sort compare v = List.sort compare views.(0)) views
        in
        ( 0,
          [
            ("final_items", string_of_int (List.length views.(0)));
            ("views_converged", string_of_bool converged);
          ] ))

(* {1 Scenario: the Figure 6 solver under loss} *)

module Solver_on_causal = Solver.Make (Causal.Mem)

let solver ?(knobs = default_knobs) ?(seed = 3L) ?(n = 6) ?(iters = 4) () =
  let problem = Linalg.random_diagonally_dominant (Prng.create seed) ~n in
  scenario ~name:"solver" ~knobs ~seed ~owner:(Solver.owner_map ~workers:n) (fun ctx ->
      let h = Causal.handle ctx.c in
      for i = 0 to n - 1 do
        ignore
          (Proc.spawn ctx.sched
             ~name:(Printf.sprintf "worker%d" i)
             (fun () -> Solver_on_causal.worker (h i) problem ~me:i ~iters))
      done;
      ignore
        (Proc.spawn ctx.sched ~name:"coordinator" (fun () ->
             Solver_on_causal.coordinator (h n) ~workers:n ~iters));
      fun () ->
        let solution = ref [||] in
        collect ctx (fun () -> solution := Solver_on_causal.read_solution (h n) ~n);
        let reference = Linalg.jacobi problem ~iters in
        let max_diff =
          if Array.length !solution = n then Linalg.max_diff !solution reference else infinity
        in
        ( 0,
          [
            ("max_diff", Printf.sprintf "%g" max_diff);
            ("bit_exact", string_of_bool (max_diff = 0.0));
          ] ))

(* {1 Scenario: crash-stop restart of a non-owner node}

   [clients] nodes own the namespace between them; one extra node (the
   victim, pid = clients) owns nothing and can therefore crash and restart
   with its volatile state discarded.  The victim warms its cache, sleeps
   across a crash/restart window injected by a supervisor, then resumes
   reading and writing — everything it sees afterwards must still be
   causally consistent with its pre-crash operations. *)

let crash_restart ?(knobs = default_knobs) ?(seed = 4L) ?(clients = 3)
    ?(ops_per_client = 10) () =
  if clients < 1 then invalid_arg "Chaos.crash_restart: clients must be >= 1";
  let processes = clients + 1 in
  let victim = clients in
  let inner = Owner.by_index ~nodes:clients in
  let owner = Owner.make ~nodes:processes (fun loc -> Owner.owner inner loc) in
  let spec =
    {
      Workload.default_spec with
      Workload.processes = clients;
      ops_per_process = ops_per_client;
      locations = 2 * clients;
    }
  in
  scenario ~name:"crash-restart" ~knobs ~seed ~owner (fun ctx ->
      let c = ctx.c in
      Workload.spawn_causal_clients ctx.sched ~spec ~master:ctx.master c;
      let crashes = ref 0 in
      ignore
        (Proc.spawn ctx.sched ~name:"victim" (fun () ->
             let prng = Prng.split ctx.master in
             let h = Causal.handle c victim in
             let one_op k =
               write_or_read h prng ~pid:victim
                 (Workload.loc (Prng.int prng spec.Workload.locations))
                 k
             in
             (* Phase 1: warm the cache before the crash window. *)
             steps ~first:1 ~last:ops_per_client one_op;
             (* Schedule the crash/restart window inside the victim's own
                sleep, so the crash never interrupts an operation in flight
                (a crashed node runs no application code) and phase 2
                starts with the discarded volatile state of a fresh
                restart. *)
             let now = Engine.now ctx.engine in
             Engine.schedule_at ctx.engine (now +. 5.0) (fun () ->
                 Causal.crash c victim;
                 incr crashes);
             Engine.schedule_at ctx.engine (now +. 35.0) (fun () -> Causal.restart c victim);
             Proc.sleep 50.0;
             steps ~first:(ops_per_client + 1) ~last:(2 * ops_per_client) one_op));
      fun () ->
        ( !crashes,
          [
            ("victim", string_of_int victim);
            ( "victim_cache_after",
              string_of_int (Dsm_causal.Node.cache_size (Causal.node c victim)) );
          ] ))

(* {1 Scenarios: crash a serving owner, fail over to its backup}

   Node 0 (the victim) owns part of the namespace and crashes for good
   shortly after warming it with writes; [clients] other nodes work through
   the outage.  With the failure detector on, node 1 — the victim's
   designated backup, which shadowed every acknowledged write — suspects
   the silence, promotes itself under epoch 1 and broadcasts the takeover;
   the clients' phase-2 operations on victim-owned locations re-route to it
   and must still form a causally correct history.  [failover] additionally
   restarts the victim after the takeover: replaying its log resurrects its
   pre-crash state, and heartbeat gossip demotes it to a client of the new
   owner before it resumes. *)

let owner_crash_scenario ~name ~revive ?(knobs = default_knobs) ?(seed = 5L)
    ?(clients = 3) ?(ops_per_client = 8) () =
  if clients < 2 then invalid_arg (Printf.sprintf "Chaos.%s: clients must be >= 2" name);
  let processes = clients + 1 in
  let victim = 0 in
  let locations = 2 * processes in
  scenario ~name ~knobs:(with_detector knobs) ~seed ~owner:(Owner.by_index ~nodes:processes)
    (fun ctx ->
      let c = ctx.c in
      let crashes = ref 0 in
      (* Victim-owned locations are the indices congruent to 0 mod
         [processes]. *)
      let victim_loc k = Workload.loc (processes * (k mod 2)) in
      ignore
        (Proc.spawn ctx.sched ~name:"victim-owner" (fun () ->
             let h = Causal.handle c victim in
             steps ~first:1 ~last:ops_per_client (fun k ->
                 Causal.write h (victim_loc k) (Value.Int ((victim * 1_000_000) + k)));
             let now = Engine.now ctx.engine in
             Engine.schedule_at ctx.engine (now +. 2.0) (fun () ->
                 Causal.crash c victim;
                 incr crashes);
             if revive then begin
               Engine.schedule_at ctx.engine (now +. 45.0) (fun () -> Causal.restart c victim);
               (* Resume well after the restart: by then heartbeat gossip
                  has carried the takeover epoch back and demoted this node
                  to a client of the new owner. *)
               Proc.sleep 70.0;
               steps ~first:1 ~last:ops_per_client (fun k ->
                   if k mod 2 = 0 then Causal.write h (victim_loc k) (Value.Int (2_000_000 + k))
                   else ignore (Causal.read h (victim_loc k)))
             end));
      for pid = 1 to clients do
        let prng = Prng.split ctx.master in
        let h = Causal.handle c pid in
        let one_op k =
          let target =
            (* Half the traffic hits victim-owned locations, so the outage
               and the handoff are actually on the critical path. *)
            if k mod 2 = 0 then victim_loc k else Workload.loc (Prng.int prng locations)
          in
          write_or_read h prng ~pid target k
        in
        ignore
          (Proc.spawn ctx.sched
             ~name:(Printf.sprintf "client%d" pid)
             (fun () ->
               steps ~first:1 ~last:ops_per_client one_op;
               (* Sleep across the crash (~t+2), the detection window
                  (suspect_after * period) and the takeover broadcast. *)
               Proc.sleep 60.0;
               steps ~first:(ops_per_client + 1) ~last:(2 * ops_per_client) one_op))
      done;
      fun () ->
        let victim_node = Causal.node c victim in
        ( !crashes,
          [
            ("victim", string_of_int victim);
            ("takeover_epoch", string_of_int (Causal.epoch_of c ~base:victim));
            ("new_owner", string_of_int (Causal.serving_of c ~base:victim));
            ( "victim_demoted",
              string_of_bool (Dsm_causal.Node.serving_of victim_node ~base:victim <> victim) );
          ] ))

let owner_crash ?knobs ?seed ?clients ?ops_per_client () =
  owner_crash_scenario ~name:"owner-crash" ~revive:false ?knobs ?seed ?clients
    ?ops_per_client ()

let failover ?knobs ?seed ?clients ?ops_per_client () =
  owner_crash_scenario ~name:"failover" ~revive:true ?knobs ?seed ?clients ?ops_per_client ()

(* {1 Scenario: whole-cluster power failure}

   Every node owns a slice of the namespace and runs a client.  Periodic
   uncoordinated checkpoints compact each log as the workload runs, and one
   coordinated round mid-workload establishes a cluster-wide recovery line;
   then the power goes out — every node crashes at once, inside every
   client's sleep window — and comes back 30 time units later.  Each node
   restarts from its latest complete snapshot plus the log suffix behind
   it.  Because every certified write hits the log before its reply leaves,
   recovery restores the exact durable frontier: the clients' phase-2
   operations must still form a causally correct history with phase 1. *)

let power_failure ?(knobs = default_knobs) ?(seed = 6L) ?(clients = 4)
    ?(ops_per_client = 8) () =
  if clients < 2 then invalid_arg "Chaos.power_failure: clients must be >= 2";
  let knobs =
    match knobs.checkpoint_every with
    | Some _ -> knobs
    | None -> { knobs with checkpoint_every = Some 4.0 }
  in
  let processes = clients in
  let locations = 2 * processes in
  scenario ~name:"power-failure" ~knobs ~seed ~owner:(Owner.by_index ~nodes:processes)
    (fun ctx ->
      let c = ctx.c in
      let crashes = ref 0 in
      (* The outage supervisor.  Phase 1 lasts ~[ops_per_client] time
         units; the coordinated round starts mid-phase, the outage hits once
         every client is asleep, and power returns well before anyone
         wakes. *)
      let phase1_end = float_of_int ops_per_client +. 2.0 in
      Engine.schedule_at ctx.engine (phase1_end /. 2.0) (fun () ->
          if not (Causal.is_crashed c 0) then Causal.begin_checkpoint c 0);
      Engine.schedule_at ctx.engine (phase1_end +. 5.0) (fun () ->
          for pid = 0 to processes - 1 do
            match Causal.crash_result c pid with Ok () -> incr crashes | Error _ -> ()
          done);
      Engine.schedule_at ctx.engine (phase1_end +. 35.0) (fun () ->
          for pid = 0 to processes - 1 do
            ignore (Causal.restart_result c pid)
          done);
      for pid = 0 to processes - 1 do
        let prng = Prng.split ctx.master in
        let h = Causal.handle c pid in
        let one_op k = write_or_read h prng ~pid (Workload.loc (Prng.int prng locations)) k in
        ignore
          (Proc.spawn ctx.sched
             ~name:(Printf.sprintf "client%d" pid)
             (fun () ->
               steps ~first:1 ~last:ops_per_client one_op;
               (* Sleep across the outage window: a powered-off node runs
                  no application code, so the blackout lands between
                  operations. *)
               Proc.sleep 60.0;
               steps ~first:(ops_per_client + 1) ~last:(2 * ops_per_client) one_op))
      done;
      (* Recoveries, replayed records and recovery lines are in [stats].
         Host replay time ([Cluster.recovery_seconds]) is not reported:
         chaos reports are bit-identical per seed, and [dsm bench recovery]
         owns the timing measurements. *)
      fun () -> (!crashes, []))

(* {1 Scenarios: network partition and split-brain prevention}

   A nemesis cuts the cluster into a minority and a majority mid-workload
   and heals it later.  Three phases of client traffic bracket the cut:
   phase 1 runs on the whole cluster, phase 2 runs inside the partition
   window (after the majority's takeover has propagated), phase 3 runs
   after the heal.  During the window, minority owners observe quorum
   loss and degrade to read-only — their clients' local writes are
   refused ([Timed_out] with zero attempts) while their reads still serve
   the Definition-2-safe local copies; the majority elects a replacement
   for every cut-off base whose ring-successor backup it holds, and its
   clients fail over to the new server via the takeover gossip.  On heal,
   the deposed owners demote and ship their served entries to the new
   servers (FRONTIER reconciliation), and the final phase must still form
   one causally correct history — the proof that no split-brain write was
   double-certified.

   [partition] isolates a single owner (its base is taken over);
   [split_brain] cuts off an owner {e together with} its designated
   backup, so that base stays unavailable-but-consistent while the
   backup's own base is taken over from the majority side instead. *)

let partition_scenario ~name ~minority ?(knobs = default_knobs) ?(seed = 7L)
    ?(processes = 5) ?(ops_per_phase = 3) () =
  if processes < 3 then invalid_arg (Printf.sprintf "Chaos.%s: processes must be >= 3" name);
  let all_bases = List.init processes Fun.id in
  let majority = List.filter (fun n -> not (List.mem n minority)) all_bases in
  if List.length majority <= processes / 2 then
    invalid_arg (Printf.sprintf "Chaos.%s: majority must hold a quorum" name);
  (* Bases the majority can actually take over: served from the minority,
     ring-successor backup on the majority side. *)
  let contested =
    List.filter (fun b -> List.mem ((b + 1) mod processes) majority) minority
  in
  let cut_at = 10.0 and heal_at = 50.0 in
  let p2_start = 35.0 and p3_start = 60.0 in
  scenario ~name ~knobs:(with_detector knobs) ~seed ~owner:(Owner.by_index ~nodes:processes)
    (fun ctx ->
      let c = ctx.c in
      let nem =
        Nemesis.schedule ctx.engine c
          (Nemesis.partition_window ~from_:cut_at ~until:heal_at ~a:minority ~b:majority)
      in
      let refused = ref 0 and window_ok = ref 0 in
      (* Per-side phase-2 availability: every operation attempted inside
         the partition window, by the side that attempted it.  The
         partition bench aggregates these into its availability headline —
         the majority side must keep serving through the cut. *)
      let maj_attempts = ref 0 and maj_ok = ref 0 in
      let min_attempts = ref 0 and min_ok = ref 0 in
      for pid = 0 to processes - 1 do
        let prng = Prng.split ctx.master in
        let h = Causal.handle c pid in
        let cut_off = List.mem pid minority in
        let pick bases = List.nth bases (Prng.int prng (List.length bases)) in
        let base_loc ~k base = Workload.loc (base + (processes * (k mod 2))) in
        let value phase k = Value.Int ((pid * 1_000_000) + (phase * 1_000) + k) in
        let do_op ~phase ~write_bases ~read_bases k =
          let record ok =
            if phase = 2 then begin
              let attempts, oks =
                if cut_off then (min_attempts, min_ok) else (maj_attempts, maj_ok)
              in
              incr attempts;
              if ok then incr oks
            end
          in
          if Prng.chance prng 0.5 then begin
            match Causal.write_result h (base_loc ~k (pick write_bases)) (value phase k) with
            | Ok _ ->
                record true;
                if phase = 2 then incr window_ok
            | Error _ ->
                record false;
                incr refused
          end
          else
            match Causal.read_result h (base_loc ~k (pick read_bases)) with
            | Ok _ -> record true
            | Error _ -> record false
        in
        ignore
          (Proc.spawn ctx.sched
             ~name:(Printf.sprintf "client%d" pid)
             (fun () ->
               steps ~first:1 ~last:ops_per_phase
                 (do_op ~phase:1 ~write_bases:all_bases ~read_bases:all_bases);
               sleep_until ctx p2_start;
               (* Same-side traffic only: a minority client's writes to its
                  own degraded owner are refused on the spot, while the
                  majority exercises the freshly elected servers.
                  Cross-side requests would just park in the frozen links
                  until the heal. *)
               steps ~first:1 ~last:ops_per_phase
                 (if cut_off then do_op ~phase:2 ~write_bases:[ pid ] ~read_bases:minority
                  else
                    do_op ~phase:2 ~write_bases:(contested @ majority)
                      ~read_bases:(contested @ majority));
               sleep_until ctx p3_start;
               steps ~first:1 ~last:ops_per_phase
                 (do_op ~phase:3 ~write_bases:all_bases ~read_bases:all_bases)))
      done;
      fun () ->
        ( Nemesis.crashes nem,
          ("contested", String.concat "," (List.map string_of_int contested))
          :: ("refused_writes", string_of_int !refused)
          :: ("window_writes_ok", string_of_int !window_ok)
          :: ("window_majority_ok", string_of_int !maj_ok)
          :: ("window_majority_attempts", string_of_int !maj_attempts)
          :: ("window_minority_ok", string_of_int !min_ok)
          :: ("window_minority_attempts", string_of_int !min_attempts)
          :: ("quorum", string_of_int (Causal.quorum c))
          :: Nemesis.notes nem ))

let partition ?knobs ?seed ?processes ?ops_per_phase () =
  partition_scenario ~name:"partition" ~minority:[ 0 ] ?knobs ?seed ?processes ?ops_per_phase ()

let split_brain ?knobs ?seed ?processes ?ops_per_phase () =
  partition_scenario ~name:"split-brain" ~minority:[ 0; 1 ] ?knobs ?seed ?processes
    ?ops_per_phase ()

(* {1 Scenario: faults stay inside their shard}

   Nine nodes in three shard rings of three (quorum 2 per ring), a skewed
   workload where every client mostly touches its own shard, and two
   faults aimed exclusively at shard 0: a partition that isolates ring
   member 2 (t=10..30), then a crash-stop of serving owner 0 at t=40 whose
   ring successor 1 must win a shard-local canvass and take over.  Clients
   of shards 1 and 2 must sail through both faults untouched — that is the
   fault-isolation property partial replication buys.  A late explicit
   subscribe from node 8 into shard 0 exercises the SUB_REQ/SUB_REPLY
   catch-up path on top of the ambient subscribe-on-access traffic. *)

let shard ?(knobs = default_knobs) ?(seed = 11L) ?(ops_per_phase = 3) () =
  let module Shard = Dsm_memory.Shard in
  let shards = 3 and nodes = 9 in
  let layout = Shard.make ~nodes ~shards in
  let owner = Shard.owner layout in
  let cut_at = 10.0 and heal_at = 30.0 and crash_at = 40.0 in
  let p2_start = 14.0 and p3_start = 70.0 in
  scenario ~name:"shard" ~knobs:(with_detector knobs) ~seed ~owner ~sharding:layout (fun ctx ->
      let c = ctx.c in
      let isolated = [ 2 ] in
      let rest = List.filter (fun n -> not (List.mem n isolated)) (List.init nodes Fun.id) in
      let nem =
        Nemesis.schedule ctx.engine c
          [
            { Nemesis.at = cut_at; fault = Nemesis.Cut { a = isolated; b = rest } };
            { at = heal_at; fault = Nemesis.Heal_all };
            { at = crash_at; fault = Nemesis.Crash 0 };
          ]
      in
      (* Location i lives in shard [i mod 3] and is served by ring member
         [(i/3) mod 3] of that ring; 36 locations give each base four. *)
      let all_locs = List.init 36 Fun.id in
      let locs_of sh =
        List.filter (fun i -> Shard.of_loc layout (Workload.loc i) = sh) all_locs
      in
      (* Per-shard availability inside each fault window, indexed by the
         shard of the {e client} attempting the operation: shards 1 and 2
         must stay at 100% through both shard-0 faults. *)
      let att = Array.make_matrix 2 shards 0 and ok = Array.make_matrix 2 shards 0 in
      for pid = 0 to nodes - 1 do
        let prng = Prng.split ctx.master in
        let h = Causal.handle c pid in
        let my_shard = Shard.of_base layout pid in
        let own = locs_of my_shard in
        let foreign = List.filter (fun i -> not (List.mem i own)) all_locs in
        let pick locs = Workload.loc (List.nth locs (Prng.int prng (List.length locs))) in
        (* The skew: mostly own-shard traffic, a trickle across shard lines
           (which is what drives subscribe-on-access). *)
        let skewed () = if Prng.chance prng 0.85 then pick own else pick foreign in
        let value phase k = Value.Int ((pid * 1_000_000) + (phase * 1_000) + k) in
        let record ~window ok_now =
          match window with
          | Some w ->
              att.(w).(my_shard) <- att.(w).(my_shard) + 1;
              if ok_now then ok.(w).(my_shard) <- ok.(w).(my_shard) + 1
          | None -> ()
        in
        let do_op ~phase ~window ~k loc =
          if Prng.chance prng 0.5 then
            match Causal.write_result h loc (value phase k) with
            | Ok _ -> record ~window true
            | Error _ -> record ~window false
          else
            match Causal.read_result h loc with
            | Ok _ -> record ~window true
            | Error _ -> record ~window false
        in
        ignore
          (Proc.spawn ctx.sched
             ~name:(Printf.sprintf "client%d" pid)
             (fun () ->
               steps ~first:1 ~last:ops_per_phase (fun k ->
                   do_op ~phase:1 ~window:None ~k (skewed ()));
               sleep_until ctx p2_start;
               steps ~first:1 ~last:ops_per_phase (fun k ->
                   (* Own-shard traffic only while node 2 is cut off.
                      Shard 0's surviving ring majority {0,1} steers around
                      the isolated base (a request parked on a frozen link
                      would just wait out the heal); the isolated client
                      hammers its own shard and takes the refusals. *)
                   let loc =
                     if my_shard = 0 && pid <> 2 then
                       pick (List.filter (fun i -> Owner.owner owner (Workload.loc i) <> 2) own)
                     else pick own
                   in
                   do_op ~phase:2 ~window:(Some 0) ~k loc);
               if pid <> 0 then begin
                 (* Node 0 is crash-stopped at t=40 and never restarts; its
                    client retires after phase 2. *)
                 sleep_until ctx p3_start;
                 if pid = 8 then Causal.subscribe c ~node:8 ~shard:0;
                 steps ~first:1 ~last:ops_per_phase (fun k ->
                     let loc =
                       if pid = 8 && k = 1 then pick (locs_of 0) (* read back the catch-up *)
                       else skewed ()
                     in
                     do_op ~phase:3 ~window:(Some 1) ~k loc)
               end))
      done;
      fun () ->
        let pct w sh = Printf.sprintf "%d/%d" ok.(w).(sh) att.(w).(sh) in
        let isolated_ok =
          let clean w sh = ok.(w).(sh) = att.(w).(sh) && att.(w).(sh) > 0 in
          clean 0 1 && clean 0 2 && clean 1 1 && clean 1 2
        in
        ( Nemesis.crashes nem,
          ("layout", Format.asprintf "%a" Shard.pp layout)
          :: ("ring_quorum", string_of_int (Causal.quorum_for c ~base:0))
          :: ("partition_shard0", pct 0 0)
          :: ("partition_shard1", pct 0 1)
          :: ("partition_shard2", pct 0 2)
          :: ("crash_shard0", pct 1 0)
          :: ("crash_shard1", pct 1 1)
          :: ("crash_shard2", pct 1 2)
          :: ("fault_isolated", string_of_bool isolated_ok)
          :: ( "shard0_subscribers",
               String.concat "," (List.map string_of_int (Shard.subscribers layout 0)) )
          :: Nemesis.notes nem ))

(* {1 Scenarios: causal objects under loss}

   One scenario per shipped [Causal_object] instance.  Each process
   attaches a client of the family, interleaves spec-level updates with
   queries over the lossy links, and issues one final query after
   quiescence.  Health is judged at two levels: the register history must
   stay causally correct as always, and every recorded query return must
   be spec-legal under some causal-past linearization of its observed
   context ({!Dsm_checker.Causal_check.check_objects}); the final returns
   must also agree across processes (convergence).  Under the
   [Merge_drops_op] mutation the buggy client merge silently drops the
   causally greatest observed update — every probe read stays
   register-legal, so only the object-level certification flags it. *)

module Objects = struct
  module Registry = Dsm_objects.Registry
  module CCounter = Dsm_objects.Counter.Client (Causal.Mem)
  module CGset = Dsm_objects.Gset.Client (Causal.Mem)
  module CTpset = Dsm_objects.Tpset.Client (Causal.Mem)
  module COqueue = Dsm_objects.Oqueue.Client (Causal.Mem)
  module COdict = Dsm_objects.Odict.Client (Causal.Mem)
  module COboard = Dsm_objects.Oboard.Client (Causal.Mem)

  (* A first-class per-process client: the instances' op types differ, so
     the scenario runner works through closures over one attached client. *)
  type inst = {
    obj : string;  (** the family name, for the query trace milestone *)
    update : Prng.t -> round:int -> unit;
    query : unit -> string;
    queries : unit -> Dsm_checker.Obj_check.query list;
  }

  let counter ~buggy h =
    let t = CCounter.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Counter.name;
      update =
        (fun prng ~round:_ ->
          CCounter.update t
            (if Prng.chance prng 0.3 then Dsm_objects.Counter.add 2
             else Dsm_objects.Counter.incr));
      query = (fun () -> CCounter.query t);
      queries = (fun () -> CCounter.queries t);
    }

  let gset ~buggy h =
    let t = CGset.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Gset.name;
      update =
        (fun _ ~round ->
          CGset.update t (Dsm_objects.Gset.of_elt (Printf.sprintf "e%d-%d" (CGset.pid t) round)));
      query = (fun () -> CGset.query t);
      queries = (fun () -> CGset.queries t);
    }

  let tpset ~buggy h =
    let t = CTpset.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Tpset.name;
      update =
        (fun _ ~round ->
          let pid = CTpset.pid t in
          if round mod 2 = 0 then
            CTpset.update t (Dsm_objects.Tpset.remove (Printf.sprintf "e%d-%d" pid (round - 1)))
          else CTpset.update t (Dsm_objects.Tpset.add (Printf.sprintf "e%d-%d" pid round)));
      query = (fun () -> CTpset.query t);
      queries = (fun () -> CTpset.queries t);
    }

  let oqueue ~buggy h =
    let t = COqueue.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Oqueue.name;
      update =
        (fun _ ~round ->
          COqueue.update t (Dsm_objects.Oqueue.push (Printf.sprintf "m%d-%d" (COqueue.pid t) round)));
      query = (fun () -> COqueue.query t);
      queries = (fun () -> COqueue.queries t);
    }

  let odict ~buggy h =
    let t = COdict.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Odict.name;
      update =
        (fun prng ~round ->
          let pid = COdict.pid t in
          if round > 1 && Prng.chance prng 0.25 then
            COdict.update t (Dsm_objects.Odict.delete (Printf.sprintf "k%d" (round mod 3)))
          else
            COdict.update t
              (Dsm_objects.Odict.insert (Printf.sprintf "k%d" (round mod 3))
                 (Printf.sprintf "v%d-%d" pid round)));
      query = (fun () -> COdict.query t);
      queries = (fun () -> COdict.queries t);
    }

  let oboard ~buggy h =
    let t = COboard.attach ~buggy_merge:buggy h in
    {
      obj = Dsm_objects.Oboard.name;
      update =
        (fun _ ~round ->
          let pid = COboard.pid t in
          COboard.update t
            (Dsm_objects.Oboard.post ~author:(Printf.sprintf "p%d" pid)
               ~text:(Printf.sprintf "t%d" round)));
      query = (fun () -> COboard.query t);
      queries = (fun () -> COboard.queries t);
    }

  let drivers =
    [
      ("obj-counter", counter);
      ("obj-gset", gset);
      ("obj-2pset", tpset);
      ("obj-queue", oqueue);
      ("obj-dict", odict);
      ("obj-board", oboard);
    ]
end

let object_scenario ~scenario:name ~make ?(knobs = default_knobs) ?(seed = 12L)
    ?(processes = 3) ?(rounds = 4) () =
  if processes < 2 then invalid_arg (Printf.sprintf "Chaos.%s: processes must be >= 2" name);
  if rounds < 1 then invalid_arg (Printf.sprintf "Chaos.%s: rounds must be >= 1" name);
  (* Op-log cells must read [Free] until written: that is the probes'
     end-of-log marker. *)
  let config =
    Dsm_causal.Config.with_init Dsm_objects.Registry.init Dsm_causal.Config.default
  in
  let objects_ok = ref true in
  let r =
    scenario ~name ~knobs ~seed ~owner:(Owner.by_index ~nodes:processes) ~config (fun ctx ->
        let c = ctx.c in
        (* Queries are client-side folds, invisible to the cluster: publish
           each one onto the bus ourselves so traced runs show the object
           milestones. *)
        let emit_query pid (inst : Objects.inst) ret =
          match Causal.trace c with
          | None -> ()
          | Some bus ->
              Trace.emit bus ~time:(Engine.now ctx.engine)
                ~clock:(Dsm_causal.Node.vt (Causal.node c pid))
                (Trace.Op_query { node = pid; obj = inst.Objects.obj; ret })
        in
        let buggy = knobs.mutation = Dsm_causal.Config.Merge_drops_op in
        let insts = Array.make processes None in
        for pid = 0 to processes - 1 do
          let prng = Prng.split ctx.master in
          ignore
            (Proc.spawn ctx.sched
               ~name:(Printf.sprintf "obj%d" pid)
               (fun () ->
                 let inst = make ~buggy (Causal.handle c pid) in
                 insts.(pid) <- Some inst;
                 for round = 1 to rounds do
                   Proc.sleep (Prng.exponential prng ~mean:2.0);
                   inst.Objects.update prng ~round;
                   if Prng.chance prng 0.5 then emit_query pid inst (inst.Objects.query ())
                 done))
        done;
        fun () ->
          (* After quiescence every client re-syncs and queries once more:
             all final returns must agree — the convergence the
             frontier-closed merge guarantees once every update has
             propagated. *)
          let finals = Array.make processes "" in
          collect ctx (fun () ->
              Array.iteri
                (fun pid inst ->
                  match inst with
                  | Some i ->
                      finals.(pid) <- i.Objects.query ();
                      emit_query pid i finals.(pid)
                  | None -> ())
                insts);
          let queries =
            Array.to_list insts
            |> List.concat_map (function Some i -> i.Objects.queries () | None -> [])
          in
          let violations =
            Check.check_objects ~lookup:Dsm_objects.Registry.find (Causal.history c) queries
          in
          let obj_ok = violations = [] in
          let converged = Array.for_all (fun s -> String.equal s finals.(0)) finals in
          objects_ok := obj_ok && converged;
          ( 0,
            ("object_queries", string_of_int (List.length queries))
            :: ("object_ok", string_of_bool obj_ok)
            :: ("views_converged", string_of_bool converged)
            :: ("final_view", finals.(0))
            ::
            (match violations with
            | [] -> []
            | v :: _ -> [ ("object_violation", v.Dsm_checker.Obj_check.v_reason) ]) ))
  in
  { r with causal_ok = r.causal_ok && !objects_ok }

(* Every scenario by name, in presentation order, with its default sizes. *)
let runners =
  [
    ("mix", fun knobs seed -> mix ?knobs ?seed ());
    ("dictionary", fun knobs seed -> dictionary ?knobs ?seed ());
    ("solver", fun knobs seed -> solver ?knobs ?seed ());
    ("crash-restart", fun knobs seed -> crash_restart ?knobs ?seed ());
    ("owner-crash", fun knobs seed -> owner_crash ?knobs ?seed ());
    ("failover", fun knobs seed -> failover ?knobs ?seed ());
    ("power-failure", fun knobs seed -> power_failure ?knobs ?seed ());
    ("partition", fun knobs seed -> partition ?knobs ?seed ());
    ("split-brain", fun knobs seed -> split_brain ?knobs ?seed ());
    ("shard", fun knobs seed -> shard ?knobs ?seed ());
  ]
  @ List.map
      (fun (scenario, make) ->
        (scenario, fun knobs seed -> object_scenario ~scenario ~make ?knobs ?seed ()))
      Objects.drivers

let scenarios = List.map fst runners

let run ?knobs ?seed name =
  match List.assoc_opt name runners with
  | Some run -> run knobs seed
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos.run: unknown scenario %s (expected one of %s)" name
           (String.concat ", " scenarios))

let healthy r = r.causal_ok && r.unfinished = [] && r.online_violation = None

let pp_report ppf r =
  let line fmt = Format.fprintf ppf fmt in
  line "scenario:          %s (%d processes)@." r.scenario r.processes;
  line "recorded ops:      %d@." r.ops;
  line "causally correct:  %b@." r.causal_ok;
  line "sim time:          %.1f@." r.sim_time;
  let s = r.stats in
  line "wire messages:     %d (dropped %d, duplicated %d)@." s.Node_stats.physical_frames
    s.wire_dropped s.wire_duplicated;
  if s.logical_messages <> s.physical_frames then
    line "logical messages:  %d (%d physical frames on the wire)@." s.logical_messages
      s.physical_frames;
  line "transport:         %d payloads, %d rexmit, %d acks, %d dup-dropped, %d reordered, %d gave up@."
    r.transport.Reliable.payloads r.transport.Reliable.retransmissions
    r.transport.Reliable.acks r.transport.Reliable.dup_dropped
    r.transport.Reliable.reordered r.transport.Reliable.gave_up;
  line "rpc timeouts:      %d (stale replies %d)@." s.rpc_timeouts s.stale_replies;
  line "counters:          %a@." Node_stats.pp_cluster s;
  if r.online_checked then begin
    match r.online_violation with
    | None -> line "online check:      clean@."
    | Some reason -> line "online check:      VIOLATION — %s@." reason
  end;
  if r.crashes > 0 then line "crashes injected:  %d@." r.crashes;
  if s.suspects > 0 || s.unsuspects > 0 || s.takeovers > 0 then
    line "failover:          %d suspects, %d unsuspects, %d takeovers@." s.suspects
      s.unsuspects s.takeovers;
  List.iter
    (fun (base, epoch, serving) ->
      line "view:              base %d served by %d under epoch %d@." base serving epoch)
    r.view;
  (match r.unfinished with
  | [] -> line "unfinished procs:  none@."
  | stuck ->
      line "unfinished procs:  %d@." (List.length stuck);
      List.iter
        (fun (name, since) -> line "  %s (blocked since t=%.1f)@." name since)
        stuck);
  List.iter (fun (k, v) -> line "%-18s %s@." (k ^ ":") v) r.notes;
  line "health:            %s (gave_up %d, suspects %d, unsuspects %d)@."
    (if healthy r then "OK" else "UNHEALTHY")
    r.transport.Reliable.gave_up s.suspects s.unsuspects
