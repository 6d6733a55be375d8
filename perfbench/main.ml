(* End-to-end benchmark of the shipped Cluster stack.

   Three closed-loop workloads drive [Cluster] over [Proc] effects, the
   Figure-4 protocol, [Network], and -- when configured -- [Reliable], the
   WAL and the online checker, through public functions only.  A run
   repeats one seeded round (set-up, then drain) until its time budget is
   spent, and reports medians over the rounds.  End-to-end metrics come
   from untraced rounds.  With [--trace 1] every untraced round is followed
   by the same round stepped one engine event at a time over a
   non-recording [Trace] bus; each step is labelled by the layer it served,
   which yields the per-layer metrics.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
          main.exe --smoke     (tiny sizes, every workload, both modes)

   The last line of standard output is one JSON object
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}; the
   exit code is 1 when any output check failed. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Cluster = Dsm_causal.Cluster
module Trace = Dsm_causal.Trace
module Node_stats = Dsm_causal.Node_stats
module Wal = Dsm_causal.Wal
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable
module Latency = Dsm_net.Latency
module Online = Dsm_checker.Online
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Op = Dsm_memory.Op
module History = Dsm_memory.History
module Owner = Dsm_memory.Owner
module Prng = Dsm_util.Prng
module Stats = Dsm_util.Stats
module Solver = Dsm_apps.Solver
module Linalg = Dsm_apps.Linalg

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let median l = Stats.percentile (Array.of_list l) 50.0

(* Growable float buffer for latency and span samples. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* 0 for an empty buffer: a layer that did no work. *)
  let percentile b p = if b.n = 0 then 0.0 else Stats.percentile (Array.sub b.a 0 b.n) p
end

(* {1 Workloads} *)

type workload = Mix_256 | Solver_64 | Lossy_checked_64

let workloads =
  [ ("mix-256", Mix_256); ("solver-64", Solver_64); ("lossy-checked-64", Lossy_checked_64) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* [nodes] clients (solver: workers) and ops per client (solver:
   iterations). *)
type size = { nodes : int; per_client : int }

let full_size = function
  | Mix_256 -> { nodes = 256; per_client = 400 }
  | Solver_64 -> { nodes = 64; per_client = 20 }
  | Lossy_checked_64 -> { nodes = 64; per_client = 1500 }

let smoke_size = function
  | Mix_256 -> { nodes = 16; per_client = 20 }
  | Solver_64 -> { nodes = 8; per_client = 3 }
  | Lossy_checked_64 -> { nodes = 8; per_client = 40 }

let think_mean = 1.5
let refresh_ratio = 0.2
let solver_poll_interval = 2.0
let online_window = 64
let checkpoint_every = 20.0
let lossy_rpc = { Cluster.timeout = 100.0; retries = 6 }

(* {1 Application accounting}

   Filled from inside the simulated processes.  [app_ran] is raised
   whenever application code runs; the traced run uses it to tell a process
   resumption from a transport timer. *)

type acct = {
  mutable completed : int;
  mutable failed : int;  (** ops that raised [Timed_out] *)
  mutable reads : int;
  mutable bad_reads : int;
  lat : Buf.t;  (** simulated latency of every op that blocked *)
  mutable app_ran : bool;
}

let new_acct () =
  { completed = 0; failed = 0; reads = 0; bad_reads = 0; lat = Buf.create (); app_ran = false }

let timed_op acct engine f =
  acct.app_ran <- true;
  let t0 = Engine.now engine in
  let r = f () in
  let dt = Engine.now engine -. t0 in
  if dt > 0.0 then Buf.push acct.lat dt;
  acct.app_ran <- true;
  r

(* The solver functor reaches the round's accounting through these: rounds
   run one at a time and each set-up installs its own. *)
let cur_acct = ref (new_acct ())
let cur_engine = ref (Engine.create ())

(* [Cluster.Mem] with every read and write counted and timed. *)
module Timed_mem = struct
  type handle = Cluster.handle

  let pid = Cluster.Mem.pid
  let processes = Cluster.Mem.processes

  let read h l =
    let a = !cur_acct in
    let v = timed_op a !cur_engine (fun () -> Cluster.Mem.read h l) in
    a.reads <- a.reads + 1;
    a.completed <- a.completed + 1;
    v

  let write h l v =
    let a = !cur_acct in
    timed_op a !cur_engine (fun () -> Cluster.Mem.write h l v);
    a.completed <- a.completed + 1

  let yield h =
    Cluster.Mem.yield h;
    !cur_acct.app_ran <- true

  let refresh = Cluster.Mem.refresh
end

module Timed_solver = Solver.Make (Timed_mem)
module Plain_solver = Solver.Make (Cluster.Mem)

(* {2 Generated inputs of the register workloads}

   Client [pid]'s [k]-th op targets location [locs.(k)]; [vals.(k) > 0]
   makes it a write of that globally unique value, [0] a read (preceded by
   a refresh when [refresh.(k)]).  [wloc.(v)] is the location value [v] is
   written to, so checking a read is one array lookup. *)

type script = { locs : int array; vals : int array; refresh : bool array; think : float array }

let generate ~seed ~clients ~per_client ~write_ratio =
  let master = Prng.create seed in
  let wloc = Array.make ((clients * per_client) + 1) (-1) in
  let next = ref 0 in
  let scripts =
    Array.init clients (fun _ ->
        let prng = Prng.split master in
        let locs = Array.make per_client 0
        and vals = Array.make per_client 0
        and refresh = Array.make per_client false
        and think = Array.make per_client 0.0 in
        for k = 0 to per_client - 1 do
          think.(k) <- Prng.exponential prng ~mean:think_mean;
          locs.(k) <- Prng.int prng clients;
          if Prng.chance prng write_ratio then begin
            incr next;
            vals.(k) <- !next;
            wloc.(!next) <- locs.(k)
          end
          else refresh.(k) <- Prng.chance prng refresh_ratio
        done;
        { locs; vals; refresh; think })
  in
  (scripts, wloc)

let register_client acct engine h ~loc_of ~wloc sc () =
  acct.app_ran <- true;
  for k = 0 to Array.length sc.locs - 1 do
    Proc.sleep sc.think.(k);
    let li = sc.locs.(k) and v = sc.vals.(k) in
    let loc = loc_of.(li) in
    let ok =
      timed_op acct engine (fun () ->
          if v > 0 then Result.is_ok (Cluster.write_result h loc (Value.Int v))
          else begin
            if sc.refresh.(k) then Cluster.Mem.refresh h loc;
            acct.reads <- acct.reads + 1;
            match Cluster.read_result h loc with
            | Ok (Value.Int r) when r = 0 || (r > 0 && r < Array.length wloc && wloc.(r) = li) ->
                true
            | Ok _ ->
                acct.bad_reads <- acct.bad_reads + 1;
                true
            | Error _ -> false
          end)
    in
    if ok then acct.completed <- acct.completed + 1 else acct.failed <- acct.failed + 1
  done

(* {1 One round} *)

type inst = {
  engine : Engine.t;
  sched : Proc.sched;
  cluster : Cluster.t;
  bus : Trace.t option;
  online : Online.t option;
  acct : acct;
  scripted : int option;  (** ops the inputs hold; [None] for the solver *)
  mutable violations : int;
  extra_check : unit -> string list;  (** workload-specific, after the drain *)
}

let setup_register ~workload ~size ~seed ~traced =
  let nodes = size.nodes in
  let write_ratio = if workload = Mix_256 then 0.4 else 0.5 in
  let scripts, wloc =
    generate ~seed:(Int64.of_int seed) ~clients:nodes ~per_client:size.per_client ~write_ratio
  in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let lossy = workload = Lossy_checked_64 in
  let bus = if lossy || traced then Some (Trace.create ~record:false ()) else None in
  let owner = Owner.by_index ~nodes and seed = Int64.of_int seed in
  let cluster =
    if lossy then
      Cluster.create ~sched ~owner ~latency:Latency.lan
        ~fault:(Network.fault ~drop:0.05 ~duplicate:0.01 ())
        ~reliability:Reliable.batching_config ~rpc:lossy_rpc ~checkpoint_every ?trace:bus ~seed
        ()
    else Cluster.create ~sched ~owner ~latency:Latency.lan ?trace:bus ~seed ()
  in
  let acct = new_acct () in
  let loc_of = Array.init nodes (Loc.indexed "v") in
  Array.iteri
    (fun pid sc ->
      ignore
        (Proc.spawn sched ~name:(Printf.sprintf "client%d" pid)
           (register_client acct engine (Cluster.handle cluster pid) ~loc_of ~wloc sc)))
    scripts;
  {
    engine;
    sched;
    cluster;
    bus;
    online = (if lossy then Some (Online.create ~window:online_window ()) else None);
    acct;
    scripted = Some (nodes * size.per_client);
    violations = 0;
    extra_check = (fun () -> []);
  }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let setup_solver ~size ~seed ~traced =
  let workers = size.nodes and iters = size.per_client in
  let problem = Linalg.random_diagonally_dominant (Prng.create (Int64.of_int seed)) ~n:workers in
  let engine = Engine.create () in
  let sched = Proc.scheduler ~poll_interval:solver_poll_interval engine in
  let bus = if traced then Some (Trace.create ~record:false ()) else None in
  let cluster =
    Cluster.create ~sched ~owner:(Solver.owner_map ~workers) ~latency:Latency.lan ?trace:bus
      ~seed:(Int64.of_int seed) ()
  in
  let acct = new_acct () in
  cur_acct := acct;
  cur_engine := engine;
  let spawn name body =
    ignore
      (Proc.spawn sched ~name (fun () ->
           acct.app_ran <- true;
           body ()))
  in
  spawn "coordinator" (fun () ->
      Timed_solver.coordinator (Cluster.handle cluster workers) ~workers ~iters);
  for i = 0 to workers - 1 do
    spawn (Printf.sprintf "worker%d" i) (fun () ->
        Timed_solver.worker (Cluster.handle cluster i) problem ~me:i ~iters)
  done;
  (* Read the result back through the memory after the drain (untimed) and
     compare it bit for bit with sequential Jacobi. *)
  let extra_check () =
    let solution = ref [||] in
    ignore
      (Proc.spawn sched ~name:"collect" (fun () ->
           solution := Plain_solver.read_solution (Cluster.handle cluster workers) ~n:workers));
    Engine.run engine;
    if bits_equal !solution (Linalg.jacobi problem ~iters) then []
    else [ "solver solution is not bit-identical to sequential Jacobi" ]
  in
  { engine; sched; cluster; bus; online = None; acct; scripted = None; violations = 0; extra_check }

let setup workload ~size ~seed ~traced =
  match workload with
  | Solver_64 -> setup_solver ~size ~seed ~traced
  | Mix_256 | Lossy_checked_64 -> setup_register ~workload ~size ~seed ~traced

(* {1 Traced stepping}

   Each engine step is labelled by the first [Deliver] it publishes (the
   message kind it served); failing that [wal.checkpoint] when it published
   [Checkpoint_taken], [proc.resume] when application code ran,
   [reliable.timer] when it sent a frame anyway (retransmission, delayed
   ack, RPC retry), else [engine.other].  [Online.add_op] is a child span,
   subtracted from its step's self time. *)

let labels =
  [|
    "protocol.READ";
    "protocol.R_REPLY";
    "protocol.WRITE";
    "protocol.W_REPLY";
    "reliable.ACK";
    "reliable.BATCH";
    "deliver.other";
    "reliable.timer";
    "wal.checkpoint";
    "proc.resume";
    "engine.other";
  |]

let l_deliver_other = 6
let l_timer = 7
let l_checkpoint = 8
let l_resume = 9
let l_other = 10

let label_of_kind = function
  | "READ" -> 0
  | "R_REPLY" -> 1
  | "WRITE" -> 2
  | "W_REPLY" -> 3
  | "ACK" -> 4
  | "BATCH" -> 5
  | _ -> l_deliver_other

(* Spans summed over every traced round of a run. *)
type spans = {
  self_ns : int array;
  samples : Buf.t array;  (** per-step self time, per label *)
  add_op : Buf.t;  (** per-call [Online.add_op] time *)
  mutable add_op_ns : int;
  mutable setup_ns : int;
  mutable wall_ns : int;
  mutable pending_max : int;
  mutable wal_live_max : int;
  mutable online_pending_max : int;
  mutable online_live_max : int;
  mutable trace_events : int;
  mutable traced_ops : int;
}

(* Share of traced wall time covered by set-up, step and checker spans. *)
let span_coverage sp =
  float_of_int (sp.setup_ns + sp.add_op_ns + Array.fold_left ( + ) 0 sp.self_ns)
  /. float_of_int sp.wall_ns

let new_spans () =
  {
    self_ns = Array.make (Array.length labels) 0;
    samples = Array.init (Array.length labels) (fun _ -> Buf.create ());
    add_op = Buf.create ();
    add_op_ns = 0;
    setup_ns = 0;
    wall_ns = 0;
    pending_max = 0;
    wal_live_max = 0;
    online_pending_max = 0;
    online_live_max = 0;
    trace_events = 0;
    traced_ops = 0;
  }

type step = { mutable deliver : int; mutable cp : bool; mutable send : bool; mutable child : int }

(* Feed the bus's application events to the incremental checker in
   per-process program order, as the cluster completes them. *)
let online_op ~nodes =
  let next = Array.make nodes 0 in
  let index pid =
    let i = next.(pid) in
    next.(pid) <- i + 1;
    i
  in
  fun (ev : Trace.event) ->
    match ev.Trace.body with
    | Trace.Op_read { node; loc; value; from } ->
        Some (Op.read ~pid:node ~index:(index node) ~loc ~value ~from)
    | Trace.Op_write { node; loc; value; wid } ->
        Some (Op.write ~pid:node ~index:(index node) ~loc ~value ~wid)
    | _ -> None

(* Subscribe the checker (and, when traced, the step labeller) to the bus. *)
let attach inst ~nodes ~trace =
  let to_op = online_op ~nodes in
  let check ck op = inst.violations <- inst.violations + List.length (Online.add_op ck op) in
  match (inst.bus, trace) with
  | None, _ -> ()
  | Some bus, None ->
      Option.iter
        (fun ck -> Trace.subscribe bus (fun ev -> Option.iter (check ck) (to_op ev)))
        inst.online
  | Some bus, Some (st, sp) ->
      Trace.subscribe bus (fun ev ->
          match ev.Trace.body with
          | Trace.Deliver { kind; _ } -> if st.deliver < 0 then st.deliver <- label_of_kind kind
          | Trace.Checkpoint_taken _ -> st.cp <- true
          | Trace.Send _ -> st.send <- true
          | _ -> (
              match (inst.online, to_op ev) with
              | Some ck, Some op ->
                  let t0 = now_ns () in
                  check ck op;
                  let dt = now_ns () - t0 in
                  st.child <- st.child + dt;
                  sp.add_op_ns <- sp.add_op_ns + dt;
                  Buf.push sp.add_op (float_of_int dt);
                  sp.online_pending_max <- max sp.online_pending_max (Online.pending_reads ck);
                  sp.online_live_max <- max sp.online_live_max (Online.live_ops ck)
              | _ -> ()))

let sum_wals c f =
  let s = ref 0 in
  for i = 0 to Cluster.processes c - 1 do
    s := !s + f (Cluster.wal c i)
  done;
  !s

(* Walking every log is a cache-cold list traversal, so the live-record
   count is sampled every 8192 steps (and once at the end). *)
let wal_sample_mask = 8191

let wal_live c = sum_wals c Wal.length

let traced_drain inst st sp ~checkpointing =
  let e = inst.engine and a = inst.acct in
  (* Timer-driven checkpoints publish nothing on the bus; a silent step that
     raised the cluster's snapshot count took one.  The timers fire at
     multiples of the period, so only steps at those instants pay for
     walking every node's counter. *)
  let cps = ref 0 in
  let took_checkpoint () =
    checkpointing
    && Float.rem (Engine.now e) checkpoint_every = 0.0
    &&
    let n = sum_wals inst.cluster Wal.checkpoints in
    let took = n > !cps in
    cps := n;
    took
  in
  let steps = ref 0 in
  let continue = ref true in
  while !continue do
    st.deliver <- -1;
    st.cp <- false;
    st.send <- false;
    st.child <- 0;
    a.app_ran <- false;
    let t0 = now_ns () in
    continue := Engine.step e;
    let self = now_ns () - t0 - st.child in
    if !continue then begin
      let l =
        if st.deliver >= 0 then st.deliver
        else if st.cp then l_checkpoint
        else if a.app_ran then l_resume
        else if st.send then l_timer
        else if took_checkpoint () then l_checkpoint
        else l_other
      in
      sp.self_ns.(l) <- sp.self_ns.(l) + self;
      Buf.push sp.samples.(l) (float_of_int self);
      let p = Engine.pending e in
      if p > sp.pending_max then sp.pending_max <- p;
      incr steps;
      if !steps land wal_sample_mask = 0 then
        sp.wal_live_max <- max sp.wal_live_max (wal_live inst.cluster)
    end
  done;
  sp.wal_live_max <- max sp.wal_live_max (wal_live inst.cluster)

(* {1 Running rounds} *)

(* The process's major-heap high-water mark, read right after its first
   round: later rounds would see a heap shaped by earlier ones. *)
let first_round_peak_mb = ref 0.0

let note_peak () =
  if !first_round_peak_mb = 0.0 then
    first_round_peak_mb :=
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* What one round measured.  Everything except the three host timings is a
   function of the seed. *)
type round = {
  setup_s : float list;  (** this round's set-up and the extra set-up samples *)
  drain_s : float;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  ops : int;
  attempted : int;
  failed : int;
  reads : int;
  lat_n : int;
  p50 : float;
  p99 : float;
  logical : int;
  frames : int;
  bytes : int;
  sends : int;
  events : int;
  sim_time : float;
  stats : Node_stats.t;
  rel : Reliable.counters option;
  rpc_timeouts : int;
  stale_replies : int;
  wal_appends : int;
  history_ops : int;
  online : (int * int * int) option;  (** dropped reads, pending reads, edges *)
  failures : string list;
}

let digest r =
  ( (r.ops, r.failed, r.lat_n, r.logical, r.frames, r.bytes),
    (r.events, Int64.bits_of_float r.sim_time, Int64.bits_of_float r.p50,
     Int64.bits_of_float r.p99) )

(* Set-up samples per round, the round's own included: set-up takes
   milliseconds, so its median needs many samples spread over the run. *)
let setups_per_round = 8

let time_setup workload ~size ~seed =
  Gc.compact ();
  let t = now_ns () in
  ignore (setup workload ~size ~seed ~traced:false);
  float_of_int (now_ns () - t) /. 1e9

let run_round workload ~size ~seed ~trace =
  let extra_setups =
    if trace <> None then []
    else List.init (setups_per_round - 1) (fun _ -> time_setup workload ~size ~seed)
  in
  Gc.compact ();
  let t0 = now_ns () in
  let inst = setup workload ~size ~seed ~traced:(trace <> None) in
  attach inst ~nodes:(Cluster.processes inst.cluster) ~trace;
  let t1 = now_ns () in
  let minor0, promoted0, _ = Gc.counters () and majors0 = (Gc.quick_stat ()).Gc.major_collections in
  (match trace with
  | None -> Engine.run inst.engine
  | Some (st, sp) -> traced_drain inst st sp ~checkpointing:(workload = Lossy_checked_64));
  let minor1, promoted1, _ = Gc.counters () and majors1 = (Gc.quick_stat ()).Gc.major_collections in
  let t2 = now_ns () in
  note_peak ();
  Cluster.shutdown inst.cluster;
  let c = inst.cluster and a = inst.acct in
  let wire = Cluster.wire_counters c in
  let attempted = match inst.scripted with Some n -> n | None -> a.completed + a.failed in
  let unfinished = Proc.unfinished inst.sched in
  let failures =
    List.concat
      [
        (if a.bad_reads > 0 then
           [
             Printf.sprintf "%d reads returned a value never written to their location"
               a.bad_reads;
           ]
         else []);
        (if unfinished <> [] then
           [ Printf.sprintf "%d processes left unfinished" (List.length unfinished) ]
         else []);
        (match Proc.failures inst.sched with
        | [] -> []
        | (name, e) :: _ -> [ Printf.sprintf "process %s raised %s" name (Printexc.to_string e) ]);
        (if inst.violations > 0 then
           [ Printf.sprintf "%d online causality violations" inst.violations ]
         else []);
      ]
  in
  let r =
    {
      setup_s = (float_of_int (t1 - t0) /. 1e9) :: extra_setups;
      drain_s = float_of_int (t2 - t1) /. 1e9;
      wall_s = float_of_int (t2 - t0) /. 1e9;
      minor_words = minor1 -. minor0;
      promoted_words = promoted1 -. promoted0;
      major_collections = majors1 - majors0;
      ops = a.completed;
      attempted;
      failed = attempted - a.completed;
      reads = a.reads;
      lat_n = a.lat.Buf.n;
      p50 = Buf.percentile a.lat 50.0;
      p99 = Buf.percentile a.lat 99.0;
      logical = Cluster.logical_messages c;
      frames = Cluster.physical_frames c;
      bytes = wire.Network.bytes;
      sends = wire.Network.total;
      events = Engine.events_processed inst.engine;
      sim_time = Engine.now inst.engine;
      stats = Cluster.total_stats c;
      rel = Option.map Reliable.counters (Cluster.reliable c);
      rpc_timeouts = Cluster.rpc_timeouts c;
      stale_replies = Cluster.stale_replies c;
      wal_appends = sum_wals c Wal.appends;
      history_ops = History.op_count (Cluster.history c);
      online =
        Option.map
          (fun ck -> (Online.dropped_reads ck, Online.pending_reads ck, Online.edges ck))
          inst.online;
      failures = [];
    }
  in
  (match trace with
  | Some (_, sp) ->
      sp.setup_ns <- sp.setup_ns + (t1 - t0);
      sp.wall_ns <- sp.wall_ns + (t2 - t0);
      sp.trace_events <- sp.trace_events + Option.fold ~none:0 ~some:Trace.count inst.bus;
      sp.traced_ops <- sp.traced_ops + a.completed
  | None -> ());
  { r with failures = failures @ inst.extra_check () }

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let solver_lines workload size (r : round) drain_s =
  match workload with
  | Solver_64 ->
      let iters = size.per_client in
      [
        Printf.sprintf "iters_per_s %.6g 1/s" (float_of_int iters /. drain_s);
        Printf.sprintf "iter_simt %.6g simt" (r.sim_time /. float_of_int iters);
        Printf.sprintf "msgs_per_worker_iter %.6g msg (2n+6 = %d)"
          (per r.logical (size.nodes * iters))
          ((2 * size.nodes) + 6);
      ]
  | Mix_256 | Lossy_checked_64 -> []

let coverage (r : round) =
  match r.online with
  | Some (dropped, pending, _) -> per (r.reads - dropped - pending) r.reads
  | None -> 0.0

let ops_per_s rounds = median (List.map (fun r -> float_of_int r.ops /. r.drain_s) rounds)

let end_to_end workload size (rounds : round list) =
  let r = List.hd rounds in
  let metrics =
    [
      m "op_p50_simt" "simt" r.p50;
      m "op_p99_simt" "simt" r.p99;
      m "msgs_per_op" "msg/op" (per r.logical r.ops);
      m "frames_per_op" "frame/op" (per r.frames r.ops);
      m "wire_bytes_per_op" "B/op" (per r.bytes r.ops);
      m "peak_heap_mb" "MB" !first_round_peak_mb;
      m "setup_s" "s" (median (List.concat_map (fun r -> r.setup_s) rounds));
    ]
  in
  let info =
    List.mapi
      (fun i r ->
        Printf.sprintf "round %d: setup %.4f s, drain %.3f s, %.0f ops/s" i (List.hd r.setup_s)
          r.drain_s
          (float_of_int r.ops /. r.drain_s))
      rounds
    @ [
      Printf.sprintf "ops_per_s %.6g 1/s (host wall time, median of rounds)" (ops_per_s rounds);
      Printf.sprintf "ops/round %d, engine events/round %d, blocking-op latency samples %d" r.ops
        r.events r.lat_n;
      Printf.sprintf "failed_op_share %.6g" (per r.failed r.attempted);
    ]
    @ (if r.online <> None then [ Printf.sprintf "checker_coverage %.6g" (coverage r) ] else [])
    @ solver_lines workload size r (median (List.map (fun r -> r.drain_s) rounds))
  in
  (metrics, info)

let per_layer workload size (untraced : round list) (traced : round list) sp =
  let r = List.hd untraced in
  let wall = float_of_int sp.wall_ns in
  let share ns = float_of_int ns /. wall in
  let spans =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i l ->
              [
                m (l ^ ".self_share") "share" (share sp.self_ns.(i));
                m (l ^ ".ns_p50") "ns" (Buf.percentile sp.samples.(i) 50.0);
              ])
            labels))
  in
  let ops = r.ops in
  let rel f = match r.rel with Some c -> f c | None -> 0 in
  let dropped, _, edges = Option.value r.online ~default:(0, 0, 0) in
  let overhead =
    median (List.map2 (fun (t : round) (u : round) -> t.wall_s /. u.wall_s) traced untraced)
  in
  let iters = float_of_int size.per_client in
  let is_solver = workload = Solver_64 in
  let st = r.stats in
  spans
  @ [
      m "host.ops_per_s" "1/s" (ops_per_s untraced);
      m "online.add_op.self_share" "share" (share sp.add_op_ns);
      m "online.add_op.ns_p50" "ns" (Buf.percentile sp.add_op 50.0);
      m "online.add_op.ns_p99" "ns" (Buf.percentile sp.add_op 99.0);
      m "setup.self_share" "share" (share sp.setup_ns);
      m "trace.span_coverage" "share" (span_coverage sp);
      m "trace.overhead_ratio" "ratio" overhead;
      m "trace.events_per_op" "event/op" (per sp.trace_events sp.traced_ops);
      m "gc.minor_words_per_op" "word/op" (r.minor_words /. float_of_int ops);
      m "gc.promoted_words_per_op" "word/op" (r.promoted_words /. float_of_int ops);
      m "gc.major_collections" "count" (float_of_int r.major_collections);
      m "node.read_hit_ratio" "share" (per st.Node_stats.read_hits (st.read_hits + st.read_misses));
      m "node.invalidations_per_op" "1/op" (per st.invalidations ops);
      m "node.redundant_fetch_ratio" "share" (per st.redundant_fetches st.read_misses);
      m "network.sends_per_op" "frame/op" (per r.sends ops);
      m "network.bytes_per_send" "B" (per r.bytes r.sends);
      m "reliable.retransmissions_per_op" "1/op"
        (per (rel (fun c -> c.Reliable.retransmissions)) ops);
      m "reliable.acks_per_op" "1/op" (per (rel (fun c -> c.Reliable.acks)) ops);
      m "reliable.dup_dropped_per_op" "1/op" (per (rel (fun c -> c.Reliable.dup_dropped)) ops);
      m "reliable.useful_frame_ratio" "share"
        (if r.rel = None then 0.0 else per (rel (fun c -> c.Reliable.payloads)) r.frames);
      m "reliable.gave_up" "count" (float_of_int (rel (fun c -> c.Reliable.gave_up)));
      m "cluster.rpc_timeouts_per_op" "1/op" (per r.rpc_timeouts ops);
      m "cluster.stale_replies" "count" (float_of_int r.stale_replies);
      m "cluster.failed_op_share" "share" (per r.failed r.attempted);
      m "wal.appends_per_op" "1/op" (per r.wal_appends ops);
      m "wal.live_records_max" "count" (float_of_int sp.wal_live_max);
      m "history.ops_retained" "count" (float_of_int r.history_ops);
      m "online.checker_coverage" "share" (coverage r);
      m "online.dropped_reads" "count" (float_of_int dropped);
      m "online.pending_reads_max" "count" (float_of_int sp.online_pending_max);
      m "online.live_ops_max" "count" (float_of_int sp.online_live_max);
      m "online.edges_per_op" "1/op" (per edges ops);
      m "engine.events_per_op" "event/op" (per r.events ops);
      m "engine.pending_max" "count" (float_of_int sp.pending_max);
      m "solver.iters_per_s" "1/s"
        (if is_solver then median (List.map (fun r -> iters /. r.drain_s) untraced) else 0.0);
      m "solver.iter_simt" "simt" (if is_solver then r.sim_time /. iters else 0.0);
      m "solver.msgs_per_worker_iter" "msg"
        (if is_solver then float_of_int r.logical /. (float_of_int size.nodes *. iters) else 0.0);
    ]

(* {1 Output} *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value)
          mt.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* Runs rounds until [seconds] have passed (at least one), checks them, and
   returns the verdict, the totals and the metrics. *)
let run workload ~size ~seed ~seconds ~trace =
  let t0 = now_ns () in
  let elapsed () = float_of_int (now_ns () - t0) /. 1e9 in
  let sp = new_spans () in
  let step = { deliver = -1; cp = false; send = false; child = 0 } in
  (* Another round (or traced pair) starts only if one as long as the last
     still fits in the budget. *)
  let rec loop untraced traced =
    let start = elapsed () in
    let u = run_round workload ~size ~seed ~trace:None in
    let t = if trace then [ run_round workload ~size ~seed ~trace:(Some (step, sp)) ] else [] in
    let untraced = u :: untraced and traced = t @ traced in
    let now = elapsed () in
    if now +. (now -. start) <= seconds then loop untraced traced
    else (List.rev untraced, List.rev traced)
  in
  let untraced, traced = loop [] [] in
  let all = untraced @ traced in
  let first = List.hd untraced in
  let failures =
    List.concat_map (fun r -> r.failures) all
    @ (if List.for_all (fun r -> digest r = digest first) all then []
       else [ "rounds of one seed disagree on a deterministic count" ])
    @
    if trace then
      let cov = span_coverage sp in
      if cov >= 0.9 then []
      else [ Printf.sprintf "labelled spans cover only %.1f%% of traced wall time" (100. *. cov) ]
    else []
  in
  let metrics, info =
    if trace then (per_layer workload size untraced traced sp, [])
    else end_to_end workload size untraced
  in
  let attempted = List.fold_left (fun s r -> s + r.attempted) 0 all
  and failed = List.fold_left (fun s r -> s + r.failed) 0 all in
  (failures, attempted, failed, metrics, info)

let report workload (failures, attempted, failed, metrics, info) =
  Printf.printf "# workload %s\n" (workload_name workload);
  List.iter (Printf.printf "# %s\n") info;
  List.iter (fun mt -> Printf.printf "%s %s %s\n" mt.name (json_number mt.value) mt.unit_) metrics;
  List.iter (Printf.printf "CHECK FAILED: %s\n") failures;
  (failures = [], attempted, failed, metrics)

(* The smoke run stays silent unless a check fails. *)
let smoke () =
  List.for_all
    (fun (name, w) ->
      List.for_all
        (fun trace ->
          let failures, _, _, _, _ = run w ~size:(smoke_size w) ~seed:7 ~seconds:0.0 ~trace in
          List.iter (Printf.printf "smoke %s (trace %b): CHECK FAILED: %s\n" name trace) failures;
          failures = [])
        [ false; true ])
    workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload (mix-256|solver-64|lossy-checked-64) --seed N --seconds S --trace \
     (0|1)\n       main.exe --smoke";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--smoke" ] -> if not (smoke ()) then exit 1
  | _ ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      let workload =
        match List.assoc_opt (get "workload") workloads with Some w -> w | None -> usage ()
      in
      let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let seed = int_arg "seed" and seconds = int_arg "seconds" in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      let correct, attempted, failed, metrics =
        report workload
          (run workload ~size:(full_size workload) ~seed ~seconds:(float_of_int seconds) ~trace)
      in
      print_result ~correct ~attempted ~failed metrics;
      if not correct then exit 1
