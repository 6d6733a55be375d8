module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Causal = Dsm_causal.Cluster
module Atomic = Dsm_atomic.Cluster

module Solver_on_causal = Solver.Make (Causal.Mem)
module Solver_on_atomic = Solver.Make (Atomic.Mem)

type solver_result = {
  workers : int;
  iters : int;
  solution : float array;
  reference : float array;
  max_diff : float;
  residual : float;
  messages_total : int;
  bytes_total : int;
  by_kind : (string * int) list;
  history_correct : bool;
  sim_time : float;
}

(* Create engine and scheduler, let [build] create the memory and return
   the processes, spawn them, run to quiescence and re-raise failures. *)
let run_procs ?(poll_interval = 2.0) build =
  let engine = Engine.create () in
  let sched = Proc.scheduler ~poll_interval engine in
  let procs = build sched in
  List.iter (fun (name, body) -> ignore (Proc.spawn sched ~name body)) procs;
  Engine.run engine;
  Proc.check sched;
  (engine, sched)

(* Run one extra process after quiescence (e.g. to read results back through
   the memory API, which must happen inside a process). *)
let run_one sched engine name body =
  ignore (Proc.spawn sched ~name body);
  Engine.run engine;
  Proc.check sched

(* Checking a recorded history is quadratic: histories beyond this size are
   assumed correct. *)
let history_check_cutoff = 6_000

let check_history history =
  Dsm_memory.History.op_count history > history_check_cutoff
  || Dsm_checker.Causal_check.is_correct history

let problem_for ~seed ~n =
  Linalg.random_diagonally_dominant (Dsm_util.Prng.create seed) ~n

(* One Figure-6 run.  [build sched problem] creates the memory and returns
   its network, its history, the read-back of the solution (run in a
   process after quiescence) and the processes to spawn. *)
let run_solver ?poll_interval ~seed ~n ~workers ~iters build =
  let problem = problem_for ~seed ~n in
  let memory = ref None in
  let engine, sched =
    run_procs ?poll_interval (fun sched ->
        let net, history, read_solution, procs = build sched problem in
        memory := Some (net, history, read_solution);
        procs)
  in
  let net, history, read_solution = Option.get !memory in
  let messages_total = Network.lifetime_total net in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () -> solution := read_solution ());
  let reference = Linalg.jacobi problem ~iters in
  let counters = Network.counters net in
  {
    workers;
    iters;
    solution = !solution;
    reference;
    max_diff = Linalg.max_diff !solution reference;
    residual = Linalg.residual problem !solution;
    messages_total;
    bytes_total = counters.Network.bytes;
    by_kind = counters.Network.by_kind;
    history_correct = check_history (history ());
    sim_time = Engine.now engine;
  }

(* The coordinator on node [workers], then the workers. *)
let with_coordinator ~workers ~coordinator worker =
  ("coordinator", coordinator)
  :: List.init workers (fun w -> (Printf.sprintf "worker%d" w, worker w))

let solver_causal ?(seed = 42L) ?latency ?poll_interval ~n ~iters () =
  run_solver ?poll_interval ~seed ~n ~workers:n ~iters (fun sched problem ->
      let c = Causal.create ~sched ~owner:(Solver.owner_map ~workers:n) ?latency ~seed () in
      let h = Causal.handle c in
      ( Causal.net c,
        (fun () -> Causal.history c),
        (fun () -> Solver_on_causal.read_solution (h n) ~n),
        with_coordinator ~workers:n
          ~coordinator:(fun () -> Solver_on_causal.coordinator (h n) ~workers:n ~iters)
          (fun i () -> Solver_on_causal.worker (h i) problem ~me:i ~iters) ))

let solver_atomic ?(seed = 42L) ?latency ?poll_interval ?(mode = `Counted) ~n ~iters () =
  run_solver ?poll_interval ~seed ~n ~workers:n ~iters (fun sched problem ->
      let c = Atomic.create ~sched ~owner:(Solver.owner_map ~workers:n) ~mode ?latency ~seed () in
      let h = Atomic.handle c in
      ( Atomic.net c,
        (fun () -> Atomic.history c),
        (fun () -> Solver_on_atomic.read_solution (h n) ~n),
        with_coordinator ~workers:n
          ~coordinator:(fun () -> Solver_on_atomic.coordinator (h n) ~workers:n ~iters)
          (fun i () -> Solver_on_atomic.worker (h i) problem ~me:i ~iters) ))

let solver_causal_blocks ?(seed = 42L) ?latency ?poll_interval ?config ~n ~workers ~iters () =
  if workers > n then invalid_arg "Harness.solver_causal_blocks: workers > n";
  run_solver ?poll_interval ~seed ~n ~workers ~iters (fun sched problem ->
      let owner = Solver.block_owner_map ~workers ~n in
      let c = Causal.create ~sched ~owner ?config ?latency ~seed () in
      let h = Causal.handle c in
      ( Causal.net c,
        (fun () -> Causal.history c),
        (fun () -> Solver_on_causal.read_solution (h workers) ~n),
        with_coordinator ~workers
          ~coordinator:(fun () -> Solver_on_causal.coordinator (h workers) ~workers ~iters)
          (fun w () -> Solver_on_causal.worker_block (h w) problem ~me:w ~workers ~iters) ))

module Barrier_on_causal = Solver_barrier.Make (Causal.Mem)

let solver_causal_barrier ?(seed = 42L) ?latency ?poll_interval ~n ~iters () =
  run_solver ?poll_interval ~seed ~n ~workers:n ~iters (fun sched problem ->
      let owner = Solver_barrier.owner_map ~workers:n in
      let c = Causal.create ~sched ~owner ?latency ~seed () in
      let h = Causal.handle c in
      ( Causal.net c,
        (fun () -> Causal.history c),
        (fun () -> Barrier_on_causal.read_solution (h 0) ~n),
        List.init n (fun i ->
            ( Printf.sprintf "worker%d" i,
              fun () -> Barrier_on_causal.worker (h i) problem ~me:i ~workers:n ~iters )) ))

let steady_rate ~run ~iters_lo ~iters_hi =
  if iters_hi <= iters_lo then invalid_arg "Harness.steady_rate: need iters_hi > iters_lo";
  let lo = run ~iters:iters_lo in
  let hi = run ~iters:iters_hi in
  float_of_int (hi.messages_total - lo.messages_total)
  /. float_of_int (iters_hi - iters_lo)
  /. float_of_int lo.workers

type async_result = {
  a_workers : int;
  a_sweeps : int;
  a_refresh_every : int;
  a_solution : float array;
  a_error : float;
  a_messages_total : int;
  a_history_correct : bool;
}

let solver_async ?(seed = 42L) ?latency ~n ~sweeps ~refresh_every () =
  let problem = problem_for ~seed ~n in
  let owner = Async_solver.owner_map ~workers:n in
  let cluster = ref None in
  let engine, sched =
    run_procs (fun sched ->
        let c = Causal.create ~sched ~owner ?latency ~seed () in
        cluster := Some c;
        List.init n (fun i ->
            ( Printf.sprintf "async%d" i,
              fun () ->
                Async_solver.worker (Causal.handle c i) problem ~me:i ~sweeps ~refresh_every )))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Causal.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Async_solver.read_solution (Causal.handle c 0) ~n);
  let exact = Linalg.solve_exact problem in
  {
    a_workers = n;
    a_sweeps = sweeps;
    a_refresh_every = refresh_every;
    a_solution = !solution;
    a_error = Linalg.max_diff !solution exact;
    a_messages_total = messages_total;
    a_history_correct = check_history (Causal.history c);
  }
