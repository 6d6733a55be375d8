(** Turn-key experiment runs: build an engine, a scheduler, a memory, spawn
    the application processes, run to quiescence, and report results with
    message accounting.  Shared by the examples, the test suite and the
    bench harness so every consumer measures the same way.

    Steady-state message rates are obtained by differencing two fresh runs
    with different iteration counts (cold-start costs cancel), which is how
    the E-MSG table approximates the paper's per-iteration analysis. *)

type solver_result = {
  workers : int;
  iters : int;
  solution : float array;
  reference : float array;  (** sequential Jacobi, same iterate count *)
  max_diff : float;  (** solution vs reference (0 when bit-identical) *)
  residual : float;
  messages_total : int;
  bytes_total : int;  (** abstract wire bytes (values + vector clocks) *)
  by_kind : (string * int) list;
  history_correct : bool;  (** recorded execution passes the causal checker *)
  sim_time : float;
}

val solver_causal :
  ?seed:int64 ->
  ?latency:Dsm_net.Latency.t ->
  ?poll_interval:float ->
  n:int ->
  iters:int ->
  unit ->
  solver_result
(** Figure 6 on the causal DSM: [n] workers + coordinator. *)

val solver_atomic :
  ?seed:int64 ->
  ?latency:Dsm_net.Latency.t ->
  ?poll_interval:float ->
  ?mode:Dsm_atomic.Cluster.invalidation_mode ->
  n:int ->
  iters:int ->
  unit ->
  solver_result
(** Same workload on the write-invalidate atomic baseline. *)

val solver_causal_blocks :
  ?seed:int64 ->
  ?latency:Dsm_net.Latency.t ->
  ?poll_interval:float ->
  ?config:Dsm_causal.Config.t ->
  n:int ->
  workers:int ->
  iters:int ->
  unit ->
  solver_result
(** The block-distributed Figure 6 ("each process computes a set of
    elements"): [workers] workers own contiguous blocks of the [n]
    unknowns; [workers <= n]. *)

val solver_causal_barrier :
  ?seed:int64 ->
  ?latency:Dsm_net.Latency.t ->
  ?poll_interval:float ->
  n:int ->
  iters:int ->
  unit ->
  solver_result
(** The coordinator-free variant: event-count barriers instead of the
    Figure 6 coordinator handshake ({!Solver_barrier}); [n] workers, no
    extra node. *)

val check_history : Dsm_memory.History.t -> bool
(** {!Dsm_checker.Causal_check.is_correct}, except that a history of more
    than 6,000 operations is assumed correct: the check is quadratic.  The
    one cutoff every harness, chaos report and bench applies. *)

val steady_rate :
  run:(iters:int -> solver_result) -> iters_lo:int -> iters_hi:int -> float
(** Messages per worker per iteration in steady state:
    [(m_hi - m_lo) / (iters_hi - iters_lo) / n]. *)

type async_result = {
  a_workers : int;
  a_sweeps : int;
  a_refresh_every : int;
  a_solution : float array;
  a_error : float;  (** max-norm distance to the exact solution *)
  a_messages_total : int;
  a_history_correct : bool;
}

val solver_async :
  ?seed:int64 ->
  ?latency:Dsm_net.Latency.t ->
  n:int ->
  sweeps:int ->
  refresh_every:int ->
  unit ->
  async_result
