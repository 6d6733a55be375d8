(** Whole-cluster recovery benchmark: how much work a restart replays, and
    how long it takes, with and without checkpointing.

    Each grid cell runs a pure owner-write workload (every node writes its
    own locations once per unit of sim time) to quiescence, then
    power-cycles the whole cluster — crash every node, restart every node —
    many times, measuring the replayed-record count and the host CPU time
    (process time, [Sys.time]) spent in
    {!Dsm_causal.Cluster.restart_result}'s replay path.  Cells vary the
    per-node operation count and toggle periodic checkpointing at a fixed
    interval.

    The claim the artifact certifies: with a fixed checkpoint interval,
    recovery work is bounded by records-since-checkpoint and stays roughly
    flat as the total log grows, while the uncheckpointed replay grows
    linearly with it.  Replay counts are seed-deterministic; only the
    [seconds_per_recovery] figures are host CPU-time measurements.

    The [dsm bench recovery] subcommand wraps {!run} and writes {!to_json}
    to [BENCH_recovery.json]. *)

type case = {
  mode : string;  (** ["checkpointed"] or ["uncheckpointed"] *)
  interval : float option;  (** the [checkpoint_every] period, if any *)
  ops_per_node : int;
  ops_issued : int;  (** [nodes * ops_per_node] *)
  wal_records : int;  (** live log entries across all nodes at measurement *)
  wal_checkpoints : int;
  wal_truncated : int;  (** entries compaction dropped, lifetime *)
  recoveries : int;  (** node restarts performed ([nodes * cycles]) *)
  replayed_per_recovery : float;  (** records replayed per restart *)
  seconds_per_recovery : float;
      (** host CPU seconds (process time) per restart (measured) *)
  unfinished : int;  (** blocked processes — 0 on a healthy cell *)
}

type result = {
  nodes : int;
  cycles : int;  (** whole-cluster power cycles per cell *)
  quick : bool;
  cases : case list;
  replay_bounded : bool;
      (** worst-case checkpointed replay < worst-case uncheckpointed
          replay — the headline the CLI gates on *)
}

val default_interval : float
(** The checkpointed cells' [checkpoint_every] period (5.0). *)

val run : ?quick:bool -> ?seed:int64 -> unit -> result
(** Run the grid: per-node op counts 50–400 with 25 cycles per cell, or
    50–100 with 10 cycles under [~quick:true] (the CI soak uses quick). *)

val to_json : result -> string
(** Stable, hand-rolled JSON, newline-terminated (same style as
    {!Bench.to_json}). *)

val pp : Format.formatter -> result -> unit

val healthy : result -> bool
(** [replay_bounded] and no cell left a process blocked. *)
