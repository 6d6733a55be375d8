(** Per-node protocol statistics, aggregated by the experiment harness. *)

type t = {
  mutable read_hits : int;  (** reads served from owned or cached copies *)
  mutable read_misses : int;  (** reads that required a READ round trip *)
  mutable writes_owned : int;  (** writes to locations this node owns *)
  mutable writes_remote : int;  (** writes certified via the owner *)
  mutable writes_rejected : int;  (** remote writes the owner's policy rejected *)
  mutable writes_certified : int;  (** WRITE requests this node certified as owner *)
  mutable invalidations : int;  (** cached entries invalidated by the causality rule *)
  mutable discards : int;  (** cached entries dropped by the discard policy *)
  mutable redundant_fetches : int;
      (** refetches that returned the very write that had been invalidated —
          a proxy for how over-approximate the coarse invalidation rule of
          Figure 4 is (experiment E-ABL-INV) *)
  mutable stale_drops : int;
      (** fetched entries not retained in the cache because the node's clock
          grew while the request was in flight — the guard that patches the
          stale-install race in Figure 4's literal pseudocode (see
          DESIGN.md, "Findings") *)
}

val create : unit -> t

val reset : t -> unit

val total : t list -> t
(** Component-wise sum (a fresh accumulator). *)

val pp : Format.formatter -> t -> unit

(** The whole cluster's counters in one record, assembled by
    [Cluster.cluster_stats]: the summed per-node protocol counters plus
    every cluster-level counter — transport faults and recovery, RPC
    timeouts and stale replies, crash-stop losses, the failover and
    partition machinery, and the write-ahead logs.  This record is the one
    place each deterministic cluster counter is defined; the only counter
    kept outside it is [Cluster.recovery_seconds], which is host time. *)
type cluster = {
  protocol : t;  (** sum of the per-node counters above *)
  logical_messages : int;
      (** protocol payloads handed to the transport — the paper's
          accounting unit (the [2n+6] tables), invariant under frame
          batching and ack coalescing *)
  physical_frames : int;
      (** frames the wire actually carried: data/batch frames, explicit
          acks and retransmissions — what batching reduces.  Equals
          [logical_messages] on a direct (fault-free) transport. *)
  wire_dropped : int;  (** messages lost to down links / the fault model *)
  wire_duplicated : int;
  retransmissions : int;  (** reliable-layer re-sends (0 on direct) *)
  resyncs : int;  (** heal-time link resynchronisations (0 on direct) *)
  stale_replies : int;  (** replies to abandoned request tags *)
  rpc_timeouts : int;  (** individual RPC attempts that timed out *)
  dropped_at_crashed : int;  (** deliveries to crashed nodes *)
  redirects : int;  (** re-routes after epoch-fencing replies *)
  shadow_reads : int;  (** reads served from a backup's shadow copy *)
  shadow_degraded : int;  (** writes acknowledged without replication *)
  takeovers : int;  (** ownership promotions by backups *)
  suspects : int;  (** failure-detector suspicion transitions *)
  unsuspects : int;  (** recoveries from suspicion *)
  votes_granted : int;  (** [OWNER_VOTE] grants sent, cluster-wide *)
  degraded_refusals : int;
      (** remote writes silently refused by partition-degraded owners (the
          requester's RPC times out) *)
  partition_heals : int;
      (** times a degraded owner regained quorum contact and resumed
          serving writes *)
  wal_sync_failures : int;  (** injected log-sync faults that fired *)
  wal_records : int;  (** entries currently live across all logs *)
  wal_checkpoints : int;  (** snapshot records written (torn included) *)
  wal_torn_checkpoints : int;  (** checkpoint writes that tore *)
  wal_compactions : int;  (** compactions that dropped at least one entry *)
  wal_truncated : int;  (** entries dropped by compaction, lifetime *)
  recoveries : int;  (** node restarts that replayed a log *)
  replayed_records : int;  (** records replayed across all recoveries *)
  recovery_lines : int;  (** coordinated checkpoint rounds fully acked *)
}

val pp_cluster : Format.formatter -> cluster -> unit
(** One line: the protocol counters, then only the non-zero cluster-level
    fields (clean runs stay short). *)
