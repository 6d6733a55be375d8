(** Partial-replication benchmark: an identical Zipfian, own-shard-skewed
    workload measured under full replication and under interest-based
    sharding (rings of eight) at 16, 32 and 64 nodes, compared on protocol
    messages per operation and metadata bytes per operation.

    The [dsm bench shard] subcommand wraps {!run} and writes {!to_json} to
    [BENCH_shard.json], the artifact the CI shard-soak job uploads.
    Everything is seed-deterministic. *)

type cell = {
  mode : string;  (** ["full"] or ["partial"] *)
  ops : int;
  logical_messages : int;
  wire_bytes : int;
  messages_per_op : float;
  bytes_per_op : float;
  causal_ok : bool;  (** {!Harness.check_history} verdict *)
  unfinished : int;  (** processes that raised or were left blocked *)
}

type size_result = {
  nodes : int;
  shards : int;  (** [nodes / 8] rings *)
  full : cell;
  partial : cell;
  message_reduction : float;  (** [1 - partial/full] on logical messages *)
  byte_reduction : float;  (** [1 - partial/full] on wire metadata bytes *)
}

type result = { quick : bool; seed : int64; sizes : size_result list }

val run : ?quick:bool -> ?seed:int64 -> unit -> result
(** Sizes 16/32/64 with 24 ops per client, or 16/64 with 8 per client
    under [~quick:true] (the CI shape). *)

val healthy : result -> bool
(** The acceptance gate: every cell causally correct with no stuck
    process, partial replication strictly fewer logical messages than full
    at every size, and at 64 nodes partial beats full on {e both}
    messages/op and bytes/op. *)

val to_json : result -> string
(** Stable, hand-rolled JSON, newline-terminated. *)

val pp : Format.formatter -> result -> unit
