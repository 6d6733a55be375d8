(** Schedule and program generators shared by the property tests and the
    model checker.

    Two families live here: the seeded {e random} closed-loop event
    generator the pure-core property tests replay ({!random_run}), and the
    {e small-scope} litmus programs the bounded model checker enumerates
    exhaustively ({!presets}, {!generic}). *)

type op =
  | Read of Dsm_memory.Loc.t
  | Write of Dsm_memory.Loc.t * Dsm_memory.Value.t
  | Query of string
      (** object query: synchronously fold the payloads this process has
          probed on the named family's op-log cells (latest probe per
          cell) through the family's sequential spec, mirroring the
          client-side merge of [Causal_object]; the return is certified by
          the generalized checker (spec-legal under some causal-past
          linearization), online and post-hoc *)

type fault =
  | No_faults
  | Crash of { victim : int; restart : bool }
      (** one crash of [victim]; takeover by its ring successor; optional
          restart (with write-ahead-log replay and view resynchronisation)
          once the takeover happened *)
  | Drop of { drops : int; dups : int }
      (** the adversary may drop and duplicate in-flight messages, up to
          the given budgets *)
  | Power
      (** whole-cluster power failure: one coordinated checkpoint round
          may be initiated, then one outage crashes every node at once,
          then one repowering restarts all of them from their logs *)
  | Partition of { minority : int list; majority : int list }
      (** one symmetric network partition between the two groups may be
          installed (cross-side messages freeze in their queues), each
          side's detector may then fire once — the minority owner's
          degrade tick, then the majority backup's takeover tick — and
          the partition may heal, releasing the frozen traffic *)

type scope = {
  sname : string;
  nodes : int;
  owner : Dsm_memory.Owner.t;  (** static base assignment *)
  programs : op list array;  (** one client program per node *)
  fault : fault;
  failover : bool;  (** heartbeats + shadow replication enabled *)
  mutation : Dsm_protocol.Config.mutation;
  shards : int;
      (** [> 1]: run under partial replication with this many shard rings
          ([Dsm_memory.Shard.make]); [<= 1]: unsharded full replication *)
  precise : bool;  (** run under [Config.Precise] digest-driven invalidation *)
  policy : Dsm_protocol.Policy.t;  (** how owners resolve concurrent writes *)
}

val make : string -> owner:Dsm_memory.Owner.t -> op list array -> scope
(** [make name ~owner programs]: one node per program, fault-free,
    unmutated, unsharded, coarse invalidation, last-writer-wins.  The
    presets and {!generic} are built from it; override fields with
    [{ (make ...) with ... }]. *)

val default_detector : Dsm_protocol.Detector.config
(** Period 5.0, suspect after 3 — the failover scenarios' detector. *)

val fresh_state : ?nodes:int -> unit -> Dsm_protocol.Protocol.state
(** A fresh core state with {!default_detector} failover (default 4
    nodes), as the property tests build. *)

val random_run :
  ?nodes:int ->
  seed:int64 ->
  steps:int ->
  unit ->
  Dsm_protocol.Protocol.event list * Dsm_protocol.Protocol.action list list
(** One seeded closed-loop run against {!fresh_state}: random deliveries
    of in-flight sends, owner writes, grace expiries, crashes, restarts
    and heartbeat ticks.  Returns the events (oldest first) and the action
    list each produced; bit-identical for equal [(nodes, seed, steps)]. *)

val x : Dsm_memory.Loc.t
val y : Dsm_memory.Loc.t
val z : Dsm_memory.Loc.t

val mp : scope
val publication : scope
val race : scope
val failover : scope
val fence : scope
val takeover : scope
val lossy : scope
val power : scope
val partition : scope
val shard_scope : scope
val objects_scope : scope

val presets : scope list
(** All of the above, each small enough for exhaustive exploration. *)

val preset : string -> scope option

val matrix : (Dsm_protocol.Config.mutation * string) list
(** Which preset exhibits each protocol mutation: the model checker must
    find a counterexample for every pair, and none unmutated. *)

val generic : nodes:int -> ops:int -> fault:fault -> scope
(** A message-passing-flavoured scope of the given size: node 0 alternates
    writes over x and y, everyone else reads them in anti-phase. *)
