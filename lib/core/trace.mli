(** The structured event bus: one typed stream of everything the system does.

    Every layer publishes onto the same bus — the network taps wire-level
    send/deliver/drop events, the pure protocol core returns [Emit] actions
    that the cluster shell stamps and forwards, and the cluster publishes
    the application-level operations it records.  Consumers subscribe
    ({!subscribe}): the online causal checker listens to [Op_read]/[Op_write],
    the [dsm trace] subcommand dumps the recorded stream as JSONL, and tests
    diff milestone streams against committed golden traces.

    A {!body} is pure data (no timestamps), so the effect-free core can
    produce them deterministically; the shell attaches the simulated time
    and the acting node's vector clock when it {!emit}s.  Emission with no
    subscribers and recording disabled is a no-op, so an untraced cluster
    pays nothing. *)

type body =
  (* Wire level (published by the network tap).  These count {e physical
     frames}: on a reliable transport each event is one frame as the wire
     saw it — a batch frame appears once with kind ["BATCH"] (or the
     payloads' kind when uniform) and its summed size, acks and
     retransmissions appear individually.  Logical messages (the paper's
     accounting unit) live in the [sent] field of [Reliable.counters] and
     in [Cluster.logical_messages], not on this bus. *)
  | Send of { src : int; dst : int; kind : string; size : int }
  | Deliver of { src : int; dst : int; kind : string }
  | Drop of { src : int; dst : int; kind : string }
      (** lost to a down link or the fault model *)
  | Duplicate of { src : int; dst : int; kind : string }
  (* Protocol core (returned as [Protocol.Emit] actions). *)
  | Apply of { node : int; loc : Dsm_memory.Loc.t; wid : Dsm_memory.Wid.t }
      (** an entry stored into served memory or the cache *)
  | Invalidate of { node : int; loc : Dsm_memory.Loc.t; wid : Dsm_memory.Wid.t }
      (** a cached entry dropped by the Figure-4 causality rule *)
  | Certify of { node : int; loc : Dsm_memory.Loc.t; wid : Dsm_memory.Wid.t; accepted : bool }
      (** the owner resolved a WRITE request *)
  | Wal_append of { node : int; kind : string }
  | Suspect of { node : int; peer : int }
  | Unsuspect of { node : int; peer : int }
  | Promote of { node : int; base : int; epoch : int }
      (** a backup took over [base]'s locations *)
  | Demote of { node : int; base : int; serving : int }
      (** a deposed server learned of a newer epoch and dropped its copies *)
  | Adopt_view of { node : int; base : int; epoch : int; serving : int }
  | Shadow_degraded of { node : int; seq : int }
      (** a certified write was acknowledged without backup replication *)
  | Degraded of { node : int; reachable : int; quorum : int }
      (** an owner lost contact with a majority and demoted itself to
          read-only degraded mode (Definition-2 safe) *)
  | Partition_healed of { node : int; reachable : int }
      (** a degraded owner regained quorum contact after a partition heal *)
  | Vote_granted of { node : int; candidate : int; base : int; epoch : int }
      (** [node] promised its OWNER_VOTE for [candidate]'s takeover of
          [base] under [epoch] *)
  | Crash of { node : int }
  | Restart of { node : int; replayed : int }
  | Checkpoint_taken of { node : int; round : int }
      (** a snapshot reached stable storage; [round] is the coordinated
          round number, 0 for an uncoordinated (timer-driven) checkpoint *)
  | Recovery_line of { node : int; round : int }
      (** the initiator [node] collected every participant's ack for
          [round]: the cluster-wide recovery line is stable *)
  (* Application level (published by the cluster when recording history). *)
  | Op_read of {
      node : int;
      loc : Dsm_memory.Loc.t;
      value : Dsm_memory.Value.t;
      from : Dsm_memory.Wid.t;
    }
  | Op_write of {
      node : int;
      loc : Dsm_memory.Loc.t;
      value : Dsm_memory.Value.t;
      wid : Dsm_memory.Wid.t;
    }
  | Op_query of { node : int; obj : string; ret : string }
      (** an object-level query: the named [Causal_object] family folded
          the issuer's observed updates through its sequential spec and
          returned [ret] *)
  (* Checker level. *)
  | Violation of { node : int; reason : string }
      (** the online checker rejected an operation as it happened *)

type event = {
  seq : int;  (** bus-wide emission index, 0-based *)
  time : float;  (** simulated time at emission *)
  clock : Vclock.t option;  (** the acting node's vector clock, when known *)
  body : body;
}

type t

val create : ?record:bool -> unit -> t
(** A fresh bus.  With [~record:true] (the default) every event is also
    kept in order for {!events}; pass [~record:false] for a pure
    pub/sub bus that retains nothing. *)

val subscribe : t -> (event -> unit) -> unit
(** Callbacks run synchronously at {!emit} time, in subscription order. *)

val emit : t -> time:float -> ?clock:Vclock.t -> body -> unit

val events : t -> event list
(** Everything recorded so far, oldest first. *)

val count : t -> int
(** Events emitted over the bus's lifetime (recorded or not). *)

val kind : body -> string
(** Stable lowercase tag, e.g. ["send"], ["invalidate"], ["promote"];
    the ["ev"] field of the JSON rendering. *)

val actor : body -> int option
(** The node whose perspective the event reflects (the sender for [Send],
    the receiver for [Deliver]/[Duplicate], the acting node otherwise);
    [None] for [Drop], which happens on the wire.  The shell stamps the
    actor's vector clock onto the emitted event. *)

val milestone : body -> bool
(** True for the scheduling-robust subset used by golden traces: crashes,
    restarts, recovery lines, suspicions, promotions, demotions, view
    adoptions, application operations and violations — everything except
    per-message wire, cache-maintenance and per-node checkpoint events,
    whose exact interleaving is noisier. *)

val to_json : event -> string
(** One-line JSON object: [{"seq":..,"t":..,"ev":..,...}]. *)

val pp_body : Format.formatter -> body -> unit

val pp_event : Format.formatter -> event -> unit
