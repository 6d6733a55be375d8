(** The pure protocol core: every decision of the causal DSM, both halves
    of Figure 4, with no effects.

    [step state event] consumes one input — a message delivery, a client
    operation, a heartbeat tick, a grace-timer expiry, a crash or a
    restart — mutates the protocol state in place, and returns the list of
    {!action}s the caller must perform, in order.  The core never touches
    the network, the scheduler, the clock or the disk: it does not know
    they exist.  Everything observable it wants done comes back as data, so
    the same state and the same event sequence always produce the same
    action sequences — the determinism the replay test and the golden
    traces rely on (see test/test_protocol.ml).

    Two shells drive it.  {!Cluster} feeds deliveries, timer expiries and
    client operations, and interprets actions as [Network]/[Reliable]
    sends, [Wal] appends, engine-scheduled grace timers and [Proc] ivar
    fills; it keeps one ivar per blocked operation and the RPC timeout,
    whose expiry it feeds back as {!event.Client_retry} or
    {!event.Client_abandon}.  The model checker ([Dsm_mc.System]) drives
    the same core from explicit queues, so it explores the client half
    [Cluster] runs.

    What lives here (both sides of Figure 4 plus the failover machinery):
    - the requester's side: hit or miss, routing, the stale-install
      guard's pinned clock version, degraded shadow reads, [Stale_epoch]
      redirects (at most [2n] per op) and the reply installs;
    - READ/WRITE service with epoch fencing ([Stale_epoch]);
    - write certification, invalidation and the digest bookkeeping (via
      {!Node});
    - shadow replication of certified writes to the ring-successor backup,
      with the grace-timer degrade;
    - heartbeat gossip, failure suspicion ({!Detector}) and ownership
      takeover, quorum-gated: a suspecting backup canvasses for ⌊n/2⌋+1
      OWNER_VOTE grants (its own included) before promoting, so a
      minority-side backup can never take over during a partition;
    - partition degradation: an owner that can reach fewer than ⌊n/2⌋+1
      nodes drops to read-only degraded mode (writes refused, reads still
      Definition-2 safe) until quorum contact returns
      ([Partition_healed]); on demotion it ships its served frontier to
      the new server ([FRONTIER]), which merges it newest-wins;
    - crash-stop semantics (a down node drops deliveries) and restart by
      log replay;
    - partial replication (see PROTOCOL.md, "Partial replication &
      sharding"): when created with a {!Dsm_memory.Shard} layout,
      invalidation digests ship only to each location's subscribers, wire
      writestamps are priced at share-set width, takeover/vote/heartbeat
      traffic and the quorum arithmetic scope to the shard's ring, and
      {!event.Subscribe}/{!event.Unsubscribe} grow and shrink share-sets at
      runtime with a causally safe catch-up transfer ([SUB_REQ] /
      [SUB_REPLY]).  Without a layout every fan-out below is cluster-wide
      and behavior is bit-identical to the unsharded protocol. *)

(** What a certified write's shadow acknowledgement (or its grace-timer
    degrade) completes: a deferred [W_REPLY] for a remote writer, or the
    owner's own client op [op] writing [entry] at [loc]. *)
type completion =
  | Reply of { dst : int; kind : string; size : int; msg : Message.t }
  | Writer of { op : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }

type event =
  | Deliver of { dst : int; src : int; now : float; msg : Message.t }
      (** the transport delivered [msg] from [src] at node [dst] *)
  | Hb_tick of { node : int; now : float }
      (** [node]'s heartbeat timer fired: gossip the view, re-evaluate the
          failure detector, hand off ownership from newly suspected peers *)
  | Grace_expired of { node : int; seq : int }
      (** the shadow-replication grace timer for [seq] fired *)
  | Client_read of { node : int; op : int; loc : Dsm_memory.Loc.t }
      (** a process at [node] reads [loc]; [op] is the shell's token for the
          operation, unique among the node's outstanding ops.  A hit
          completes at once; a miss sends [READ] (or [SH_READ] to a
          suspected owner's backup) and waits for {!action.Wake}. *)
  | Client_write of { node : int; op : int; loc : Dsm_memory.Loc.t; value : Dsm_memory.Value.t }
      (** a process at [node] writes [loc].  An owner completes once its
          backup has the write (at once without failover), or
          {!outcome.Refused} while partition-degraded; any other node ships
          [WRITE] and waits for {!action.Wake}. *)
  | Client_resume of { node : int; op : int; reply : Message.t }
      (** the process woken by {!action.Wake} consumes its reply: it
          installs it and completes, or on a [Stale_epoch] fence learns the
          newer view and re-issues — at most [2n] times, then
          {!outcome.Unreachable} *)
  | Client_retry of { node : int; op : int }
      (** the shell's RPC timer expired: re-issue under a fresh tag; a late
          reply to the old tag is counted stale *)
  | Client_abandon of { node : int; op : int }
      (** give the op up: forget it, release its pinned clock version and
          complete it {!outcome.Unreachable}.  No-op for an op not waiting
          on a reply. *)
  | Learn_view of { node : int; base : int; epoch : int; serving : int }
      (** [node] learned a view entry outside a delivery (the model
          checker's view synchronisation on restart) *)
  | Crash of { node : int }
  | Restart of { node : int; now : float; records : Log_record.t list }
      (** [records] is the node's replayed write-ahead log, in log order *)
  | Begin_checkpoint of { node : int }
      (** [node] initiates a coordinated checkpoint round: it snapshots
          itself ([Take_checkpoint]) and floods [Cp_marker]s; each first
          marker receipt snapshots the receiver before any later traffic on
          the same FIFO link, so the per-node snapshots form a consistent
          recovery line (PROTOCOL.md, "Checkpointing & recovery").  Ignored
          at a crashed node. *)
  | Subscribe of { node : int; shard : int }
      (** [node] joins [shard]'s share-set: it starts receiving the shard's
          invalidation digests and asks each of the shard's serving nodes
          for a catch-up transfer ([SUB_REQ]) so its clock covers every
          write it could be told about indirectly.  No-op without sharding,
          at a crashed node, for an out-of-range shard, or if already
          subscribed (ring members are born subscribed). *)
  | Unsubscribe of { node : int; shard : int }
      (** [node] leaves [shard]'s share-set and drops its cached copies of
          the shard's locations (their invalidation metadata will no longer
          arrive).  Ring members cannot leave — the shard's quorum
          arithmetic depends on them. *)

(** How a client op ended. *)
type outcome =
  | Read_value of Stamped.t
  | Written of { entry : Stamped.t; accepted : bool }
      (** [entry] is the write as issued: the certified entry of an owner
          write, the requester's stamped entry of a remote one; [accepted]
          is the owner's resolution *)
  | Refused  (** a partition-degraded owner refused its own write *)
  | Unreachable of { dst : int; redirects : int }
      (** abandoned, or out of fencing redirects; [dst] is the node the
          last attempt went to *)

type action =
  | Send of { src : int; dst : int; kind : string; size : int; msg : Message.t }
  | Wake of { node : int; op : int; reply : Message.t }
      (** [reply] for [op] arrived: resume its process, which hands it back
          as {!event.Client_resume} *)
  | Op_done of { node : int; op : int; loc : Dsm_memory.Loc.t; outcome : outcome }
      (** client op [op] on [loc] is complete: unblock its process (an
          owner write may complete during a later event, when the backup
          acknowledges) *)
  | Append of { node : int; record : Log_record.t }
      (** append to [node]'s write-ahead log {e before} performing any
          action that follows in the list — durability orders the reply *)
  | Arm_grace of { node : int; seq : int }
      (** start the shadow grace timer; feed {!Grace_expired} when it fires *)
  | Take_checkpoint of { node : int; round : int }
      (** snapshot [node]'s state onto stable storage {e now}, before any
          later event runs at it — the shell checkpoints the node's WAL and
          may then compact it *)
  | Emit of Trace.body
      (** publish on the event bus (only produced while tracing is on) *)

type state

val create :
  owner:Dsm_memory.Owner.t ->
  config:Config.t ->
  ?detector:Detector.config ->
  ?sharding:Dsm_memory.Shard.t ->
  now:float ->
  unit ->
  state
(** Fresh protocol state.  A detector config enables failover when the
    cluster has at least two nodes (a lone node has nobody to fail over
    to); [now] seeds the detectors' heard-from times.  A [sharding] layout
    (which must agree with [owner] on the cluster size) switches on partial
    replication; omitting it keeps the legacy full-replication behavior
    bit-identical. *)

val step : state -> event -> state * action list
(** The transition function.  The returned state is physically the input
    state (mutated in place); it is returned so consumers can thread it
    functionally.  Actions must be performed in list order. *)

val set_tracing : state -> bool -> unit
(** Toggle [Emit] production.  Off (the default) costs nothing. *)

(** {1 Read-only accessors the shell and tests use} *)

val processes : state -> int

val node : state -> int -> Node.t

val is_crashed : state -> int -> bool

val failover_on : state -> bool

val quorum : state -> int
(** ⌊n/2⌋+1 over the whole cluster — the legacy electorate. *)

val quorum_for : state -> base:int -> int
(** The grants a takeover of [base] needs and the reachability its owner
    needs to keep serving writes: a majority of [base]'s shard ring under
    sharding, {!quorum} otherwise. *)

val sharding : state -> Dsm_memory.Shard.t option

val subscriptions : state -> (int * int list) list
(** Per shard, the current subscribers ascending — [[]] without sharding.
    Exposed so the model checker can fingerprint the share-set state. *)

val backup_of : state -> serving:int -> int option
(** The designated backup of whatever [serving] certifies: its ring
    successor; [None] in a single-node cluster. *)

val view : state -> (int * int * int) list
(** Cluster-wide view: per base with any takeover, the highest epoch any
    node has adopted, as [(base, epoch, serving)] ascending by base. *)

val partition_degraded : state -> int -> bool
(** Whether one node is currently in read-only degraded mode. *)

val candidacies : state -> int -> (int * int * int list) list
(** One node's open takeover canvasses as [(base, epoch, granting peers
    ascending)], ascending by base; exposed so the model checker can
    fingerprint the full protocol state. *)

val vote_promises : state -> int -> (int * int * int) list
(** One node's outstanding vote promises as [(base, epoch, candidate)],
    ascending by base; exposed for model-checker fingerprinting. *)

val suspected_by : state -> int -> int list
(** Peers currently suspected by one node, ascending. *)

val shadow_pending_list : state -> int -> (int * completion) list
(** One node's in-flight shadow replications awaiting acknowledgement, as
    [(seq, completion)] ascending by seq.  Exposed so the model checker can
    fingerprint the full protocol state. *)

val shadow_seqno : state -> int
(** The next shadow sequence number to be allocated (cluster-global). *)

val checkpoint_round : state -> int -> int
(** The highest coordinated round one node has snapshotted; 0 before any.
    Monotone, and deliberately not reset by crash/restart — the snapshot it
    names is on stable storage. *)

(** One outstanding client op, as the model checker fingerprints it. *)
type pending =
  | Reading of { loc : Dsm_memory.Loc.t; req : int; redirects : int; clock : Vclock.t option }
      (** [clock] is the value the node's clock held when an owner READ was
          sent (the stale-install guard's reference); [None] for [SH_READ] *)
  | Writing of { loc : Dsm_memory.Loc.t; req : int; redirects : int; entry : Stamped.t }
  | Replicating of { loc : Dsm_memory.Loc.t; entry : Stamped.t }
      (** a certified owner write awaiting its backup's acknowledgement *)

val client_ops : state -> int -> (int * pending) list
(** One node's outstanding client ops as [(op, pending)], ascending by op. *)

val awaits_reply : state -> node:int -> op:int -> bool
(** Whether [op] has a request on the wire — the ops an RPC timeout
    applies to (not an owner write awaiting its shadow acknowledgement). *)

val checkpoint_acks_pending : state -> int -> (int * int) list
(** One node's open initiated rounds as [(round, acks received)] ascending
    by round; exposed so the model checker can fingerprint the full
    protocol state. *)

(** {1 Counters} *)

(** Lifetime counts of the core's failure-handling events, cluster-wide. *)
type counters = {
  dropped_at_crashed : int;  (** deliveries to crashed nodes *)
  takeovers : int;  (** ownership promotions by backups *)
  shadow_degraded : int;
      (** certified writes acknowledged without backup replication (no
          live backup, or the shadow ack missed the grace window) *)
  votes_granted : int;  (** OWNER_VOTE grants sent *)
  degraded_refusals : int;  (** write requests silently refused by degraded owners *)
  partition_heals : int;
      (** degraded owners that regained quorum contact ([Partition_healed]) *)
  suspect_events : int;  (** suspicion transitions across all detectors *)
  unsuspect_events : int;  (** recoveries from suspicion across all detectors *)
  checkpoint_rounds_completed : int;
      (** coordinated rounds whose initiator collected every participant's
          [Cp_ack] — stable recovery lines.  A round with a crashed
          participant never completes (and blocks nothing). *)
  stale_replies : int;
      (** replies for tags nobody waits on any more (a retried attempt, or
          a request from before the requester crashed) *)
  redirects : int;  (** [Stale_epoch] fences that re-routed a client op *)
  shadow_reads : int;  (** reads served from a backup's shadow copy *)
}

val counters : state -> counters
(** A snapshot of the counters above. *)
