(** Wire messages of the owner protocol (Figure 4) plus the failover
    extensions.

    Four message kinds are exactly the paper's: [READ, x] requesting a
    current copy, [R_REPLY, x, v', VT'] carrying it, [WRITE, x, v, VT]
    shipping a write for certification, and [W_REPLY, x, v, VT'] completing
    it.  The [req] tags match replies to the blocked operation that issued
    the request; [page] and [digest] carry the §3.2 enhancements
    (page-granular transfer and precise-invalidation bookkeeping) and are
    empty under the basic configuration.

    The remaining kinds implement owner failover (see PROTOCOL.md, "Owner
    failover"): requests carry an ownership {e epoch} so deposed owners are
    fenced with [Stale_epoch]; [Heartbeat] drives the failure detector and
    gossips the ownership view; [Shadow]/[Shadow_ack] replicate certified
    writes to the designated backup; [Shadow_read_req]/[Shadow_read_reply]
    serve degraded reads from the backup's shadow copy while an owner is
    suspected; [Takeover] announces a backup's epoch-numbered promotion. *)

type digest = (Dsm_memory.Loc.t * Write_digest.entry) list
(** Piggybacked newest-known-write table; non-empty only under
    [Config.Precise] invalidation. *)

type view = (int * int * int) list
(** Ownership-view gossip: [(base, epoch, serving)] triples for every base
    owner whose serving node has changed at least once (epoch > 0). *)

type t =
  | Read_req of { req : int; loc : Dsm_memory.Loc.t; epoch : int }  (** [READ, x] *)
  | Read_reply of {
      req : int;
      loc : Dsm_memory.Loc.t;
      entry : Stamped.t;
      page : (Dsm_memory.Loc.t * Stamped.t) list;
          (** co-paged entries under page granularity *)
      digest : digest;
    }  (** [R_REPLY, x, v', VT'] *)
  | Write_req of {
      req : int;
      loc : Dsm_memory.Loc.t;
      entry : Stamped.t;
      digest : digest;
      epoch : int;
    }
      (** [WRITE, x, v, VT] — [entry.stamp] is the writer's incremented
          clock *)
  | Write_reply of {
      req : int;
      loc : Dsm_memory.Loc.t;
      accepted : bool;
          (** [false] when the owner's resolution policy rejected the write *)
      entry : Stamped.t;
          (** the entry now stored at the owner: the certified write, or the
              surviving current value on rejection *)
      digest : digest;
    }  (** [W_REPLY, x, v, VT'] *)
  | Stale_epoch of { req : int; base : int; epoch : int; serving : int }
      (** fencing reply: the request's epoch for [base] was behind the
          server's [(epoch, serving)]; the client adopts the newer view and
          re-routes the retry *)
  | Heartbeat of { view : view }
  | Shadow of { seq : int; base : int; entries : (Dsm_memory.Loc.t * Stamped.t) list }
  | Shadow_ack of { seq : int }
  | Shadow_read_req of { req : int; loc : Dsm_memory.Loc.t }
  | Shadow_read_reply of { req : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Takeover of { base : int; epoch : int; serving : int }
  | Vote_req of { base : int; epoch : int; candidate : int }
      (** a suspecting backup canvassing for takeover of [base] under
          [epoch]; promotion requires ⌊n/2⌋+1 grants including its own *)
  | Vote_grant of { base : int; epoch : int; candidate : int }
      (** OWNER_VOTE: the sender promises not to grant [base] at [epoch]
          (or below) to any other candidate *)
  | Frontier of { base : int; epoch : int; entries : (Dsm_memory.Loc.t * Stamped.t) list }
      (** reconciliation on heal: a demoted server ships its served entries
          for [base] to the new owner, which merges newest-wins *)
  | Cp_marker of { round : int; initiator : int }
      (** coordinated-checkpoint marker (see PROTOCOL.md, "Checkpointing &
          recovery"): the receiver checkpoints for [round] before processing
          anything that arrives after this message on the same FIFO link *)
  | Cp_ack of { round : int }
      (** back to [initiator]: the sender's checkpoint for [round] is on
          stable storage *)
  | Sub_req of { base : int }
      (** share-set join (see PROTOCOL.md, "Partial replication &
          sharding"): the sender subscribes to the shard of [base] and asks
          its serving node for a causally safe catch-up transfer *)
  | Sub_reply of { base : int; entries : (Dsm_memory.Loc.t * Stamped.t) list }
      (** catch-up transfer: the entries currently served for [base]; the
          subscriber installs them newest-wins, merging their stamps into
          its clock before any post-subscription read *)

val kind : t -> string
(** Counter bucket: ["READ"], ["R_REPLY"], ["WRITE"], ["W_REPLY"],
    ["STALE"], ["HB"], ["SHADOW"], ["SH_ACK"], ["SH_READ"], ["SH_REPLY"],
    ["TAKEOVER"], ["VOTE_REQ"], ["OWNER_VOTE"], ["FRONTIER"], ["CP_MARK"],
    ["CP_ACK"], ["SUB_REQ"] or ["SUB_REPLY"]. *)

val pp : Format.formatter -> t -> unit

(** {1 Wire accounting}

    Message sizes are abstract units used only for byte accounting. *)

val read_request_size : int
(** A [READ] (or shadow-read) request: one unit. *)

val entry_size : dim:int -> int
(** One stamped entry whose writestamp is [dim] components wide:
    [2 + dim] units. *)
