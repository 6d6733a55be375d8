(** Wire messages of the owner protocol (Figure 4) plus the failover
    extensions.

    [req] tags match a reply to the blocked operation that issued the
    request; the paper's processes block on at most one operation, but the
    tag keeps the protocol robust to any request interleaving.

    Requests additionally carry the sender's ownership [epoch] for the
    target location's base owner: a server whose view is newer rejects the
    request with [Stale_epoch] (fencing), and one whose view is older still
    serves it (the request proves the client observed a takeover the server
    has not heard of yet; the reply is from the server's own serialisation
    either way). *)

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
      digest : digest;
    }
      (** [R_REPLY, x, v', VT']; [page] carries co-paged entries under page
          granularity (empty under word granularity) *)
  | Write_req of {
      req : int;
      loc : Dsm_memory.Loc.t;
      entry : Stamped.t;
      digest : digest;
      epoch : int;
    }
      (** [WRITE, x, v, VT] — [entry.stamp] is the writer's incremented clock *)
  | Write_reply of {
      req : int;
      loc : Dsm_memory.Loc.t;
      accepted : bool;
      entry : Stamped.t;
          (** the entry now stored at the owner: the certified write, or the
              surviving current value when the policy rejected the write *)
      digest : digest;
    }  (** [W_REPLY, x, v, VT'] *)
  | Stale_epoch of { req : int; base : int; epoch : int; serving : int }
      (** fencing reply: the request's epoch for [base] was behind the
          server's [(epoch, serving)]; the client adopts the newer view and
          re-routes *)
  | Heartbeat of { view : view }
      (** liveness beacon, carrying the sender's non-default view entries so
          takeovers gossip to nodes that missed the broadcast *)
  | Shadow of { seq : int; base : int; entries : (Dsm_memory.Loc.t * Stamped.t) list }
      (** backup replication: entries just certified (or a whole inherited
          snapshot) for locations based at [base] *)
  | Shadow_ack of { seq : int }
  | Shadow_read_req of { req : int; loc : Dsm_memory.Loc.t }
      (** degraded read during failover: serve the backup's shadow copy *)
  | Shadow_read_reply of { req : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Takeover of { base : int; epoch : int; serving : int }
      (** broadcast by a backup promoting itself over [base]'s locations *)
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
      (** coordinated-checkpoint marker: take a checkpoint for [round]
          before processing anything that arrives after this message *)
  | Cp_ack of { round : int }
      (** a participant's checkpoint for [round] is on stable storage *)
  | Sub_req of { base : int }
      (** share-set join: the sender subscribes to the shard of [base] and
          asks its serving node for a causally safe catch-up transfer *)
  | Sub_reply of { base : int; entries : (Dsm_memory.Loc.t * Stamped.t) list }
      (** catch-up transfer: the entries currently served for [base]; the
          subscriber installs them newest-wins, merging their stamps into
          its clock before any post-subscription read *)

let kind = function
  | Read_req _ -> "READ"
  | Read_reply _ -> "R_REPLY"
  | Write_req _ -> "WRITE"
  | Write_reply _ -> "W_REPLY"
  | Stale_epoch _ -> "STALE"
  | Heartbeat _ -> "HB"
  | Shadow _ -> "SHADOW"
  | Shadow_ack _ -> "SH_ACK"
  | Shadow_read_req _ -> "SH_READ"
  | Shadow_read_reply _ -> "SH_REPLY"
  | Takeover _ -> "TAKEOVER"
  | Vote_req _ -> "VOTE_REQ"
  | Vote_grant _ -> "OWNER_VOTE"
  | Frontier _ -> "FRONTIER"
  | Cp_marker _ -> "CP_MARK"
  | Cp_ack _ -> "CP_ACK"
  | Sub_req _ -> "SUB_REQ"
  | Sub_reply _ -> "SUB_REPLY"

let pp ppf t =
  match t with
  | Read_req { req; loc; epoch } ->
      Format.fprintf ppf "READ#%d(%a,e%d)" req Dsm_memory.Loc.pp loc epoch
  | Read_reply { req; loc; entry; page; _ } ->
      Format.fprintf ppf "R_REPLY#%d(%a=%a,+%d)" req Dsm_memory.Loc.pp loc Stamped.pp entry
        (List.length page)
  | Write_req { req; loc; entry; epoch; _ } ->
      Format.fprintf ppf "WRITE#%d(%a=%a,e%d)" req Dsm_memory.Loc.pp loc Stamped.pp entry epoch
  | Write_reply { req; loc; accepted; entry; _ } ->
      Format.fprintf ppf "W_REPLY#%d(%a=%a,%s)" req Dsm_memory.Loc.pp loc Stamped.pp entry
        (if accepted then "accepted" else "rejected")
  | Stale_epoch { req; base; epoch; serving } ->
      Format.fprintf ppf "STALE#%d(base %d -> e%d@%d)" req base epoch serving
  | Heartbeat { view } -> Format.fprintf ppf "HB(+%d)" (List.length view)
  | Shadow { seq; base; entries } ->
      Format.fprintf ppf "SHADOW#%d(base %d,+%d)" seq base (List.length entries)
  | Shadow_ack { seq } -> Format.fprintf ppf "SH_ACK#%d" seq
  | Shadow_read_req { req; loc } ->
      Format.fprintf ppf "SH_READ#%d(%a)" req Dsm_memory.Loc.pp loc
  | Shadow_read_reply { req; loc; entry } ->
      Format.fprintf ppf "SH_REPLY#%d(%a=%a)" req Dsm_memory.Loc.pp loc Stamped.pp entry
  | Takeover { base; epoch; serving } ->
      Format.fprintf ppf "TAKEOVER(base %d -> e%d@%d)" base epoch serving
  | Vote_req { base; epoch; candidate } ->
      Format.fprintf ppf "VOTE_REQ(base %d e%d for %d)" base epoch candidate
  | Vote_grant { base; epoch; candidate } ->
      Format.fprintf ppf "OWNER_VOTE(base %d e%d for %d)" base epoch candidate
  | Frontier { base; epoch; entries } ->
      Format.fprintf ppf "FRONTIER(base %d e%d,+%d)" base epoch (List.length entries)
  | Cp_marker { round; initiator } -> Format.fprintf ppf "CP_MARK(r%d from %d)" round initiator
  | Cp_ack { round } -> Format.fprintf ppf "CP_ACK(r%d)" round
  | Sub_req { base } -> Format.fprintf ppf "SUB_REQ(base %d)" base
  | Sub_reply { base; entries } ->
      Format.fprintf ppf "SUB_REPLY(base %d,+%d)" base (List.length entries)

let read_request_size = 1

let entry_size ~dim = 2 + dim
