module Loc = Dsm_memory.Loc
module Wid = Dsm_memory.Wid
module History = Dsm_memory.History
module Owner = Dsm_memory.Owner
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network

type invalidation_mode = [ `Counted | `Acknowledged ]

module Int_set = Set.Make (Int)

(* An owner-side write whose invalidation acknowledgements are still
   outstanding.  Requests for the same location arriving meanwhile are
   queued and replayed in arrival order once the write commits. *)
type inflight = {
  mutable remaining : int;
  mutable commit : unit -> unit;
  mutable queued : (int * Message.t) list; (* newest first *)
}

type node = {
  id : int;
  store : Message.entry Loc.Table.t; (* owned locations (current) + cache *)
  copysets : Int_set.t ref Loc.Table.t; (* owner side *)
  inflights : inflight Loc.Table.t; (* owner side, keyed by location *)
  tokens : (int, inflight) Hashtbl.t; (* ack routing *)
  pending : (int, Message.t Proc.ivar) Hashtbl.t;
  mutable wseq : int;
  mutable reqseq : int;
  mutable token_seq : int;
}

type t = {
  sched : Proc.sched;
  net : Message.t Network.t;
  owner : Owner.t;
  mode : invalidation_mode;
  init : Loc.t -> Dsm_memory.Value.t;
  nodes : node array;
  recorder : History.Recorder.t;
  mutable invalidations_sent : int;
}

type handle = { cluster : t; node : node }

let owner_of t loc = Owner.owner t.owner loc

let owns t node loc = owner_of t loc = node.id

let current_entry t node loc =
  match Loc.Table.find_opt node.store loc with
  | Some entry -> entry
  | None ->
      let entry = { Message.value = t.init loc; wid = Wid.initial } in
      Loc.Table.replace node.store loc entry;
      entry

let copyset node loc =
  match Loc.Table.find_opt node.copysets loc with
  | Some set -> set
  | None ->
      let set = ref Int_set.empty in
      Loc.Table.replace node.copysets loc set;
      set

(* ------------------------------------------------------------------ *)
(* Owner-side write machinery                                          *)
(* ------------------------------------------------------------------ *)

let send t ~src ~dst ?(size = 2) msg =
  Network.send t.net ~src ~dst ~kind:(Message.kind msg) ~size msg

let apply_write node loc (entry : Message.entry) ~writer =
  Loc.Table.replace node.store loc entry;
  let set = copyset node loc in
  (* After the write the only cached copy is the writer's (if remote). *)
  set := if writer = node.id then Int_set.empty else Int_set.singleton writer

(* Begin servicing a write at the owner: invalidate every cached copy except
   the writer's, then commit (store + notify).  In [`Counted] mode the
   invalidations are fire-and-forget and the commit is immediate; in
   [`Acknowledged] mode the commit waits for every acknowledgement and
   meanwhile other requests for the location queue up. *)
let rec start_write t node loc (entry : Message.entry) ~writer ~notify =
  let set = copyset node loc in
  let targets = Int_set.elements (Int_set.remove writer (Int_set.remove node.id !set)) in
  let commit () =
    apply_write node loc entry ~writer;
    notify ();
    match Loc.Table.find_opt node.inflights loc with
    | None -> ()
    | Some inflight ->
        Loc.Table.remove node.inflights loc;
        List.iter (fun (src, msg) -> owner_service t node ~src msg) (List.rev inflight.queued)
  in
  match (t.mode, targets) with
  | `Counted, _ ->
      List.iter
        (fun dst ->
          t.invalidations_sent <- t.invalidations_sent + 1;
          send t ~src:node.id ~dst ~size:1 (Message.Invalidate { loc; token = -1 }))
        targets;
      let set = copyset node loc in
      set := Int_set.empty;
      commit ()
  | `Acknowledged, [] -> commit ()
  | `Acknowledged, _ :: _ ->
      let token = node.token_seq in
      node.token_seq <- node.token_seq + 1;
      let inflight = { remaining = List.length targets; commit; queued = [] } in
      Loc.Table.replace node.inflights loc inflight;
      Hashtbl.replace node.tokens token inflight;
      List.iter
        (fun dst ->
          t.invalidations_sent <- t.invalidations_sent + 1;
          send t ~src:node.id ~dst ~size:1 (Message.Invalidate { loc; token }))
        targets

(* Serve a READ or WRITE request at the owner, or queue it behind an
   in-flight write to the same location. *)
and owner_service t node ~src msg =
  let loc =
    match (msg : Message.t) with
    | Message.Read_req { loc; _ } | Message.Write_req { loc; _ } -> loc
    | _ -> invalid_arg "owner_service: not a request"
  in
  match Loc.Table.find_opt node.inflights loc with
  | Some inflight -> inflight.queued <- (src, msg) :: inflight.queued
  | None -> (
      match msg with
      | Message.Read_req { req; loc } ->
          let entry = current_entry t node loc in
          let set = copyset node loc in
          set := Int_set.add src !set;
          send t ~src:node.id ~dst:src ~size:2 (Message.Read_reply { req; loc; entry })
      | Message.Write_req { req; loc; entry } ->
          start_write t node loc entry ~writer:src ~notify:(fun () ->
              send t ~src:node.id ~dst:src ~size:1 (Message.Write_reply { req; loc }))
      | Message.Read_reply _ | Message.Write_reply _ | Message.Invalidate _
      | Message.Inv_ack _ | Message.Dyn_read _ | Message.Dyn_read_reply _
      | Message.Dyn_write _ | Message.Dyn_grant _ ->
          assert false)

let handle_message t ~me ~src msg =
  let node = t.nodes.(me) in
  match (msg : Message.t) with
  | Message.Read_req _ | Message.Write_req _ -> owner_service t node ~src msg
  | Message.Read_reply { req; _ } | Message.Write_reply { req; _ } -> (
      match Hashtbl.find_opt node.pending req with
      | Some ivar ->
          Hashtbl.remove node.pending req;
          Proc.fill ivar msg
      | None -> failwith (Printf.sprintf "atomic node %d: reply for unknown request %d" me req))
  | Message.Invalidate { loc; token } ->
      Loc.Table.remove node.store loc;
      if t.mode = `Acknowledged && token >= 0 then
        send t ~src:me ~dst:src ~size:1 (Message.Inv_ack { loc; token })
  | Message.Inv_ack { token; _ } -> (
      match Hashtbl.find_opt node.tokens token with
      | Some inflight ->
          inflight.remaining <- inflight.remaining - 1;
          if inflight.remaining = 0 then begin
            Hashtbl.remove node.tokens token;
            inflight.commit ()
          end
      | None -> failwith (Printf.sprintf "atomic node %d: stray INV_ACK" me))
  | Message.Dyn_read _ | Message.Dyn_read_reply _ | Message.Dyn_write _ | Message.Dyn_grant _
    ->
      failwith "Atomic: dynamic-protocol message on a static cluster" 

let create ~sched ~owner ?(mode = `Counted)
    ?(init = fun _ -> Dsm_memory.Value.initial) ?latency ?(seed = 43L) () =
  let processes = Owner.nodes owner in
  let engine = Proc.engine sched in
  let net = Network.create engine ~nodes:processes ?latency ~seed () in
  let nodes =
    Array.init processes (fun id ->
        {
          id;
          store = Loc.Table.create 64;
          copysets = Loc.Table.create 64;
          inflights = Loc.Table.create 8;
          tokens = Hashtbl.create 8;
          pending = Hashtbl.create 8;
          wseq = 0;
          reqseq = 0;
          token_seq = 0;
        })
  in
  let t =
    {
      sched;
      net;
      owner;
      mode;
      init;
      nodes;
      recorder = History.Recorder.create ~processes;
      invalidations_sent = 0;
    }
  in
  for me = 0 to processes - 1 do
    Network.set_handler net ~node:me (fun ~src msg -> handle_message t ~me ~src msg)
  done;
  t

let handle t pid = { cluster = t; node = t.nodes.(pid) }

let handles t = Array.init (Array.length t.nodes) (handle t)

let processes t = Array.length t.nodes

let net t = t.net

let history t = History.Recorder.history t.recorder

let timed_history t = History.Recorder.timed_history t.recorder

let now t = Dsm_sim.Engine.now (Proc.engine t.sched)

let copyset_size t loc =
  let owner_node = t.nodes.(owner_of t loc) in
  Int_set.cardinal !(copyset owner_node loc)

let invalidations_sent t = t.invalidations_sent

let pid h = h.node.id

let fresh_wid node =
  let seq = node.wseq in
  node.wseq <- seq + 1;
  Wid.make ~node:node.id ~seq

let rendezvous h ~dst ~size make_msg =
  let t = h.cluster in
  let node = h.node in
  let req = node.reqseq in
  node.reqseq <- req + 1;
  let ivar = Proc.ivar t.sched in
  Hashtbl.replace node.pending req ivar;
  let msg = make_msg req in
  Network.send t.net ~src:node.id ~dst ~kind:(Message.kind msg) ~size msg;
  Proc.await ivar

let read h loc =
  let t = h.cluster in
  let node = h.node in
  let start_time = now t in
  let record (entry : Message.entry) =
    ignore
      (History.Recorder.record_read ~start:start_time ~finish:(now t) t.recorder ~pid:node.id
         ~loc ~value:entry.Message.value ~from:entry.Message.wid);
    entry.Message.value
  in
  match Loc.Table.find_opt node.store loc with
  | Some entry -> record entry
  | None ->
      if owns t node loc then record (current_entry t node loc)
      else begin
        match
          rendezvous h ~dst:(owner_of t loc) ~size:1 (fun req -> Message.Read_req { req; loc })
        with
        | Message.Read_reply { entry; _ } ->
            Loc.Table.replace node.store loc entry;
            record entry
        | _ -> assert false
      end

let write h loc value =
  let t = h.cluster in
  let node = h.node in
  let start_time = now t in
  let entry = { Message.value; wid = fresh_wid node } in
  if owns t node loc then begin
    (* Owner write: invalidate all cached copies; in acknowledged mode block
       until every holder confirms. *)
    let ivar = Proc.ivar t.sched in
    let notified = ref false in
    start_write t node loc entry ~writer:node.id ~notify:(fun () ->
        notified := true;
        if not (Proc.is_filled ivar) then Proc.fill ivar ());
    if not !notified then Proc.await ivar;
    ignore
      (History.Recorder.record_write ~start:start_time ~finish:(now t) t.recorder ~pid:node.id
         ~loc ~value ~wid:entry.Message.wid)
  end
  else begin
    match
      rendezvous h ~dst:(owner_of t loc) ~size:2 (fun req -> Message.Write_req { req; loc; entry })
    with
    | Message.Write_reply _ ->
        (* The writer keeps a copy; the owner has already put it in the
           copyset. *)
        Loc.Table.replace node.store loc entry;
        ignore
          (History.Recorder.record_write ~start:start_time ~finish:(now t) t.recorder
             ~pid:node.id ~loc ~value ~wid:entry.Message.wid)
    | _ -> assert false
  end

module Mem = struct
  type nonrec handle = handle

  let pid = pid

  let processes h = Array.length h.cluster.nodes

  let read = read

  let write = write

  let yield (_ : handle) = Proc.yield ()

  (* Staleness is pushed by invalidations; nothing to do. *)
  let refresh (_ : handle) (_ : Loc.t) = ()
end
