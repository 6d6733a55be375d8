module Loc = Dsm_memory.Loc
module Wid = Dsm_memory.Wid

type slot = { mutable entry : Stamped.t; mutable last_touch : int }

type t = {
  id : int;
  owner : Dsm_memory.Owner.t;
  config : Config.t;
  (* Structured-event capture: when tracing, state transitions are queued
     as Trace bodies for the caller (Protocol.step or the cluster shell) to
     drain and publish.  The node never touches a bus itself — recording
     into its own state keeps it effect-free and replay-deterministic. *)
  mutable tracing : bool;
  mutable trace_rev : Trace.body list;
  memory : slot Loc.Table.t;
  (* What the causality rule last invalidated per location, to detect
     refetches of the very same write (over-invalidation accounting). *)
  last_invalidated : Wid.t Loc.Table.t;
  (* Newest known write per location; only consulted (and shipped) under
     Config.Precise invalidation. *)
  digest : Write_digest.t;
  (* [VT_i], merged and ticked in place; [vt] publishes a snapshot.  Each
     READ in flight holds a pin on the version it was sent at. *)
  clock : Vclock.Acc.t;
  mutable wseq : int;
  mutable reqseq : int;
  mutable touch_counter : int;
  stats : Node_stats.t;
  (* Ownership view, indexed by base owner id: which node currently serves
     each base owner's locations, and under which takeover epoch.  Epoch 0
     with serving = base is the paper's static assignment. *)
  view_epoch : int array;
  view_serving : int array;
  (* Backup copies held for other owners' locations, grouped by base owner:
     the state a promotion installs. *)
  shadows : (int, Stamped.t Loc.Table.t) Hashtbl.t;
}

let create ~id ~owner ~config =
  Config.validate config;
  let processes = Dsm_memory.Owner.nodes owner in
  if id < 0 || id >= processes then invalid_arg "Node.create: id out of range";
  {
    id;
    owner;
    config;
    tracing = false;
    trace_rev = [];
    memory = Loc.Table.create 64;
    last_invalidated = Loc.Table.create 16;
    digest = Write_digest.create ();
    clock = Vclock.Acc.create processes;
    wseq = 0;
    reqseq = 0;
    touch_counter = 0;
    stats = Node_stats.create ();
    view_epoch = Array.make processes 0;
    view_serving = Array.init processes Fun.id;
    shadows = Hashtbl.create 4;
  }

let id t = t.id

let processes t = Dsm_memory.Owner.nodes t.owner

let set_tracing t on = t.tracing <- on

let trace t body = if t.tracing then t.trace_rev <- body :: t.trace_rev

let drain_trace t =
  match t.trace_rev with
  | [] -> []
  | rev ->
      t.trace_rev <- [];
      List.rev rev

let vt t = Vclock.Acc.freeze t.clock

let clock_version t = Vclock.Acc.pin t.clock

let clock_at t ~since = Vclock.Acc.pinned_value t.clock since

let abandon_read t ~since = ignore (Vclock.Acc.unpin t.clock since)

let merge_clock t stamp = Vclock.Acc.merge t.clock stamp

let tick t =
  Vclock.Acc.tick t.clock t.id;
  vt t

let stats t = t.stats

let config t = t.config

(* The paper's static assignment; routing goes through the view so a
   promoted backup transparently serves a dead owner's locations. *)
let base_owner_of t loc = Dsm_memory.Owner.owner t.owner loc

let owner_of t loc = t.view_serving.(base_owner_of t loc)

let owns t loc = owner_of t loc = t.id

let epoch_of t ~base = t.view_epoch.(base)

let serving_of t ~base = t.view_serving.(base)

let view t =
  let acc = ref [] in
  for base = Array.length t.view_epoch - 1 downto 0 do
    if t.view_epoch.(base) > 0 then
      acc := (base, t.view_epoch.(base), t.view_serving.(base)) :: !acc
  done;
  !acc

let touch t slot =
  t.touch_counter <- t.touch_counter + 1;
  slot.last_touch <- t.touch_counter

let store t loc entry =
  match Loc.Table.find_opt t.memory loc with
  | Some slot ->
      slot.entry <- entry;
      touch t slot
  | None ->
      let slot = { entry; last_touch = 0 } in
      touch t slot;
      Loc.Table.replace t.memory loc slot

let lookup t loc =
  match Loc.Table.find_opt t.memory loc with
  | Some slot ->
      touch t slot;
      Some slot.entry
  | None ->
      if owns t loc then begin
        (* Owned locations are born holding the initial value with a zero
           writestamp: the virtual initial write precedes everything. *)
        let entry = Stamped.initial ~processes:(processes t) (t.config.Config.init loc) in
        store t loc entry;
        Some entry
      end
      else None

let fresh_wid t =
  let seq = t.wseq in
  t.wseq <- seq + 1;
  Wid.make ~node:t.id ~seq

let next_req t =
  let r = t.reqseq in
  t.reqseq <- r + 1;
  r

(* Invalidate every cached (non-owned) entry whose writestamp is strictly
   older than [threshold]: the rule of Figure 4.  Owned locations are never
   invalidated. *)
let drop_invalidated t loc (slot : slot) =
  Loc.Table.remove t.memory loc;
  Loc.Table.replace t.last_invalidated loc slot.entry.Stamped.wid;
  t.stats.Node_stats.invalidations <- t.stats.Node_stats.invalidations + 1;
  trace t (Trace.Invalidate { node = t.id; loc; wid = slot.entry.Stamped.wid })

(* On (re)introducing a value, check whether the causality rule had thrown
   away this very write earlier: if so the invalidation bought nothing. *)
let note_refetch t loc (entry : Stamped.t) =
  match Loc.Table.find_opt t.last_invalidated loc with
  | Some wid ->
      Loc.Table.remove t.last_invalidated loc;
      if Wid.equal wid entry.Stamped.wid then
        t.stats.Node_stats.redundant_fetches <- t.stats.Node_stats.redundant_fetches + 1
  | None -> ()

let precise t = t.config.Config.invalidation = Config.Precise

let digest_observe t loc (entry : Stamped.t) =
  if precise t then
    Write_digest.observe t.digest loc
      { Write_digest.stamp = entry.Stamped.stamp; wid = entry.Stamped.wid }

(* Precise rule: a cached copy dies only when the digest proves a strictly
   newer write of the same location. *)
let invalidate_per_digest t =
  if t.config.Config.mutation = Config.Skip_invalidation then ()
  else begin
  let stale = ref [] in
  Loc.Table.iter
    (fun loc slot ->
      if not (owns t loc) then begin
        match Write_digest.find t.digest loc with
        | Some { Write_digest.stamp; _ } when Vclock.lt slot.entry.Stamped.stamp stamp ->
            stale := (loc, slot) :: !stale
        | Some _ | None -> ()
      end)
    t.memory;
  List.iter (fun (loc, slot) -> drop_invalidated t loc slot) !stale
  end

let invalidate_older t threshold =
  if t.config.Config.mutation = Config.Skip_invalidation then ()
  else if precise t then invalidate_per_digest t
  else begin
    let stale = ref [] in
    Loc.Table.iter
      (fun loc slot ->
        if (not (owns t loc)) && Vclock.lt slot.entry.Stamped.stamp threshold then
          stale := (loc, slot) :: !stale)
      t.memory;
    List.iter (fun (loc, slot) -> drop_invalidated t loc slot) !stale
  end

let digest_export t = if precise t then Write_digest.export t.digest else []

let digest_merge t entries = if precise t then Write_digest.merge t.digest entries

let local_write t loc value =
  if not (owns t loc) then invalid_arg "Node.local_write: location not owned";
  let entry = Stamped.make ~value ~stamp:(tick t) ~wid:(fresh_wid t) in
  store t loc entry;
  digest_observe t loc entry;
  t.stats.Node_stats.writes_owned <- t.stats.Node_stats.writes_owned + 1;
  trace t (Trace.Apply { node = t.id; loc; wid = entry.Stamped.wid });
  entry

let certify_write t loc (incoming : Stamped.t) ~accepted =
  if not (owns t loc) then invalid_arg "Node.certify_write: location not owned";
  (* [WRITE, x, v, VT] handler: VT_i := update(VT_i, VT), then resolve. *)
  if t.config.Config.mutation <> Config.Skip_writestamp_merge then
    merge_clock t incoming.stamp;
  let current =
    match lookup t loc with
    | Some e -> e
    | None -> assert false (* owned locations always present after lookup *)
  in
  if Wid.equal current.Stamped.wid incoming.Stamped.wid then begin
    (* Duplicate certification of a write already stored (an RPC retry after
       a lost W_REPLY): idempotent, and still "accepted" — the original
       decision stands. *)
    accepted := true;
    current
  end
  else begin
    let decision = Policy.decide t.config.Config.policy ~owner:t.id ~current ~incoming in
    t.stats.Node_stats.writes_certified <- t.stats.Node_stats.writes_certified + 1;
    let stored =
      match decision with
      | Policy.Accept ->
          (* The certified writestamp is the owner's merged clock, as in
             Figure 4's [M_i[x] := (v, VT_i)]. *)
          let entry = Stamped.make ~value:incoming.value ~stamp:(vt t) ~wid:incoming.wid in
          store t loc entry;
          digest_observe t loc entry;
          accepted := true;
          entry
      | Policy.Reject ->
          accepted := false;
          current
    in
    trace t
      (Trace.Certify { node = t.id; loc; wid = incoming.Stamped.wid; accepted = !accepted });
    invalidate_older t (vt t);
    stored
  end

let adopt_write_reply t loc (entry : Stamped.t) =
  if owns t loc then invalid_arg "Node.adopt_write_reply: location is owned";
  merge_clock t entry.stamp;
  store t loc entry

let install_remote t loc (entry : Stamped.t) =
  if owns t loc then invalid_arg "Node.install_remote: location is owned";
  (* R_REPLY path: VT_i := update(VT_i, VT'); M_i[x] := (v', VT');
     invalidate cached y with M_i[y].VT < VT'. *)
  note_refetch t loc entry;
  merge_clock t entry.stamp;
  store t loc entry;
  digest_observe t loc entry;
  trace t (Trace.Apply { node = t.id; loc; wid = entry.Stamped.wid });
  invalidate_older t entry.stamp

(* [VT_i := update(VT_i, VT')] on the R_REPLY path, unless mutated away. *)
let merges_installs t = t.config.Config.mutation <> Config.Skip_install_merge

let install_batch t entries =
  (* Keep only entries we may cache: not locally owned, and not already
     cached at least as new. *)
  let installable =
    List.filter
      (fun (loc, (entry : Stamped.t)) ->
        (not (owns t loc))
        &&
        match Loc.Table.find_opt t.memory loc with
        | None -> true
        | Some slot -> Vclock.lt slot.entry.Stamped.stamp entry.stamp)
      entries
  in
  List.iter
    (fun (loc, (entry : Stamped.t)) ->
      note_refetch t loc entry;
      if merges_installs t then merge_clock t entry.stamp;
      store t loc entry;
      digest_observe t loc entry;
      trace t (Trace.Apply { node = t.id; loc; wid = entry.Stamped.wid }))
    installable;
  if t.config.Config.mutation = Config.Skip_invalidation then ()
  else if precise t then invalidate_per_digest t
  else begin
    (* One invalidation pass over the rest of the cache: anything strictly
       older than some installed stamp goes, but the batch spares itself. *)
    let in_batch loc = List.exists (fun (l, _) -> Loc.equal l loc) installable in
    let stale = ref [] in
    Loc.Table.iter
      (fun loc slot ->
        if (not (owns t loc)) && not (in_batch loc) then
          if
            List.exists
              (fun (_, (entry : Stamped.t)) -> Vclock.lt slot.entry.Stamped.stamp entry.stamp)
              installable
          then stale := (loc, slot) :: !stale)
      t.memory;
    List.iter (fun (loc, slot) -> drop_invalidated t loc slot) !stale
  end

let page_entries t loc =
  match Config.page_of t.config.Config.granularity loc with
  | None -> []
  | Some page ->
      let same_page other = Config.page_of t.config.Config.granularity other = Some page in
      Loc.Table.fold
        (fun other slot acc ->
          if (not (Loc.equal other loc)) && owns t other && same_page other then
            (other, slot.entry) :: acc
          else acc)
        t.memory []

let install_transient t entries =
  List.iter
    (fun (loc, (entry : Stamped.t)) ->
      if not (owns t loc) then begin
        if merges_installs t then merge_clock t entry.stamp;
        digest_observe t loc entry;
        t.stats.Node_stats.stale_drops <- t.stats.Node_stats.stale_drops + 1
      end)
    entries;
  (* The reply still carries knowledge: run the usual invalidation pass so
     anything older than what we just learned is dropped. *)
  if precise t then invalidate_per_digest t
  else
    List.iter (fun (_, (entry : Stamped.t)) -> invalidate_older t entry.stamp) entries

let cached_locs t =
  Loc.Table.fold (fun loc _ acc -> if owns t loc then acc else loc :: acc) t.memory []

let entries t =
  Loc.Table.fold (fun loc slot acc -> (loc, slot.entry) :: acc) t.memory []
  |> List.sort (fun (a, _) (b, _) -> compare (Loc.to_string a) (Loc.to_string b))

let cache_size t = List.length (cached_locs t)

let discard_all t =
  let cached = cached_locs t in
  List.iter
    (fun loc ->
      Loc.Table.remove t.memory loc;
      t.stats.Node_stats.discards <- t.stats.Node_stats.discards + 1)
    cached;
  List.length cached

let discard_one t loc =
  match Loc.Table.find_opt t.memory loc with
  | Some _ when not (owns t loc) ->
      Loc.Table.remove t.memory loc;
      t.stats.Node_stats.discards <- t.stats.Node_stats.discards + 1;
      true
  | Some _ | None -> false

(* {1 Ownership view and shadow replication (owner failover)} *)

let shadow_table t base =
  match Hashtbl.find_opt t.shadows base with
  | Some tbl -> tbl
  | None ->
      let tbl = Loc.Table.create 16 in
      Hashtbl.replace t.shadows base tbl;
      tbl

let shadow_store t ~base loc (entry : Stamped.t) =
  let tbl = shadow_table t base in
  match Loc.Table.find_opt tbl loc with
  | Some existing when Vclock.lt entry.Stamped.stamp existing.Stamped.stamp ->
      (* A strictly older copy (a late snapshot racing per-write shadows)
         never regresses the shadow. *)
      ()
  | Some _ | None -> Loc.Table.replace tbl loc entry

let shadow_lookup t ~base loc =
  match Hashtbl.find_opt t.shadows base with
  | None -> None
  | Some tbl -> Loc.Table.find_opt tbl loc

let shadow_entries t ~base =
  match Hashtbl.find_opt t.shadows base with
  | None -> []
  | Some tbl ->
      Loc.Table.fold (fun loc entry acc -> (loc, entry) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare (Loc.to_string a) (Loc.to_string b))

let shadow_size t ~base =
  match Hashtbl.find_opt t.shadows base with None -> 0 | Some tbl -> Loc.Table.length tbl

let served_entries t ~base =
  Loc.Table.fold
    (fun loc slot acc ->
      if base_owner_of t loc = base && owns t loc then (loc, slot.entry) :: acc else acc)
    t.memory []
  |> List.sort (fun (a, _) (b, _) -> compare (Loc.to_string a) (Loc.to_string b))

(* Demotion: a node that learns (view gossip, takeover broadcast) that it no
   longer serves [base] drops its copies of those locations — after the
   handoff they would be an unsupervised fork of the authoritative state. *)
let drop_served t ~base =
  let mine =
    Loc.Table.fold
      (fun loc _ acc -> if base_owner_of t loc = base then loc :: acc else acc)
      t.memory []
  in
  List.iter
    (fun loc ->
      Loc.Table.remove t.memory loc;
      t.stats.Node_stats.discards <- t.stats.Node_stats.discards + 1)
    mine;
  List.length mine

type view_outcome = View_ignored | View_adopted | View_demoted

let adopt_view t ~base ~epoch ~serving =
  if epoch <= t.view_epoch.(base) then View_ignored
  else begin
    let deposed = t.view_serving.(base) = t.id && serving <> t.id in
    t.view_epoch.(base) <- epoch;
    t.view_serving.(base) <- serving;
    trace t (Trace.Adopt_view { node = t.id; base; epoch; serving });
    if deposed then begin
      ignore (drop_served t ~base);
      trace t (Trace.Demote { node = t.id; base; serving });
      View_demoted
    end
    else View_adopted
  end

let promote t ~base ~epoch =
  if epoch <= t.view_epoch.(base) then invalid_arg "Node.promote: epoch must grow";
  t.view_epoch.(base) <- epoch;
  t.view_serving.(base) <- t.id;
  trace t (Trace.Promote { node = t.id; base; epoch });
  let inherited = shadow_entries t ~base in
  List.iter
    (fun (loc, (entry : Stamped.t)) ->
      (* Keep whichever copy is newest: the shadow holds every acknowledged
         write, but this node may also have cached the same value. *)
      (match Loc.Table.find_opt t.memory loc with
      | Some slot when not (Vclock.lt slot.entry.Stamped.stamp entry.Stamped.stamp) -> ()
      | Some _ | None -> store t loc entry);
      merge_clock t entry.Stamped.stamp;
      digest_observe t loc entry)
    inherited;
  Hashtbl.remove t.shadows base;
  (* Same conservative rule as write certification: anything cached that is
     older than the merged clock may have been overwritten. *)
  invalidate_older t (vt t);
  served_entries t ~base

(* Reconciliation on partition heal: merge one entry a demoted server
   shipped (FRONTIER) into served memory, newest-wins — the same rule
   {!promote} applies to inherited shadow copies.  The clock merge happens
   whether or not the copy wins, so the server's causal history covers
   everything the minority side certified before demotion. *)
let reconcile_served t loc (entry : Stamped.t) =
  if not (owns t loc) then false
  else begin
    let install =
      match Loc.Table.find_opt t.memory loc with
      | Some slot -> Vclock.lt slot.entry.Stamped.stamp entry.Stamped.stamp
      | None -> true
    in
    merge_clock t entry.Stamped.stamp;
    if install then begin
      store t loc entry;
      digest_observe t loc entry;
      trace t (Trace.Apply { node = t.id; loc; wid = entry.Stamped.wid });
      invalidate_older t entry.Stamped.stamp
    end;
    install
  end

(* {1 Durable-log integration} *)

let snapshot t =
  {
    Log_record.snap_clock = vt t;
    snap_view = view t;
    snap_served =
      Loc.Table.fold
        (fun loc slot acc -> if owns t loc then (loc, slot.entry) :: acc else acc)
        t.memory []
      |> List.sort (fun (a, _) (b, _) -> compare (Loc.to_string a) (Loc.to_string b));
    snap_shadows =
      Hashtbl.fold (fun base _ acc -> base :: acc) t.shadows []
      |> List.sort compare
      |> List.map (fun base -> (base, shadow_entries t ~base));
  }

(* Replay helper: reinstate a serving-side entry without the [owns] guards
   of the client-side install paths (the log is the authority here). *)
let restore_entry t loc (entry : Stamped.t) =
  store t loc entry;
  merge_clock t entry.Stamped.stamp;
  digest_observe t loc entry

let apply_record t (record : Log_record.t) =
  match record with
  | Log_record.Write { loc; entry } -> restore_entry t loc entry
  | Log_record.Clock clock -> merge_clock t clock
  | Log_record.View_change { base; epoch; serving } ->
      (* Replay applies view changes verbatim, in log order: a record that
         deposed this node precedes any write it logged afterwards. *)
      t.view_epoch.(base) <- epoch;
      t.view_serving.(base) <- serving;
      if serving = t.id && base <> t.id then begin
        (* This view change was our own promotion: re-install the shadow
           copies it inherited into served memory (the [Shadow_entry]
           records that fed them precede this record in log order), exactly
           as {!promote} did before the crash. *)
        List.iter (fun (loc, entry) -> restore_entry t loc entry) (shadow_entries t ~base);
        Hashtbl.remove t.shadows base
      end
  | Log_record.Shadow_entry { base; loc; entry } -> shadow_store t ~base loc entry
  | Log_record.Checkpoint snap ->
      merge_clock t snap.Log_record.snap_clock;
      List.iter
        (fun (base, epoch, serving) ->
          t.view_epoch.(base) <- epoch;
          t.view_serving.(base) <- serving)
        snap.Log_record.snap_view;
      List.iter (fun (loc, entry) -> restore_entry t loc entry) snap.Log_record.snap_served;
      List.iter
        (fun (base, entries) ->
          List.iter (fun (loc, entry) -> shadow_store t ~base loc entry) entries)
        snap.Log_record.snap_shadows

let reset_volatile t =
  (* Crash-stop restart.  Everything a restarted node held in memory is
     lost: the cache, the invalidation bookkeeping, the digest, the vector
     clock, the ownership view and the shadow copies.  Owner state is no
     longer a reason to refuse: the cluster layer replays the node's
     write-ahead log (see {!apply_record}) immediately after this reset, so
     certified writes, view changes and shadows all come back from stable
     storage.  The write and request counters deliberately survive so
     recycled writestamps or request tags can never collide with pre-crash
     traffic still in flight. *)
  Loc.Table.reset t.memory;
  Loc.Table.reset t.last_invalidated;
  Write_digest.reset t.digest;
  Vclock.Acc.reset t.clock;
  Array.fill t.view_epoch 0 (Array.length t.view_epoch) 0;
  Array.iteri (fun i _ -> t.view_serving.(i) <- i) t.view_serving;
  Hashtbl.reset t.shadows

let enforce_capacity t =
  match t.config.Config.discard with
  | Config.No_discard | Config.Periodic _ -> ()
  | Config.Capacity cap ->
      let cached =
        Loc.Table.fold
          (fun loc slot acc -> if owns t loc then acc else (loc, slot.last_touch) :: acc)
          t.memory []
      in
      let excess = List.length cached - cap in
      if excess > 0 then begin
        let by_age = List.sort (fun (_, a) (_, b) -> Int.compare a b) cached in
        List.iteri (fun i (loc, _) -> if i < excess then ignore (discard_one t loc)) by_age
      end

let install_read_reply t ~since ~digest entries =
  digest_merge t digest;
  (* The stale-install guard: retain the reply only if this node's clock
     holds the value it had when the request was sent. *)
  let unchanged = Vclock.Acc.unpin t.clock since in
  if t.config.Config.mutation = Config.Figure4_literal || unchanged then install_batch t entries
  else install_transient t entries;
  enforce_capacity t
