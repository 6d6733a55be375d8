module P = Dsm_protocol.Protocol
module Config = Dsm_protocol.Config
module Detector = Dsm_protocol.Detector
module Owner = Dsm_memory.Owner
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Prng = Dsm_util.Prng

type op = Read of Loc.t | Write of Loc.t * Value.t | Query of string

type fault =
  | No_faults
  | Crash of { victim : int; restart : bool }
  | Drop of { drops : int; dups : int }
  | Power
  | Partition of { minority : int list; majority : int list }

type scope = {
  sname : string;
  nodes : int;
  owner : Owner.t;
  programs : op list array;
  fault : fault;
  failover : bool;
  mutation : Config.mutation;
  shards : int;  (* <= 1: unsharded (full replication) *)
  precise : bool;  (* run under [Config.Precise] invalidation *)
  policy : Dsm_protocol.Policy.t;
}

let default_detector = { Detector.period = 5.0; suspect_after = 3 }

(* ------------------------------------------------------------------ *)
(* Random closed-loop event schedules (shared with test_protocol)      *)
(* ------------------------------------------------------------------ *)

let fresh_state ?(nodes = 4) () =
  P.create ~owner:(Owner.by_index ~nodes) ~config:Config.default ~detector:default_detector
    ~now:0.0 ()

(* Drive one random run against a fresh state, returning the event
   sequence (oldest first) and the action list each event produced.
   [Send] actions feed back as future [Deliver]s, [Arm_grace] as
   [Grace_expired]; everything is drawn from the seeded PRNG, so a given
   (nodes, seed, steps) triple regenerates bit-identically. *)
let random_run ?(nodes = 4) ~seed ~steps () =
  let prng = Prng.create seed in
  let st = fresh_state ~nodes () in
  let loc i = Loc.indexed "v" i in
  let pending = ref [] (* in-flight (dst, src, msg) *) in
  let graces = ref [] (* armed (node, seq) *) in
  let events = ref [] in
  let actions = ref [] in
  let now = ref 0.0 in
  let writers = ref 0 in
  let apply ev =
    events := ev :: !events;
    let _, acts = P.step st ev in
    actions := acts :: !actions;
    List.iter
      (function
        | P.Send { src; dst; msg; _ } -> pending := (dst, src, msg) :: !pending
        | P.Arm_grace { node; seq } -> graces := (node, seq) :: !graces
        | _ -> ())
      acts
  in
  let take_nth r i =
    let x = List.nth !r i in
    r := List.filteri (fun j _ -> j <> i) !r;
    x
  in
  (* A base still under its static owner, not crashed, if any. *)
  let writable_node () =
    let taken_over = List.map (fun (b, _, _) -> b) (P.view st) in
    let candidates =
      List.init nodes Fun.id
      |> List.filter (fun n -> (not (P.is_crashed st n)) && not (List.mem n taken_over))
    in
    match candidates with
    | [] -> None
    | cs -> Some (List.nth cs (Prng.int prng (List.length cs)))
  in
  for _ = 1 to steps do
    now := !now +. Prng.float prng 2.0;
    let choice = Prng.int prng 100 in
    if choice < 40 && !pending <> [] then begin
      let dst, src, msg = take_nth pending (Prng.int prng (List.length !pending)) in
      apply (P.Deliver { dst; src; now = !now; msg })
    end
    else if choice < 60 then begin
      match writable_node () with
      | Some n ->
          incr writers;
          apply
            (P.Client_write
               {
                 node = n;
                 op = !writers;
                 loc = loc ((Prng.int prng 2 * nodes) + n);
                 value = Value.Int !writers;
               })
      | None -> ()
    end
    else if choice < 70 && !graces <> [] then begin
      let node, seq = take_nth graces (Prng.int prng (List.length !graces)) in
      apply (P.Grace_expired { node; seq })
    end
    else if choice < 76 then begin
      (* Crash someone who is up (but never everyone at once). *)
      let up = List.init nodes Fun.id |> List.filter (fun n -> not (P.is_crashed st n)) in
      if List.length up > 1 then
        apply (P.Crash { node = List.nth up (Prng.int prng (List.length up)) })
    end
    else if choice < 82 then begin
      let down = List.init nodes Fun.id |> List.filter (P.is_crashed st) in
      if down <> [] then
        apply
          (P.Restart
             {
               node = List.nth down (Prng.int prng (List.length down));
               now = !now;
               records = [];
             })
    end
    else apply (P.Hb_tick { node = Prng.int prng nodes; now = !now })
  done;
  (List.rev !events, List.rev !actions)

(* ------------------------------------------------------------------ *)
(* Small-scope programs                                                *)
(* ------------------------------------------------------------------ *)

let x = Loc.named "x"
let y = Loc.named "y"
let z = Loc.named "z"

let owner_fn ~nodes assign = Owner.make ~nodes (fun loc -> assign loc)

let make sname ~owner programs =
  {
    sname;
    nodes = Array.length programs;
    owner;
    programs;
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
    policy = Dsm_protocol.Policy.Last_writer_wins;
  }

(* Message passing: one writer publishes x then y, one reader consumes in
   the opposite order.  Both locations live at the writer. *)
let mp =
  make "mp"
    ~owner:(owner_fn ~nodes:2 (fun _ -> 0))
    [| [ Write (x, Value.Int 1); Write (y, Value.Int 2) ]; [ Read y; Read x ] |]

(* Publication with a re-read: the reader caches the old y, sees the new x,
   then reads y again — the cached copy must have been invalidated.
   Catches [Skip_invalidation]. *)
let publication =
  make "publication"
    ~owner:(owner_fn ~nodes:2 (fun _ -> 0))
    [| [ Write (y, Value.Int 1); Write (x, Value.Int 2) ]; [ Read y; Read x; Read y ] |]

(* Three-party race: the x-writer's causal history (it read y=3) must ride
   on its writestamp so the owner's certified entry invalidates the
   reader's stale cached y.  Catches [Skip_writestamp_merge].  It is also
   the race of DESIGN.md's "Findings": node 1 certifies w(x)5 while its own
   read of y is in flight, so the late reply must not be cached.  Catches
   [Figure4_literal] (the reply is cached anyway) and [Skip_install_merge]
   (the reply's stamp never reaches node 1's clock). *)
let race =
  make "race"
    ~owner:
      (owner_fn ~nodes:3 (fun loc ->
           if Loc.equal loc x then 1 else if Loc.equal loc y then 2 else 0))
    [|
      [ Read y; Write (x, Value.Int 5) ];
      [ Read y; Read x; Read y ];
      [ Write (y, Value.Int 1); Write (y, Value.Int 3) ];
    |]

(* Owner crash with takeover: node 2 writes x (served by the victim) then y
   (served by the backup); the backup reads y then x after promoting.  The
   acknowledged w(x)1 must survive the takeover — catches
   [Reorder_apply_ack] and [Skip_shadow_replication]. *)
let failover =
  {
    (make "failover"
       ~owner:
         (owner_fn ~nodes:3 (fun loc ->
              if Loc.equal loc x then 0 else if Loc.equal loc y then 1 else 0))
       [| []; [ Read y; Read x ]; [ Write (x, Value.Int 1); Write (y, Value.Int 2) ] |])
    with
    fault = Crash { victim = 0; restart = false };
    failover = true;
  }

(* Crash, takeover, restart: the restarted (deposed) node 0 must fence
   reads arriving under its old epoch instead of fabricating answers for
   locations it no longer serves.  Catches [Ignore_epoch_fence]. *)
let fence =
  {
    (make "fence"
       ~owner:
         (owner_fn ~nodes:4 (fun loc ->
              if Loc.equal loc x then 0 else if Loc.equal loc y then 1 else 0))
       [| []; []; [ Write (x, Value.Int 1); Write (y, Value.Int 2) ]; [ Read y; Read x ] |])
    with
    fault = Crash { victim = 0; restart = true };
    failover = true;
  }

(* A backup promoted while its own write to the failed owner is in flight:
   node 1, the backup of node 0 (which serves x), writes x; node 0
   certifies it, shadows it to node 1, replies and crashes; node 1 promotes
   over base 0 before the W_REPLY lands.  The reply leaves only after the
   shadow is acknowledged, so node 1 already serves the write: the reply
   must complete the op without caching a copy of a location node 1 now
   owns. *)
let takeover =
  {
    (make "takeover" ~owner:(owner_fn ~nodes:3 (fun _ -> 0))
       [| []; [ Write (x, Value.Int 1) ]; [] |])
    with
    fault = Crash { victim = 0; restart = false };
    failover = true;
  }

(* Message passing under a lossy, duplicating link with small budgets. *)
let lossy =
  {
    mp with
    sname = "lossy";
    fault = Drop { drops = 1; dups = 1 };
  }

(* Checkpoint, then crash everywhere: the writer's w(x)1 is certified and
   logged at node 0; a coordinated checkpoint folds it into a snapshot and
   compaction truncates the log behind it; the outage wipes every volatile
   state at once.  After repowering, the reader's second r(x) must still
   see a value at least as new as its first — replay from the snapshot
   guarantees it.  Catches [Truncate_wal_early], whose compaction cut
   drops the anchor checkpoint itself and loses the snapshotted write. *)
let power =
  {
    (make "power" ~owner:(owner_fn ~nodes:2 (fun _ -> 0))
       [| [ Write (x, Value.Int 1) ]; [ Read x; Read x ] |])
    with
    fault = Power;
  }

(* Network partition with quorum-gated takeover: every location served by
   node 0, which the cut isolates from the majority {1, 2} (node 1 is its
   designated backup).  During the partition the isolated owner tries to
   write x, while the majority elects node 1 over base 0 with ⌊3/2⌋+1 = 2
   OWNER_VOTE grants; node 0's own counter-canvass (over base 2, whose
   backup it is) can never exceed its lone self-vote, so the minority side
   stays read-only.  Safety hinges on node 0 observing quorum loss and
   degrading before the majority-side promotion completes (the
   lease-timing assumption the explorer's Degrade-before-Takeover gate
   encodes): a degraded node 0 refuses its own write, so the base never
   has two write-accepting servers.  Node 2 reads x to exercise the
   post-heal fencing and frontier-reconciliation paths.  Catches
   [Takeover_without_quorum], which promotes on suspicion alone — the
   promotion then races ahead of the minority owner's degrade and both
   sides accept writes, the split-brain the dual-certification invariant
   flags. *)
let partition =
  {
    (make "partition" ~owner:(owner_fn ~nodes:3 (fun _ -> 0))
       [| [ Write (x, Value.Int 1) ]; []; [ Read x ] |])
    with
    fault = Partition { minority = [ 0 ]; majority = [ 1; 2 ] };
    failover = true;
  }

(* Partial replication: 4 nodes in 2 shards (rings {0,1} and {2,3}); the
   indexed family "s" stripes by index mod 2, so s[0] and s[4] both live in
   shard 0 with base owner 0 under the induced map.  Node 1 (a ring member
   of shard 0) publishes y=s[0] then x=s[4]; node 3 (ring of shard 1, {e
   not} born into shard 0's share-set) reads y, x, y — its first read
   subscribes it on access, so shard 0's precise-invalidation digests must
   keep flowing to it.  Runs under [Config.Precise], where invalidation of
   cached copies is digest-driven: [Prune_share_set_wrongly] filters reply
   digests as if runtime subscribers were not in the share-set, node 3's
   cached stale y survives the x read that causally follows the newer
   write, and the third read violates causality. *)
let shard_scope =
  let sy = Loc.indexed "s" 0 in
  let sx = Loc.indexed "s" 4 in
  let layout = Dsm_memory.Shard.make ~nodes:4 ~shards:2 in
  {
    (make "shard" ~owner:(Dsm_memory.Shard.owner layout)
       [| []; [ Write (sy, Value.Int 1); Write (sx, Value.Int 2) ]; []; [ Read sy; Read sx; Read sy ] |])
    with
    shards = 2;
    precise = true;
  }

(* Causal objects: both nodes append an increment to their own op-log cell
   of the counter family ("ctr", see lib/objects), probe the other's cell
   and query.  The query folds the probed payloads through the counter
   spec; the generalized checker certifies every interleaving's return
   against the causal-past-linearization rule.  Catches [Merge_drops_op],
   the client-side merge bug that folds one observed update short — each
   probe read stays register-legal, so only the object layer sees it. *)
let objects_scope =
  let c0 = Loc.cell "ctr" 0 0 in
  let c1 = Loc.cell "ctr" 1 0 in
  make "objects"
    ~owner:(owner_fn ~nodes:2 (fun _ -> 0))
    [|
      [ Write (c0, Value.Str "inc"); Read c1; Query "ctr" ];
      [ Write (c1, Value.Str "inc"); Read c0; Query "ctr" ];
    |]

let presets =
  [
    mp; publication; race; failover; fence; takeover; lossy; power; partition; shard_scope;
    objects_scope;
  ]

let preset name = List.find_opt (fun s -> s.sname = name) presets

(* Which preset exhibits each mutation: the matrix the checker must ace. *)
let matrix =
  [
    (Config.Skip_invalidation, "publication");
    (Config.Skip_writestamp_merge, "race");
    (Config.Reorder_apply_ack, "failover");
    (Config.Skip_shadow_replication, "failover");
    (Config.Ignore_epoch_fence, "fence");
    (Config.Truncate_wal_early, "power");
    (Config.Takeover_without_quorum, "partition");
    (Config.Prune_share_set_wrongly, "shard");
    (Config.Merge_drops_op, "objects");
    (Config.Figure4_literal, "race");
    (Config.Skip_install_merge, "race");
  ]

(* A generic message-passing-flavoured scope: node 0 alternates writes over
   x and y, everyone else reads them in anti-phase. *)
let generic ~nodes ~ops ~fault =
  if nodes < 2 then invalid_arg "Gen.generic: need at least 2 nodes";
  let owner = owner_fn ~nodes (fun loc -> if Loc.equal loc y then 1 mod nodes else 0) in
  let program i =
    List.init ops (fun j ->
        if i = 0 then Write ((if j mod 2 = 0 then x else y), Value.Int (j + 1))
        else if i = 1 then Read (if j mod 2 = 0 then y else x)
        else Read (if j mod 2 = 0 then x else y))
  in
  let failover = match fault with Crash _ -> true | _ -> false in
  {
    (make (Printf.sprintf "generic-%dx%d" nodes ops) ~owner (Array.init nodes program)) with
    fault;
    failover;
  }
