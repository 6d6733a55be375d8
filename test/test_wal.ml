(* Tests for Dsm_causal.Wal: the per-node write-ahead log on a simulated
   disk — append/replay ordering, checkpoint truncation, sync faults. *)

module Wal = Dsm_causal.Wal
module Stamped = Dsm_causal.Stamped
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid

let v i = Loc.indexed "v" i

let entry ?(pid = 0) ?(count = 1) value =
  Stamped.make ~value:(Value.Int value)
    ~stamp:(Vclock.of_array [| count; 0 |])
    ~wid:(Wid.make ~node:pid ~seq:count)

let write i value = Wal.Write { loc = v i; entry = entry value }

let test_append_replay_order () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Alcotest.(check int) "empty at creation" 0 (Wal.length log);
  Wal.append log (write 0 1);
  Wal.append log (Wal.Clock (Vclock.of_array [| 2; 0 |]));
  Wal.append log (write 1 2);
  Alcotest.(check int) "three records" 3 (Wal.length log);
  Alcotest.(check int) "three appends" 3 (Wal.appends log);
  match Wal.replay log with
  | [ Wal.Write { loc = l0; _ }; Wal.Clock _; Wal.Write { loc = l1; _ } ] ->
      Alcotest.(check string) "oldest first" "v.0" (Loc.to_string l0);
      Alcotest.(check string) "newest last" "v.1" (Loc.to_string l1)
  | _ -> Alcotest.fail "replay shape/order wrong"

let test_logs_are_per_node () =
  let disk = Wal.Disk.create () in
  let l0 = Wal.attach disk ~node:0 in
  let l1 = Wal.attach disk ~node:1 in
  Wal.append l0 (write 0 1);
  Alcotest.(check int) "node 1 unaffected" 0 (Wal.length l1);
  (* Re-attach (a restart) finds the same contents. *)
  let l0' = Wal.attach disk ~node:0 in
  Alcotest.(check int) "re-attach sees the log" 1 (Wal.length l0');
  Alcotest.(check int) "node id" 0 (Wal.node l0')

let snap ?(served = []) ?(shadows = []) () =
  {
    Wal.snap_clock = Vclock.of_array [| 5; 0 |];
    snap_view = [ (0, 1, 1) ];
    snap_served = served;
    snap_shadows = shadows;
  }

let test_checkpoint_and_compact () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  for k = 1 to 4 do
    Wal.append log (write 0 k)
  done;
  (* A checkpoint only appends a snapshot; truncation is [compact]'s job. *)
  Wal.checkpoint log (snap ~served:[ (v 0, entry 4) ] ());
  Alcotest.(check int) "checkpoint appends, nothing dropped yet" 5 (Wal.length log);
  Alcotest.(check int) "one checkpoint" 1 (Wal.checkpoints log);
  Alcotest.(check int) "four dropped" 4 (Wal.compact log);
  Alcotest.(check int) "log is one snapshot" 1 (Wal.length log);
  Alcotest.(check int) "four truncated" 4 (Wal.truncated log);
  Alcotest.(check int) "one compaction" 1 (Wal.compactions log);
  Alcotest.(check int) "re-compaction is a no-op" 0 (Wal.compact log);
  Alcotest.(check int) "no-op compactions not counted" 1 (Wal.compactions log);
  Wal.append log (write 0 5);
  (match Wal.replay log with
  | [ Wal.Checkpoint s; Wal.Write _ ] ->
      Alcotest.(check int) "snapshot carries served entries" 1 (List.length s.Wal.snap_served)
  | _ -> Alcotest.fail "expected checkpoint then the fresh write");
  Alcotest.(check int) "appends exclude checkpoints" 5 (Wal.appends log)

(* Satellite regression: replay consumes the snapshot plus only the suffix
   behind it, so recovery work is bounded by records-since-checkpoint even
   when compaction never ran and the physical log keeps growing. *)
let test_replay_bounded_by_checkpoint () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  for k = 1 to 100 do
    Wal.append log (write 0 k)
  done;
  Wal.checkpoint log (snap ());
  for k = 1 to 3 do
    Wal.append log (write 1 k)
  done;
  Alcotest.(check int) "full log retained (no compaction ran)" 104 (Wal.length log);
  Alcotest.(check int) "records since checkpoint" 3 (Wal.records_since_checkpoint log);
  match Wal.replay log with
  | Wal.Checkpoint _ :: rest ->
      Alcotest.(check int) "replay = snapshot + bounded suffix" 3 (List.length rest)
  | _ -> Alcotest.fail "replay must start at the anchor checkpoint"

(* A torn snapshot is physically present but invalid: recovery must anchor
   at the previous complete checkpoint, skip the torn record, and keep
   every append around it — no data loss. *)
let test_torn_checkpoint_falls_back () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Wal.append log (write 0 1);
  Wal.checkpoint log (snap ~served:[ (v 0, entry 1) ] ());
  Wal.append log (write 0 2);
  (* The second snapshot tears; the writer believes it succeeded. *)
  Wal.Disk.tear_next_checkpoints disk 1;
  Wal.checkpoint log (snap ~served:[ (v 0, entry ~count:2 2) ] ());
  Wal.append log (write 0 3);
  Alcotest.(check int) "both checkpoints written" 2 (Wal.checkpoints log);
  Alcotest.(check int) "one tore" 1 (Wal.torn_checkpoints log);
  Alcotest.(check int) "suffix measured from the good anchor" 3
    (Wal.records_since_checkpoint log);
  (match Wal.replay log with
  | [ Wal.Checkpoint s; Wal.Write _; Wal.Write _ ] ->
      (match s.Wal.snap_served with
      | [ (_, e) ] ->
          Alcotest.(check bool) "the complete snapshot, not the torn one" true
            (e.Stamped.value = Value.Int 1)
      | _ -> Alcotest.fail "unexpected snapshot contents")
  | _ -> Alcotest.fail "replay must fall back to the complete checkpoint");
  (* Compaction must never cut past the complete anchor: only the prefix
     older than it goes, the torn record and the appends stay. *)
  Alcotest.(check int) "only the pre-anchor prefix dropped" 1 (Wal.compact log);
  Alcotest.(check int) "torn record and suffix retained" 4 (Wal.length log);
  Alcotest.(check int) "replay unchanged after compaction" 3
    (List.length (Wal.replay log))

(* Pins the retention cut [compact ?extra] models: [extra = 1] is exactly
   the [Truncate_wal_early] off-by-one — it drops the anchor checkpoint
   itself and replay loses the snapshotted state. *)
let test_compact_extra_cuts_anchor () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Alcotest.(check int) "nothing to compact without an anchor" 0 (Wal.compact log);
  Alcotest.check_raises "negative extra"
    (Invalid_argument "Wal.compact: extra must be >= 0") (fun () ->
      ignore (Wal.compact ~extra:(-1) log));
  Wal.append log (write 0 1);
  Wal.checkpoint log (snap ~served:[ (v 0, entry 1) ] ());
  Alcotest.(check int) "the faulty cut drops the anchor too" 2
    (Wal.compact ~extra:1 log);
  Alcotest.(check int) "replay lost the snapshot" 0 (List.length (Wal.replay log))

(* A corrupted record is physically present and the writer saw success,
   but its stored checksum disagrees with its contents (bit rot, a
   misdirected write): only the recovery-time checksum walk can tell, and
   it must skip the record while keeping everything around it. *)
let test_corrupted_record_skipped () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Wal.Disk.corrupt_next_records: n must be >= 0") (fun () ->
      Wal.Disk.corrupt_next_records disk (-1));
  Wal.append log (write 0 1);
  Wal.Disk.corrupt_next_records disk 1;
  Wal.append log (write 1 2);
  Wal.append log (write 2 3);
  Alcotest.(check int) "the injected corruption fired once" 1 (Wal.Disk.corruptions disk);
  Alcotest.(check int) "all three records physically present" 3 (Wal.length log);
  Alcotest.(check int) "the checksum walk flags exactly one" 1 (Wal.corrupted_records log);
  match Wal.replay log with
  | [ Wal.Write { loc = a; _ }; Wal.Write { loc = b; _ } ] ->
      Alcotest.(check string) "first survivor" "v.0" (Loc.to_string a);
      Alcotest.(check string) "second survivor" "v.2" (Loc.to_string b)
  | _ -> Alcotest.fail "replay must skip exactly the corrupted record"

let test_corrupted_checkpoint_falls_back () =
  (* Like a torn checkpoint, a corrupted one must never anchor recovery:
     replay falls back to the previous complete snapshot and keeps the
     appends around the damage. *)
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Wal.append log (write 0 1);
  Wal.checkpoint log (snap ~served:[ (v 0, entry 1) ] ());
  Wal.append log (write 0 2);
  Wal.Disk.corrupt_next_records disk 1;
  Wal.checkpoint log (snap ~served:[ (v 0, entry ~count:2 2) ] ());
  Wal.append log (write 0 3);
  Alcotest.(check int) "both checkpoints written" 2 (Wal.checkpoints log);
  Alcotest.(check int) "no tear — this is bit rot" 0 (Wal.torn_checkpoints log);
  Alcotest.(check int) "one corrupted record" 1 (Wal.corrupted_records log);
  Alcotest.(check int) "suffix measured from the good anchor" 3
    (Wal.records_since_checkpoint log);
  match Wal.replay log with
  | [ Wal.Checkpoint s; Wal.Write _; Wal.Write _ ] -> (
      match s.Wal.snap_served with
      | [ (_, e) ] ->
          Alcotest.(check bool) "anchored on the complete snapshot" true
            (e.Stamped.value = Value.Int 1)
      | _ -> Alcotest.fail "unexpected snapshot contents")
  | _ -> Alcotest.fail "replay must fall back to the complete checkpoint"

let test_append_rejects_checkpoint_record () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Alcotest.check_raises "checkpoint record via append"
    (Invalid_argument "Wal.append: use Wal.checkpoint for snapshots") (fun () ->
      Wal.append log (Wal.Checkpoint (snap ())))

let test_sync_fault_loses_append () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:3 in
  Wal.append log (write 0 1);
  Wal.Disk.fail_next_syncs disk 2;
  Alcotest.(check bool) "first faulted append raises" true
    (try
       Wal.append log (write 0 2);
       false
     with Wal.Sync_failed n -> n = 3);
  (* A faulted checkpoint leaves the previous log intact. *)
  Alcotest.(check bool) "faulted checkpoint raises" true
    (try
       Wal.checkpoint log (snap ());
       false
     with Wal.Sync_failed _ -> true);
  Alcotest.(check int) "nothing was logged by faulted syncs" 1 (Wal.length log);
  Alcotest.(check int) "failures counted" 2 (Wal.Disk.sync_failures disk);
  (* The fault budget is spent: syncs work again. *)
  Wal.append log (write 0 3);
  Alcotest.(check int) "append works after the faults" 2 (Wal.length log)

(* The disk keeps encoded images, not live records: every record kind
   comes back from replay structurally equal and in append order.  The
   stamps cross every varint width (0, 127, 128, 16383, 16384 and beyond),
   and the writes cover every value and location shape. *)
let wide_entry value stamp wid = Stamped.make ~value ~stamp:(Vclock.of_array stamp) ~wid

let every_kind () =
  [
    write 0 1;
    Wal.Clock (Vclock.of_array [| 3; 1 |]);
    Wal.View_change { base = 1; epoch = 2; serving = 0 };
    Wal.Shadow_entry { base = 1; loc = v 4; entry = entry ~pid:1 ~count:2 7 };
    Wal.Clock (Vclock.of_array [| 0; 127; 128; 16383; 16384; 1 lsl 40; max_int |]);
    Wal.Write
      {
        loc = Loc.named "flag";
        entry = wide_entry (Value.Float (-0.5)) [| 128; 0 |] Wid.initial;
      };
    Wal.Write
      {
        loc = Loc.cell "dict" 2 (-3);
        entry = wide_entry (Value.Str "λ, x") [| 16384; 127 |] (Wid.make ~node:1 ~seq:70000);
      };
    Wal.Shadow_entry
      { base = 0; loc = v 5; entry = wide_entry (Value.Int min_int) [| 0; 200 |] Wid.initial };
    Wal.Write { loc = v 6; entry = wide_entry (Value.Bool true) [| 1; 1 |] Wid.initial };
    Wal.Write { loc = v 7; entry = wide_entry Value.Free [| 2; 2 |] Wid.initial };
  ]

let rich_snap () =
  snap
    ~served:
      [
        (v 0, entry 1);
        (v 1, entry ~count:3 2);
        (v 2, wide_entry (Value.Int 3) [| 300; 20000 |] (Wid.make ~node:0 ~seq:9));
      ]
    ~shadows:[ (1, [ (v 4, entry ~pid:1 7) ]) ]
    ()

let test_image_round_trip () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  List.iter (Wal.append log) (every_kind ());
  Alcotest.(check bool) "no checkpoint: the whole log, in order" true
    (Wal.replay log = every_kind ());
  Wal.checkpoint log (rich_snap ());
  List.iter (Wal.append log) (every_kind ());
  Alcotest.(check bool) "snapshot with view and shadows, then the suffix" true
    (Wal.replay log = Wal.Checkpoint (rich_snap ()) :: every_kind ())

(* Replay decodes fresh values: nothing the node holds (or later mutates)
   is shared with the log. *)
let test_replay_does_not_alias () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  let e = entry 5 in
  let s = rich_snap () in
  Wal.append log (Wal.Write { loc = v 0; entry = e });
  Wal.checkpoint log s;
  Wal.append log (Wal.Write { loc = v 1; entry = e });
  match Wal.replay log with
  | [ Wal.Checkpoint s'; Wal.Write { entry = e'; _ } ] ->
      Alcotest.(check bool) "equal entry" true (e' = e);
      Alcotest.(check bool) "entry not shared" false (e' == e);
      Alcotest.(check bool) "stamp not shared" false (e'.Stamped.stamp == e.Stamped.stamp);
      Alcotest.(check bool) "snapshot clock not shared" false
        (s'.Wal.snap_clock == s.Wal.snap_clock)
  | _ -> Alcotest.fail "unexpected replay shape"

(* Torn and corrupted images are skipped exactly as before, and what
   survives decodes to the records that were written. *)
let test_faulty_images_skipped () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  Wal.append log (write 0 1);
  Wal.checkpoint log (rich_snap ());
  Wal.append log (write 1 2);
  Wal.Disk.corrupt_next_records disk 1;
  Wal.append log (write 2 3);
  Wal.Disk.tear_next_checkpoints disk 1;
  Wal.checkpoint log (snap ());
  Wal.append log (write 3 4);
  Alcotest.(check int) "one corrupted image" 1 (Wal.corrupted_records log);
  Alcotest.(check int) "one torn image" 1 (Wal.torn_checkpoints log);
  Alcotest.(check bool) "anchor on the complete snapshot, skip both faults" true
    (Wal.replay log = [ Wal.Checkpoint (rich_snap ()); write 1 2; write 3 4 ])

(* The disk holds images, not boxed clocks: a log of [n] writes with
   256-wide stamps (components 1 to 455) costs 75 words a record, where
   the live stamps alone would pin 257.  The bound is the measured cost
   (14,845 words for 200 records): the varint stamp codec spends one byte
   per component below 128 and two below 16384. *)
let test_image_size_bound () =
  let disk = Wal.Disk.create () in
  let log = Wal.attach disk ~node:0 in
  let n = 200 in
  for k = 1 to n do
    let stamp = Vclock.of_array (Array.init 256 (fun i -> k + i)) in
    let entry = Stamped.make ~value:(Value.Int k) ~stamp ~wid:(Wid.make ~node:0 ~seq:k) in
    Wal.append log (Wal.Write { loc = v k; entry })
  done;
  let words = Obj.reachable_words (Obj.repr log) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d records, bound %d" words n (n * 75))
    true
    (words <= n * 75)

(* Random append/checkpoint/compact/tear/corrupt sequences against a
   list model: the O(1) counters equal a walk over the model log. *)
type step = Append | Checkpoint | Compact | Tear of int | Corrupt of int

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (6, return Append);
        (3, return Checkpoint);
        (2, return Compact);
        (1, map (fun n -> Tear n) (int_bound 2));
        (1, map (fun n -> Corrupt n) (int_bound 2));
      ])

let show_step = function
  | Append -> "append"
  | Checkpoint -> "checkpoint"
  | Compact -> "compact"
  | Tear n -> Printf.sprintf "tear %d" n
  | Corrupt n -> Printf.sprintf "corrupt %d" n

(* One model cell, newest first: is it a checkpoint, and is it valid. *)
type cell = { cp : bool; valid : bool }

let prop_counters_match_walk =
  QCheck.Test.make ~name:"wal counters equal a list walk" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list show_step)
       QCheck.Gen.(list_size (int_bound 60) gen_step))
    (fun steps ->
      let disk = Wal.Disk.create () in
      let log = Wal.attach disk ~node:0 in
      let model = ref [] and tears = ref 0 and corrupts = ref 0 in
      let take r = if !r > 0 then (decr r; true) else false in
      let anchor () =
        let rec find i = function
          | [] -> None
          | c :: rest -> if c.cp && c.valid then Some i else find (i + 1) rest
        in
        find 0 !model
      in
      let agrees () =
        let len = List.length !model in
        let since = match anchor () with None -> len | Some i -> i in
        let suffix = List.filteri (fun j _ -> j <= since) !model in
        Wal.length log = len
        && Wal.length log = Wal.appends log + Wal.checkpoints log - Wal.truncated log
        && Wal.records_since_checkpoint log = since
        && List.length (Wal.replay log) = List.length (List.filter (fun c -> c.valid) suffix)
      in
      let push cell =
        model := cell :: !model;
        true
      in
      List.for_all
        (fun step ->
          let step_ok =
            match step with
            | Append ->
                Wal.append log (write 0 1);
                push { cp = false; valid = not (take corrupts) }
            | Checkpoint ->
                Wal.checkpoint log (snap ());
                let torn = take tears in
                let corrupt = take corrupts in
                push { cp = true; valid = not (torn || corrupt) }
            | Compact ->
                let dropped = Wal.compact log in
                let keep = match anchor () with None -> List.length !model | Some i -> i + 1 in
                let expected = List.length !model - keep in
                model := List.filteri (fun j _ -> j < keep) !model;
                dropped = expected
            | Tear n ->
                Wal.Disk.tear_next_checkpoints disk n;
                tears := n;
                true
            | Corrupt n ->
                Wal.Disk.corrupt_next_records disk n;
                corrupts := n;
                true
          in
          step_ok && agrees ())
        steps)

(* The image codec over arbitrary ints: every varint width, negative
   values through the zigzag mapping, and stamps of any dimension. *)
let prop_image_codec_round_trip =
  let open QCheck.Gen in
  let any_int = oneof [ int; int_range (-300) 300; map (fun k -> 1 lsl k) (int_range 0 61) ] in
  let stamp = map Array.of_list (list_size (int_range 1 40) (oneof [ nat; any_int ])) in
  let value =
    oneof
      [
        map (fun i -> Value.Int i) any_int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) string;
        return Value.Free;
        map (fun b -> Value.Bool b) bool;
      ]
  in
  let record =
    map3
      (fun (name, i) (value, stamp) (node, seq) ->
        Wal.Write
          {
            loc = Loc.cell name i (-i);
            entry =
              Stamped.make ~value ~stamp:(Vclock.of_array stamp)
                ~wid:(if node < 0 then Wid.initial else Wid.make ~node ~seq);
          })
      (pair (string_size (int_range 0 12)) any_int)
      (pair value stamp) (pair any_int any_int)
  in
  QCheck.Test.make ~name:"image codec round trip" ~count:300 (QCheck.make record) (fun r ->
      (* Compare images, not records: a NaN float is not [=] to itself. *)
      let image = Dsm_causal.Log_record.encode r in
      Dsm_causal.Log_record.encode (Dsm_causal.Log_record.decode image) = image)

let suite =
  [
    Alcotest.test_case "append/replay order" `Quick test_append_replay_order;
    Alcotest.test_case "logs are per node" `Quick test_logs_are_per_node;
    Alcotest.test_case "checkpoint and compact" `Quick test_checkpoint_and_compact;
    Alcotest.test_case "replay bounded by checkpoint" `Quick test_replay_bounded_by_checkpoint;
    Alcotest.test_case "torn checkpoint falls back" `Quick test_torn_checkpoint_falls_back;
    Alcotest.test_case "compact extra cuts anchor" `Quick test_compact_extra_cuts_anchor;
    Alcotest.test_case "corrupted record skipped" `Quick test_corrupted_record_skipped;
    Alcotest.test_case "corrupted checkpoint falls back" `Quick
      test_corrupted_checkpoint_falls_back;
    Alcotest.test_case "append rejects checkpoint" `Quick test_append_rejects_checkpoint_record;
    Alcotest.test_case "sync fault loses append" `Quick test_sync_fault_loses_append;
    Alcotest.test_case "image round trip" `Quick test_image_round_trip;
    Alcotest.test_case "replay does not alias" `Quick test_replay_does_not_alias;
    Alcotest.test_case "faulty images skipped" `Quick test_faulty_images_skipped;
    Alcotest.test_case "image size bound" `Quick test_image_size_bound;
    QCheck_alcotest.to_alcotest ~long:false prop_counters_match_walk;
    QCheck_alcotest.to_alcotest ~long:false prop_image_codec_round_trip;
  ]
