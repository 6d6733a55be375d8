module Stamped = Dsm_protocol.Stamped
module Log_record = Dsm_protocol.Log_record

(* The record types live in {!Log_record} (the pure protocol library, which
   cannot see this module's effects); re-exported here with type equations
   so [Wal.Write]/[Wal.snapshot] keep meaning what they always did. *)
type snapshot = Log_record.snapshot = {
  snap_clock : Vclock.t;
  snap_view : (int * int * int) list;
  snap_served : (Dsm_memory.Loc.t * Stamped.t) list;
  snap_shadows : (int * (Dsm_memory.Loc.t * Stamped.t) list) list;
}

type record = Log_record.t =
  | Write of { loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Clock of Vclock.t
  | View_change of { base : int; epoch : int; serving : int }
  | Shadow_entry of { base : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Checkpoint of snapshot

exception Sync_failed of int

(* One durable cell: the record's image, whether it is a checkpoint, its
   validity, and the per-record checksum written alongside it.  The image
   is {!Log_record.encode}'s byte string: a tag byte per variant, then the
   fields in order, integers as LEB128 varints and every writestamp as its
   dimension plus one unsigned varint per component (one byte below 128,
   two below 16384).  The disk holds bytes, not the live record: a stamp
   the owner has since overwritten is not kept reachable, and nothing the
   node later mutates can change what the log says.  A torn checkpoint is
   physically present (the writer believed the sync succeeded) but fails
   its checksum when recovery reads it back; a corrupted record (bit rot,
   a misdirected write) has its stored checksum disagree with its image.
   Replay and compaction skip both. *)
type entry = { image : string; checkpoint : bool; torn : bool; crc : string }

(* One node's log: entries newest-first (append is a cons), the number of
   entries physically present, and lifetime counters that survive
   compaction. *)
type log = {
  log_node : int;
  mutable entries : entry list; (* newest first *)
  mutable live : int; (* List.length entries *)
  mutable appends : int;
  mutable checkpoints : int;
  mutable torn_cps : int;
  mutable compactions : int;
  mutable truncated : int;
}

module Disk = struct
  type t = {
    logs : (int, log) Hashtbl.t;
    mutable fail_syncs : int;
    mutable sync_failures : int;
    mutable tear_checkpoints : int;
    mutable corrupt_records : int;
    mutable corruptions : int;
  }

  let create () =
    {
      logs = Hashtbl.create 8;
      fail_syncs = 0;
      sync_failures = 0;
      tear_checkpoints = 0;
      corrupt_records = 0;
      corruptions = 0;
    }

  let fail_next_syncs t n =
    if n < 0 then invalid_arg "Wal.Disk.fail_next_syncs: n must be >= 0";
    t.fail_syncs <- n

  let sync_failures t = t.sync_failures

  let tear_next_checkpoints t n =
    if n < 0 then invalid_arg "Wal.Disk.tear_next_checkpoints: n must be >= 0";
    t.tear_checkpoints <- n

  let corrupt_next_records t n =
    if n < 0 then invalid_arg "Wal.Disk.corrupt_next_records: n must be >= 0";
    t.corrupt_records <- n

  let corruptions t = t.corruptions
end

type t = { disk : Disk.t; log : log }

let attach (disk : Disk.t) ~node =
  let log =
    match Hashtbl.find_opt disk.Disk.logs node with
    | Some l -> l
    | None ->
        let l =
          {
            log_node = node;
            entries = [];
            live = 0;
            appends = 0;
            checkpoints = 0;
            torn_cps = 0;
            compactions = 0;
            truncated = 0;
          }
        in
        Hashtbl.replace disk.Disk.logs node l;
        l
  in
  { disk; log }

let node t = t.log.log_node

(* The injected fault fires on the sync, i.e. before anything durable
   happens — a failed append leaves the log exactly as it was. *)
let sync t =
  if t.disk.Disk.fail_syncs > 0 then begin
    t.disk.Disk.fail_syncs <- t.disk.Disk.fail_syncs - 1;
    t.disk.Disk.sync_failures <- t.disk.Disk.sync_failures + 1;
    raise (Sync_failed t.log.log_node)
  end

(* Encode [record] once: the image is what lands on disk, and its digest
   is the checksum stored beside it — the simulated stand-in for a real
   CRC32C, covering every field.  The stored checksum is correct unless a
   corruption fault is armed, in which case it silently disagrees with the
   image: the writer sees success, and only a recovery-time checksum walk
   can tell. *)
let write_entry t ~torn record =
  let image = Log_record.encode record in
  let crc = Digest.string image in
  let crc =
    if t.disk.Disk.corrupt_records > 0 then begin
      t.disk.Disk.corrupt_records <- t.disk.Disk.corrupt_records - 1;
      t.disk.Disk.corruptions <- t.disk.Disk.corruptions + 1;
      String.map (fun c -> Char.chr (Char.code c lxor 0xff)) crc
    end
    else crc
  in
  let checkpoint = match record with Checkpoint _ -> true | _ -> false in
  t.log.entries <- { image; checkpoint; torn; crc } :: t.log.entries;
  t.log.live <- t.log.live + 1

let append t record =
  sync t;
  (match record with
  | Checkpoint _ -> invalid_arg "Wal.append: use Wal.checkpoint for snapshots"
  | _ -> ());
  write_entry t ~torn:false record;
  t.log.appends <- t.log.appends + 1

let checkpoint t snapshot =
  sync t;
  let torn =
    if t.disk.Disk.tear_checkpoints > 0 then begin
      t.disk.Disk.tear_checkpoints <- t.disk.Disk.tear_checkpoints - 1;
      true
    end
    else false
  in
  write_entry t ~torn (Checkpoint snapshot);
  t.log.checkpoints <- t.log.checkpoints + 1;
  if torn then t.log.torn_cps <- t.log.torn_cps + 1

let crc_matches e = String.equal e.crc (Digest.string e.image)

(* Validity at recovery time: not torn, and the stored checksum matches the
   image. *)
let is_valid e = (not e.torn) && crc_matches e

(* The flag first: finding the anchor checksums only checkpoints. *)
let is_anchor e = e.checkpoint && is_valid e

let decode e : record = Log_record.decode e.image

(* Distance (in entries) from the head to the newest complete checkpoint —
   the recovery anchor.  [None] when no complete checkpoint exists. *)
let anchor_index t =
  let rec find i = function
    | [] -> None
    | e :: rest -> if is_anchor e then Some i else find (i + 1) rest
  in
  find 0 t.log.entries

let replay t =
  let suffix =
    match anchor_index t with
    | None -> t.log.entries
    | Some i -> List.filteri (fun j _ -> j <= i) t.log.entries
  in
  List.fold_left (fun acc e -> if is_valid e then decode e :: acc else acc) [] suffix

let corrupted_records t =
  List.length (List.filter (fun e -> (not e.torn) && not (crc_matches e)) t.log.entries)

let records_since_checkpoint t =
  match anchor_index t with None -> t.log.live | Some i -> i

let compact ?(extra = 0) t =
  if extra < 0 then invalid_arg "Wal.compact: extra must be >= 0";
  match anchor_index t with
  | None -> 0
  | Some i ->
      let keep = max 0 (i + 1 - extra) in
      let dropped = t.log.live - keep in
      if dropped > 0 then begin
        t.log.entries <- List.filteri (fun j _ -> j < keep) t.log.entries;
        t.log.live <- keep;
        t.log.truncated <- t.log.truncated + dropped;
        t.log.compactions <- t.log.compactions + 1
      end;
      dropped

let length t = t.log.live

let appends t = t.log.appends

let checkpoints t = t.log.checkpoints

let torn_checkpoints t = t.log.torn_cps

let compactions t = t.log.compactions

let truncated t = t.log.truncated
