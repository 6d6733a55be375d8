type snapshot = {
  snap_clock : Vclock.t;
  snap_view : (int * int * int) list;
  snap_served : (Dsm_memory.Loc.t * Stamped.t) list;
  snap_shadows : (int * (Dsm_memory.Loc.t * Stamped.t) list) list;
}

type t =
  | Write of { loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Clock of Vclock.t
  | View_change of { base : int; epoch : int; serving : int }
  | Shadow_entry of { base : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
  | Checkpoint of snapshot

let kind = function
  | Write _ -> "write"
  | Clock _ -> "clock"
  | View_change _ -> "view"
  | Shadow_entry _ -> "shadow"
  | Checkpoint _ -> "checkpoint"

let pp ppf = function
  | Write { loc; entry } ->
      Format.fprintf ppf "write(%a=%a)" Dsm_memory.Loc.pp loc Stamped.pp entry
  | Clock vt -> Format.fprintf ppf "clock(%a)" Vclock.pp vt
  | View_change { base; epoch; serving } ->
      Format.fprintf ppf "view(base %d -> e%d@@%d)" base epoch serving
  | Shadow_entry { base; loc; entry } ->
      Format.fprintf ppf "shadow(base %d, %a=%a)" base Dsm_memory.Loc.pp loc Stamped.pp entry
  | Checkpoint snap ->
      Format.fprintf ppf "checkpoint(%d served, %d shadow groups)"
        (List.length snap.snap_served)
        (List.length snap.snap_shadows)

(* {1 On-disk image}

   A record is written field by field: a tag byte per variant, integers as
   LEB128 varints (zigzag-mapped where they may be negative), strings and
   lists length-prefixed, floats as their 8 IEEE bytes.  Every writestamp
   is its dimension followed by one unsigned varint per component, so the
   small counters a clock mostly holds cost one byte each (two up to
   16383).  [encode] runs the same writer twice: first over an empty
   buffer, which only counts, then over a buffer of exactly that size. *)

type sink = { buf : Bytes.t; mutable pos : int }

let put_byte s b =
  if s.pos < Bytes.length s.buf then Bytes.unsafe_set s.buf s.pos (Char.unsafe_chr b);
  s.pos <- s.pos + 1

(* Unsigned LEB128 of the int's 63-bit pattern: any int round-trips. *)
let rec put_uvarint s n =
  if n land lnot 0x7f = 0 then put_byte s n
  else begin
    put_byte s (n land 0x7f lor 0x80);
    put_uvarint s (n lsr 7)
  end

let put_int s n = put_uvarint s ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_string s str =
  let len = String.length str in
  put_uvarint s len;
  if s.pos + len <= Bytes.length s.buf then Bytes.blit_string str 0 s.buf s.pos len;
  s.pos <- s.pos + len

let put_stamp s vt =
  let n = Vclock.dim vt in
  put_uvarint s n;
  for i = 0 to n - 1 do
    put_uvarint s (Vclock.get vt i)
  done

let put_loc s = function
  | Dsm_memory.Loc.Named name ->
      put_byte s 0;
      put_string s name
  | Dsm_memory.Loc.Indexed (name, i) ->
      put_byte s 1;
      put_string s name;
      put_int s i
  | Dsm_memory.Loc.Cell (name, i, j) ->
      put_byte s 2;
      put_string s name;
      put_int s i;
      put_int s j

let put_value s = function
  | Dsm_memory.Value.Int i ->
      put_byte s 0;
      put_int s i
  | Dsm_memory.Value.Float f ->
      put_byte s 1;
      if s.pos + 8 <= Bytes.length s.buf then
        Bytes.set_int64_le s.buf s.pos (Int64.bits_of_float f);
      s.pos <- s.pos + 8
  | Dsm_memory.Value.Bool b -> put_byte s (if b then 3 else 2)
  | Dsm_memory.Value.Str str ->
      put_byte s 4;
      put_string s str
  | Dsm_memory.Value.Free -> put_byte s 5

let put_entry s (e : Stamped.t) =
  put_value s e.value;
  put_stamp s e.stamp;
  put_int s e.wid.Dsm_memory.Wid.node;
  put_int s e.wid.Dsm_memory.Wid.seq

let put_list s put l =
  put_uvarint s (List.length l);
  List.iter (put s) l

let put_pair s (loc, entry) =
  put_loc s loc;
  put_entry s entry

let put_record s = function
  | Write { loc; entry } ->
      put_byte s 0;
      put_pair s (loc, entry)
  | Clock vt ->
      put_byte s 1;
      put_stamp s vt
  | View_change { base; epoch; serving } ->
      put_byte s 2;
      put_int s base;
      put_int s epoch;
      put_int s serving
  | Shadow_entry { base; loc; entry } ->
      put_byte s 3;
      put_int s base;
      put_pair s (loc, entry)
  | Checkpoint snap ->
      put_byte s 4;
      put_stamp s snap.snap_clock;
      put_list s
        (fun s (base, epoch, serving) ->
          put_int s base;
          put_int s epoch;
          put_int s serving)
        snap.snap_view;
      put_list s put_pair snap.snap_served;
      put_list s
        (fun s (base, entries) ->
          put_int s base;
          put_list s put_pair entries)
        snap.snap_shadows

let encode record =
  let count = { buf = Bytes.empty; pos = 0 } in
  put_record count record;
  let s = { buf = Bytes.create count.pos; pos = 0 } in
  put_record s record;
  Bytes.unsafe_to_string s.buf

type source = { image : string; mutable at : int }

let malformed () = failwith "Log_record.decode: malformed image"

let get_byte src =
  if src.at >= String.length src.image then malformed ();
  let b = Char.code (String.unsafe_get src.image src.at) in
  src.at <- src.at + 1;
  b

let get_uvarint src =
  let rec go acc shift =
    let b = get_byte src in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let get_int src =
  let z = get_uvarint src in
  (z lsr 1) lxor -(z land 1)

let get_string src =
  let len = get_uvarint src in
  if len < 0 || src.at + len > String.length src.image then malformed ();
  let str = String.sub src.image src.at len in
  src.at <- src.at + len;
  str

let get_stamp src =
  let n = get_uvarint src in
  if n < 1 || n > String.length src.image then malformed ();
  Vclock.of_array (Array.init n (fun _ -> get_uvarint src))

let get_loc src =
  match get_byte src with
  | 0 -> Dsm_memory.Loc.Named (get_string src)
  | 1 ->
      let name = get_string src in
      Dsm_memory.Loc.Indexed (name, get_int src)
  | 2 ->
      let name = get_string src in
      let i = get_int src in
      Dsm_memory.Loc.Cell (name, i, get_int src)
  | _ -> malformed ()

let get_value src =
  match get_byte src with
  | 0 -> Dsm_memory.Value.Int (get_int src)
  | 1 ->
      if src.at + 8 > String.length src.image then malformed ();
      let f = Int64.float_of_bits (String.get_int64_le src.image src.at) in
      src.at <- src.at + 8;
      Dsm_memory.Value.Float f
  | 2 -> Dsm_memory.Value.Bool false
  | 3 -> Dsm_memory.Value.Bool true
  | 4 -> Dsm_memory.Value.Str (get_string src)
  | 5 -> Dsm_memory.Value.Free
  | _ -> malformed ()

let get_entry src =
  let value = get_value src in
  let stamp = get_stamp src in
  let node = get_int src in
  let seq = get_int src in
  { Stamped.value; stamp; wid = { Dsm_memory.Wid.node; seq } }

let get_list src get =
  let n = get_uvarint src in
  if n < 0 || n > String.length src.image then malformed ();
  List.init n (fun _ -> get src)

let get_pair src =
  let loc = get_loc src in
  (loc, get_entry src)

let get_triple src =
  let a = get_int src in
  let b = get_int src in
  (a, b, get_int src)

let get_record src =
  match get_byte src with
  | 0 ->
      let loc, entry = get_pair src in
      Write { loc; entry }
  | 1 -> Clock (get_stamp src)
  | 2 ->
      let base, epoch, serving = get_triple src in
      View_change { base; epoch; serving }
  | 3 ->
      let base = get_int src in
      let loc, entry = get_pair src in
      Shadow_entry { base; loc; entry }
  | 4 ->
      let snap_clock = get_stamp src in
      let snap_view = get_list src get_triple in
      let snap_served = get_list src get_pair in
      let snap_shadows =
        get_list src (fun src ->
            let base = get_int src in
            (base, get_list src get_pair))
      in
      Checkpoint { snap_clock; snap_view; snap_served; snap_shadows }
  | _ -> malformed ()

let decode image =
  let src = { image; at = 0 } in
  let record = get_record src in
  if src.at <> String.length image then malformed ();
  record
