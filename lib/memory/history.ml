type t = Op.t array array

let processes = Array.length

let ops t = Array.to_list t |> List.concat_map Array.to_list

let op_count t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t

let of_ops rows =
  Array.iteri
    (fun pid row ->
      Array.iteri
        (fun index (op : Op.t) ->
          if op.pid <> pid || op.index <> index then
            invalid_arg
              (Printf.sprintf "History.of_ops: op %s misplaced at P%d[%d]" (Op.to_string op)
                 pid index))
        row)
    rows;
  rows

(* Parser-compatible op rendering: the line label carries the pid, so ops
   print as w(x)1 rather than Op.to_string's w0(x)1. *)
let op_token (op : Op.t) =
  let tag = match op.Op.kind with Op.Read -> "r" | Op.Write -> "w" in
  Printf.sprintf "%s(%s)%s" tag (Loc.to_string op.Op.loc) (Value.to_string op.Op.value)

let pp ppf t =
  Array.iteri
    (fun pid row ->
      Format.fprintf ppf "P%d:" pid;
      Array.iter (fun op -> Format.fprintf ppf " %s" (op_token op)) row;
      if pid < Array.length t - 1 then Format.pp_print_newline ppf ())
    t

let to_string t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* Parsing the paper's notation                                        *)
(* ------------------------------------------------------------------ *)

type raw_op = { raw_kind : Op.kind; raw_loc : Loc.t; raw_value : Value.t }

let parse_value s =
  match s with
  | "T" -> Ok (Value.Bool true)
  | "F" -> Ok (Value.Bool false)
  | "~" -> Ok Value.Free
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Ok (Value.Int i)
      | None -> (
          match float_of_string_opt s with
          | Some f -> Ok (Value.Float f)
          | None -> Error (Printf.sprintf "unparseable value %S" s)))

(* One operation token looks like w(x)1 or r(dict.0.3)~ *)
let parse_op token =
  let fail msg = Error (Printf.sprintf "bad op %S: %s" token msg) in
  if String.length token < 4 then fail "too short"
  else begin
    let kind =
      match token.[0] with
      | 'w' -> Ok Op.Write
      | 'r' -> Ok Op.Read
      | _ -> Error "must start with r or w"
    in
    match kind with
    | Error e -> fail e
    | Ok raw_kind -> (
        if token.[1] <> '(' then fail "expected '(' after r/w"
        else
          match String.index_opt token ')' with
          | None -> fail "missing ')'"
          | Some close ->
              let loc = Loc.of_string (String.sub token 2 (close - 2)) in
              let value_str = String.sub token (close + 1) (String.length token - close - 1) in
              if value_str = "" then fail "missing value"
              else begin
                match parse_value value_str with
                | Error e -> fail e
                | Ok v -> Ok { raw_kind; raw_loc = loc; raw_value = v }
              end)
  end

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_line line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "missing ':' in line %S" line)
  | Some colon ->
      let label = String.trim (String.sub line 0 colon) in
      let rest = String.sub line (colon + 1) (String.length line - colon - 1) in
      let pid =
        if String.length label >= 2 && (label.[0] = 'P' || label.[0] = 'p') then
          int_of_string_opt (String.sub label 1 (String.length label - 1))
        else None
      in
      (match pid with
      | None -> Error (Printf.sprintf "bad process label %S (want P<n>)" label)
      | Some pid ->
          let rec collect acc = function
            | [] -> Ok (pid, List.rev acc)
            | token :: rest -> (
                match parse_op token with
                | Ok op -> collect (op :: acc) rest
                | Error e -> Error e)
          in
          collect [] (split_words rest))

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

(* Resolve reads-from: every read is matched to the unique write of the same
   (location, value); a read of Value.initial with no such write reads from
   the virtual initial write. *)
let resolve (lines : (int * raw_op list) list) =
  let max_pid = List.fold_left (fun acc (pid, _) -> max acc pid) (-1) lines in
  if max_pid < 0 then Error "empty history"
  else begin
    let by_pid = Array.make (max_pid + 1) None in
    let dup =
      List.exists
        (fun (pid, ops) ->
          match by_pid.(pid) with
          | Some _ -> true
          | None ->
              by_pid.(pid) <- Some ops;
              false)
        lines
    in
    if dup then Error "duplicate process label"
    else begin
      let writers : (Loc.t * Value.t, Wid.t) Hashtbl.t = Hashtbl.create 64 in
      let duplicate_write = ref None in
      Array.iteri
        (fun pid row ->
          match row with
          | None -> ()
          | Some ops ->
              List.iteri
                (fun index raw ->
                  if raw.raw_kind = Op.Write then begin
                    let key = (raw.raw_loc, raw.raw_value) in
                    if Hashtbl.mem writers key then
                      duplicate_write :=
                        Some
                          (Printf.sprintf "duplicate write w(%s)%s: writes must be unique"
                             (Loc.to_string raw.raw_loc)
                             (Value.to_string raw.raw_value))
                    else Hashtbl.replace writers key (Wid.make ~node:pid ~seq:index)
                  end)
                ops)
        by_pid;
      match !duplicate_write with
      | Some msg -> Error msg
      | None ->
          let error = ref None in
          let rows =
            Array.mapi
              (fun pid row ->
                match row with
                | None -> [||]
                | Some ops ->
                    Array.of_list
                      (List.mapi
                         (fun index raw ->
                           match raw.raw_kind with
                           | Op.Write ->
                               Op.write ~pid ~index ~loc:raw.raw_loc ~value:raw.raw_value
                                 ~wid:(Wid.make ~node:pid ~seq:index)
                           | Op.Read -> (
                               let key = (raw.raw_loc, raw.raw_value) in
                               match Hashtbl.find_opt writers key with
                               | Some wid ->
                                   Op.read ~pid ~index ~loc:raw.raw_loc ~value:raw.raw_value
                                     ~from:wid
                               | None ->
                                   if Value.equal raw.raw_value Value.initial then
                                     Op.read ~pid ~index ~loc:raw.raw_loc
                                       ~value:raw.raw_value ~from:Wid.initial
                                   else begin
                                     error :=
                                       Some
                                         (Printf.sprintf "read %s has no matching write"
                                            (Printf.sprintf "r(%s)%s"
                                               (Loc.to_string raw.raw_loc)
                                               (Value.to_string raw.raw_value)));
                                     Op.read ~pid ~index ~loc:raw.raw_loc
                                       ~value:raw.raw_value ~from:Wid.initial
                                   end))
                         ops))
              by_pid
          in
          (match !error with Some e -> Error e | None -> Ok rows)
    end
  end

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map strip_comment
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let rec parse_all acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok parsed -> parse_all (parsed :: acc) rest
        | Error e -> Error e)
  in
  match parse_all [] lines with Ok lines -> resolve lines | Error e -> Error e

let parse_exn text =
  match parse text with Ok h -> h | Error e -> failwith ("History.parse: " ^ e)

module Recorder = struct
  type history = t

  (* Every op is held once: [rows.(pid)] is that process's ops in program
     order, valid up to [counts.(pid)].  Completion order is kept as the
     completing pid, one int per op, with the matching start/finish times in
     unboxed float arrays; [timed_history] rebuilds each op from its row.
     All buffers start empty and double when full. *)
  type t = {
    rows : Op.t array array;
    counts : int array;
    mutable order : int array; (* completing pid, oldest first *)
    mutable starts : Float.Array.t;
    mutable finishes : Float.Array.t;
    mutable total : int;
  }

  let create ~processes =
    if processes < 1 then invalid_arg "Recorder.create: need at least one process";
    {
      rows = Array.make processes [||];
      counts = Array.make processes 0;
      order = [||];
      starts = Float.Array.create 0;
      finishes = Float.Array.create 0;
      total = 0;
    }

  let grown len = max 16 (2 * len)

  let record t ~start ~finish (op : Op.t) =
    let pid = op.Op.pid and index = op.Op.index in
    let row = t.rows.(pid) in
    if index = Array.length row then begin
      let bigger = Array.make (grown index) op in
      Array.blit row 0 bigger 0 index;
      t.rows.(pid) <- bigger
    end
    else row.(index) <- op;
    t.counts.(pid) <- index + 1;
    let n = t.total in
    if n = Array.length t.order then begin
      let cap = grown n in
      let order = Array.make cap 0 in
      let starts = Float.Array.create cap and finishes = Float.Array.create cap in
      Array.blit t.order 0 order 0 n;
      Float.Array.blit t.starts 0 starts 0 n;
      Float.Array.blit t.finishes 0 finishes 0 n;
      t.order <- order;
      t.starts <- starts;
      t.finishes <- finishes
    end;
    t.order.(n) <- pid;
    Float.Array.set t.starts n start;
    Float.Array.set t.finishes n finish;
    t.total <- n + 1;
    op

  let record_read ?(start = 0.0) ?(finish = 0.0) t ~pid ~loc ~value ~from =
    record t ~start ~finish (Op.read ~pid ~index:t.counts.(pid) ~loc ~value ~from)

  let record_write ?(start = 0.0) ?(finish = 0.0) t ~pid ~loc ~value ~wid =
    record t ~start ~finish (Op.write ~pid ~index:t.counts.(pid) ~loc ~value ~wid)

  let history t = Array.mapi (fun pid row -> Array.sub row 0 t.counts.(pid)) t.rows

  (* Walk completions newest-first, so each pid's ops come off the end of
     its row and the list is built by consing. *)
  let timed_history t =
    let next = Array.copy t.counts in
    let acc = ref [] in
    for k = t.total - 1 downto 0 do
      let pid = t.order.(k) in
      next.(pid) <- next.(pid) - 1;
      let op = t.rows.(pid).(next.(pid)) in
      acc := (op, Float.Array.get t.starts k, Float.Array.get t.finishes k) :: !acc
    done;
    !acc

  let op_count t = t.total
end
