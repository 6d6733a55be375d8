type t = int array
(* Invariant: never mutated once it is a [t].  Constructors copy their
   input; [Acc.freeze] hands over an array its accumulator will copy before
   it next writes. *)

let zero n =
  if n < 1 then invalid_arg "Vclock.zero: dimension must be >= 1";
  Array.make n 0

let dim = Array.length

let get vt i =
  if i < 0 || i >= Array.length vt then invalid_arg "Vclock.get: index out of range";
  vt.(i)

let increment vt i =
  if i < 0 || i >= Array.length vt then invalid_arg "Vclock.increment: index out of range";
  let vt' = Array.copy vt in
  vt'.(i) <- vt'.(i) + 1;
  vt'

let check_dim a b name =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": dimension mismatch")

let update a b =
  check_dim a b "Vclock.update";
  Array.init (Array.length a) (fun i -> if a.(i) >= b.(i) then a.(i) else b.(i))

let of_array a =
  if Array.length a = 0 then invalid_arg "Vclock.of_array: empty";
  Array.copy a

let to_array = Array.copy

type order = Before | After | Equal | Concurrent

let compare_vt a b =
  check_dim a b "Vclock.compare_vt";
  let a_le = ref true and b_le = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) > b.(i) then a_le := false;
    if b.(i) > a.(i) then b_le := false
  done;
  match (!a_le, !b_le) with
  | true, true -> Equal
  | true, false -> Before
  | false, true -> After
  | false, false -> Concurrent

let lt a b = compare_vt a b = Before

let equal a b = compare_vt a b = Equal

let leq a b = match compare_vt a b with Before | Equal -> true | After | Concurrent -> false

let concurrent a b = compare_vt a b = Concurrent

let sum vt = Array.fold_left ( + ) 0 vt

let pp ppf vt =
  Format.fprintf ppf "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int vt)))

let to_string vt = Format.asprintf "%a" pp vt

let total_compare a b =
  check_dim a b "Vclock.total_compare";
  let rec go i =
    if i = Array.length a then 0
    else begin
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

module Acc = struct
  type clock = int array

  (* Copy-on-write: once [freeze] has published [cells] as a clock, the
     array belongs to that clock and the next growth copies it first, so a
     published clock is never mutated.  [version] counts the changes of
     value: equal versions of one accumulator mean equal contents.
     [pinned] counts the pins taken at the current version; the first
     change of value after a pin moves them, with the value they saw, into
     [kept]. *)
  type kept = { at : int; mutable pins : int; value : clock }

  type t = {
    mutable cells : int array;
    mutable frozen : bool;
    mutable version : int;
    mutable pinned : int;
    mutable kept : kept list;
  }

  let create n = { cells = zero n; frozen = false; version = 0; pinned = 0; kept = [] }

  let freeze a =
    a.frozen <- true;
    a.cells

  (* Called before every change of value. *)
  let change a =
    if a.pinned > 0 then begin
      a.kept <- { at = a.version; pins = a.pinned; value = freeze a } :: a.kept;
      a.pinned <- 0
    end;
    a.version <- a.version + 1

  let grow a =
    change a;
    if a.frozen then begin
      a.cells <- Array.copy a.cells;
      a.frozen <- false
    end

  let merge a (b : clock) =
    check_dim a.cells b "Vclock.Acc.merge";
    let n = Array.length b and i = ref 0 in
    while !i < n && b.(!i) <= a.cells.(!i) do
      incr i
    done;
    if !i < n then begin
      grow a;
      let cells = a.cells in
      for j = !i to n - 1 do
        if b.(j) > cells.(j) then cells.(j) <- b.(j)
      done
    end

  let tick a i =
    if i < 0 || i >= Array.length a.cells then invalid_arg "Vclock.Acc.tick: index out of range";
    grow a;
    a.cells.(i) <- a.cells.(i) + 1

  let reset a =
    change a;
    if a.frozen then begin
      a.cells <- zero (Array.length a.cells);
      a.frozen <- false
    end
    else Array.fill a.cells 0 (Array.length a.cells) 0

  let pin a =
    a.pinned <- a.pinned + 1;
    a.version

  let find_kept a v name =
    match List.find_opt (fun k -> k.at = v) a.kept with
    | Some k -> k
    | None -> invalid_arg (name ^ ": version not pinned")

  let pinned_value a v =
    if v = a.version && a.pinned > 0 then freeze a
    else (find_kept a v "Vclock.Acc.pinned_value").value

  let unpin a v =
    if v = a.version && a.pinned > 0 then begin
      a.pinned <- a.pinned - 1;
      true
    end
    else begin
      let k = find_kept a v "Vclock.Acc.unpin" in
      k.pins <- k.pins - 1;
      if k.pins = 0 then a.kept <- List.filter (fun k' -> k' != k) a.kept;
      Array.for_all2 Int.equal a.cells k.value
    end
end
