type t = int array
(* Invariant: never mutated after construction; every constructor copies. *)

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
