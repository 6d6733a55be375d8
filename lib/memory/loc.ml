type t = Named of string | Indexed of string * int | Cell of string * int * int
[@@deriving eq, ord]

let hash = Hashtbl.hash

let to_string = function
  | Named s -> s
  | Indexed (s, i) -> Printf.sprintf "%s.%d" s i
  | Cell (s, i, j) -> Printf.sprintf "%s.%d.%d" s i j

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  match String.split_on_char '.' s with
  | [ name; i ] -> (
      match int_of_string_opt i with Some i -> Indexed (name, i) | None -> Named s)
  | [ name; i; j ] -> (
      match (int_of_string_opt i, int_of_string_opt j) with
      | Some i, Some j -> Cell (name, i, j)
      | _, _ -> Named s)
  | _ -> Named s

let named s = Named s

let indexed s i = Indexed (s, i)

let cell s i j = Cell (s, i, j)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
