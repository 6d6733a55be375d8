(** Locations of the shared causal memory namespace [N].

    Locations are structured so the applications read naturally: the solver
    uses [Indexed ("x", i)] for vector elements, the dictionary uses
    [Cell ("dict", row, col)] for its two-dimensional array, and scalars such
    as handshake flags are [Indexed ("complete", i)]. *)

type t =
  | Named of string  (** a scalar variable *)
  | Indexed of string * int  (** element of a one-dimensional array *)
  | Cell of string * int * int  (** element of a two-dimensional array *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** [x], [x.3], [dict.2.5]. *)

val of_string : string -> t
(** Inverse of [to_string]; unparseable dotted suffixes fall back to
    [Named]. *)

val named : string -> t

val indexed : string -> int -> t

val cell : string -> int -> int -> t

module Map : Map.S with type key = t

module Set : Set.S with type elt = t

module Table : Hashtbl.S with type key = t
