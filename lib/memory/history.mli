(** Execution histories: one program-ordered operation sequence per process.

    Histories are what the protocols record and the checkers consume.  The
    textual format is the paper's own notation, one process per line:

    {v
    P1: w(x)1 w(y)2 r(y)2 r(x)1
    P2: w(z)1 r(y)2 r(x)1
    v}

    Values are integers, [T]/[F] booleans, or [~] for the dictionary's λ.
    When parsing, the reads-from relation is resolved the way the paper does:
    writes must be unique per (location, value), and a read of the initial
    value [0] with no matching write reads from the virtual initial write. *)

type t = private Op.t array array
(** [t.(pid).(k)] is process [pid]'s [k]-th operation. *)

val processes : t -> int

val ops : t -> Op.t list
(** All operations, processes concatenated in pid order. *)

val op_count : t -> int

val of_ops : Op.t array array -> t
(** Validates that [pid]/[index] fields match positions; raises
    [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Paper-style rendering, inverse of [parse] up to whitespace. *)

val parse : string -> (t, string) result
(** Parse the paper-style notation; blank lines and [#] comments ignored. *)

val parse_exn : string -> t

(** {1 Recording executions} *)

module Recorder : sig
  type history = t

  type t
  (** Holds each recorded op once, plus its completion position and
      simulated start/finish times in unboxed arrays.  Buffers start empty
      and grow on demand. *)

  val create : processes:int -> t

  val record_read :
    ?start:float ->
    ?finish:float ->
    t ->
    pid:int ->
    loc:Loc.t ->
    value:Value.t ->
    from:Wid.t ->
    Op.t
  (** Returns the recorded operation (with its program-order index).
      [start] and [finish] (default [0.]) are the op's simulated invocation
      and completion times; ops complete in the order they are recorded. *)

  val record_write :
    ?start:float ->
    ?finish:float ->
    t ->
    pid:int ->
    loc:Loc.t ->
    value:Value.t ->
    wid:Wid.t ->
    Op.t

  val history : t -> history
  (** Snapshot of everything recorded so far. *)

  val timed_history : t -> (Op.t * float * float) list
  (** Every recorded op with its [(start, finish)] times, in completion
      (recording) order. *)

  val op_count : t -> int
end
