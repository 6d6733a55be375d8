(** Vector clocks: the writestamps of the owner protocol.

    Section 3.1 of the paper: "A simple vector timestamp protocol may be used
    to capture precisely the evolving partial ordering of events in a
    distributed system".  A clock over [n] processes is a vector of [n]
    non-negative counters.  Process [i] increments component [i] on every
    write attempt; merging ([update]) takes the component-wise maximum; the
    comparison is the usual product partial order.

    Values are immutable: no operation mutates its arguments, so a clock
    may be shared freely.
    Clocks of different dimensions never compare and may not be merged.
    The one mutable clock is {!Acc}, a distinct type. *)

type t

val zero : int -> t
(** [zero n] is the all-zero clock over [n] processes.  [n >= 1]. *)

val dim : t -> int

val get : t -> int -> int
(** Component accessor; raises [Invalid_argument] out of range. *)

val increment : t -> int -> t
(** [increment vt i] bumps component [i]: the paper's
    [VT_i := increment(VT_i)]. *)

val update : t -> t -> t
(** Component-wise maximum: the paper's [update(VT, VT')].  Raises
    [Invalid_argument] on dimension mismatch. *)

val of_array : int array -> t
(** Copies its argument. *)

val to_array : t -> int array
(** Fresh array. *)

type order = Before | After | Equal | Concurrent

val compare_vt : t -> t -> order
(** Partial-order comparison.  [Before] means strictly less on the product
    order ([VT < VT'] in the paper: less-or-equal everywhere and strictly less
    somewhere). *)

val lt : t -> t -> bool
(** [lt a b] iff [compare_vt a b = Before]. *)

val leq : t -> t -> bool
(** [lt a b || equal a b]. *)

val equal : t -> t -> bool

val concurrent : t -> t -> bool

val sum : t -> int
(** Total of all components: a cheap measure of "how much history" a stamp
    carries; used by statistics and tests. *)

val pp : Format.formatter -> t -> unit
(** Renders as [\[a;b;c\]]. *)

val to_string : t -> string

val total_compare : t -> t -> int
(** An arbitrary total order extending the partial order (lexicographic);
    usable as a [Map]/[Set] comparator and for deterministic tie-breaking
    between concurrent stamps. *)

(** A mutable working clock, merged and ticked in place.

    A node's [VT_i] changes on every install and certification, but only
    some of its values escape as stamps (a stored entry, a WRITE request, a
    checkpoint, a trace event).  An accumulator pays for an n-wide copy
    only at those escapes: {!freeze} publishes the current value as an
    immutable {!t} without copying and caches it until the accumulator next
    grows; the first growth after a freeze copies the cells, so a published
    clock never changes.  Growth while unfrozen allocates nothing.

    A {!pin} names the current value without publishing it.
    The value is kept (frozen, so the next growth copies) only if it
    changes while the pin is held, so a pin released before any change
    costs nothing. *)
module Acc : sig
  type clock := t

  type t

  val create : int -> t
  (** [create n]: the all-zero clock over [n] processes, unfrozen. *)

  val merge : t -> clock -> unit
  (** [merge a b] sets [a] to [update a b]; a no-op (no allocation, not a
      change of value) when [b] is already covered. *)

  val tick : t -> int -> unit
  (** [tick a i] bumps component [i]: [increment] in place. *)

  val freeze : t -> clock
  (** The current value as an immutable clock.  Repeated freezes return the
      same physical clock until the accumulator next grows. *)

  val reset : t -> unit
  (** Back to all-zero; counts as a change of value. *)

  val pin : t -> int
  (** [pin a] names [a]'s current value by its version, a counter of the
      changes of value ({!merge}s that grew, {!tick}s and {!reset}s).  The
      value stays available to {!pinned_value} and {!unpin} however the
      accumulator changes afterwards, resets included.  Each pin must be
      released by exactly one {!unpin}. *)

  val pinned_value : t -> int -> clock
  (** [pinned_value a v]: the value [a] held at pinned version [v].  Raises
      [Invalid_argument] if no pin on [v] is held. *)

  val unpin : t -> int -> bool
  (** [unpin a v] releases one pin on [v] and tells whether [a] now holds
      the value it held at [v].  Raises [Invalid_argument] if no pin on
      [v] is held. *)
end
