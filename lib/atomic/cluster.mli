(** The atomic (strongly consistent) DSM baseline.

    A static-owner write-invalidate protocol in the style of Li & Hudak's
    shared virtual memory, as assumed by the paper's message-count
    comparison: the owner of a location keeps its current value and the
    {e copyset} of nodes caching it; a read miss fetches from the owner and
    joins the copyset; every write is applied at the owner and invalidates
    all cached copies.

    Two invalidation modes:
    - [`Counted] (default): invalidations are fire-and-forget, matching the
      paper's accounting ("this results in n-1 messages per processor" —
      no acknowledgements counted).
    - [`Acknowledged]: the write blocks until every copy holder
      acknowledges, the textbook strongly consistent discipline; costs
      [2(n-1)] messages per fully shared write.

    Exposes the same {!Dsm_memory.Memory_intf.MEMORY} interface as the
    causal DSM so applications run unchanged on either. *)

type t

type handle

type invalidation_mode = [ `Counted | `Acknowledged ]

val create :
  sched:Dsm_runtime.Proc.sched ->
  owner:Dsm_memory.Owner.t ->
  ?mode:invalidation_mode ->
  ?init:(Dsm_memory.Loc.t -> Dsm_memory.Value.t) ->
  ?latency:Dsm_net.Latency.t ->
  ?seed:int64 ->
  unit ->
  t

val handle : t -> int -> handle

val handles : t -> handle array

val processes : t -> int

val net : t -> Message.t Dsm_net.Network.t

val history : t -> Dsm_memory.History.t

val timed_history : t -> (Dsm_memory.Op.t * float * float) list
(** Every application operation with its (start, end) simulated times, in
    completion order — input to the linearizability checker.  Built on
    demand from the same retained ops as {!history}: each op is held
    once. *)

val copyset_size : t -> Dsm_memory.Loc.t -> int
(** Size of the owner-side copyset (tests and ablations). *)

val invalidations_sent : t -> int

val pid : handle -> int

val read : handle -> Dsm_memory.Loc.t -> Dsm_memory.Value.t

val write : handle -> Dsm_memory.Loc.t -> Dsm_memory.Value.t -> unit

module Mem : Dsm_memory.Memory_intf.MEMORY with type handle = handle
