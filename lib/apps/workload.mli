(** Random read/write workloads over any of the three memories.

    Used by the property tests (every protocol execution must pass the
    causal checker — experiment E-FIG4), the consistency-hierarchy census
    (E-WEAK), and the invalidation/page/discard ablations.  Values are made
    globally unique so recorded histories satisfy the paper's
    unique-writes convention even at the value level. *)

type spec = {
  processes : int;
  locations : int;  (** namespace: [Indexed ("v", 0..locations-1)] *)
  ops_per_process : int;
  write_ratio : float;  (** probability an op is a write *)
  refresh_ratio : float;  (** probability of a freshness refresh before a read *)
  think_time : float;  (** mean random pause between ops (simulated time) *)
}

val default_spec : spec
(** 3 processes, 4 locations, 12 ops each, 50% writes. *)

val loc : int -> Dsm_memory.Loc.t

val validate : spec -> unit
(** Raise [Invalid_argument] on nonsensical field values. *)

val spawn_causal_clients :
  Dsm_runtime.Proc.sched ->
  spec:spec ->
  master:Dsm_util.Prng.t ->
  Dsm_causal.Cluster.t ->
  unit
(** Spawn client processes [client0 .. client<processes-1>] over the
    cluster's handles, each running [ops_per_process] random operations
    with the spec's mix and unique write values ([pid * 1e6 + op index]).
    Each client draws from its own [Prng.split master], split in pid order
    at spawn time.  {!run_causal}, the chaos scenarios and the transport
    bench all run the standard mix this way. *)

type outcome = {
  history : Dsm_memory.History.t;
  messages : int;
  sim_time : float;
}

val run_causal :
  ?seed:int64 ->
  ?config:Dsm_causal.Config.t ->
  ?latency:Dsm_net.Latency.t ->
  ?fault:Dsm_net.Network.fault ->
  ?reliability:Dsm_net.Reliable.config ->
  ?rpc:Dsm_causal.Cluster.rpc ->
  spec ->
  outcome * Dsm_causal.Cluster.t
(** The cluster is returned for stats inspection (invalidation counters
    etc.); it is already shut down.  [fault]/[reliability]/[rpc] configure
    lossy links, the reliable transport, and RPC timeouts — see
    {!Dsm_causal.Cluster.create}. *)

val run_atomic :
  ?seed:int64 ->
  ?mode:Dsm_atomic.Cluster.invalidation_mode ->
  ?latency:Dsm_net.Latency.t ->
  spec ->
  outcome

val run_bmem :
  ?seed:int64 ->
  ?mode:Dsm_broadcast.Cbcast.mode ->
  ?latency:Dsm_net.Latency.t ->
  spec ->
  outcome

(** {1 Adversarial history mutation}

    Corrupt a correct history so checker implementations can be compared on
    inputs that are (usually) violations. *)

val mutate_read :
  Dsm_util.Prng.t -> Dsm_memory.History.t -> Dsm_memory.History.t option
(** Redirect one random read to a different write of the same location
    (or to the initial write); [None] if the history has no read with an
    alternative source. *)
