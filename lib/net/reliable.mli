(** Sliding-window reliable transport over an unreliable {!Network}.

    The owner protocol (Figure 4) assumes reliable FIFO links.  When the
    underlying network is given a {!Network.fault} model (probabilistic loss
    and duplication), this layer restores the exactly-once per-link FIFO
    contract the protocol needs:

    - every payload on a directed link carries a {e sequence number};
    - the receiver delivers payloads strictly in sequence order, buffering
      early arrivals and dropping duplicates, and acknowledges cumulatively
      ([Ack upto] confirms every sequence number [<= upto]);
    - the sender keeps at most [window] unacknowledged packets on the wire
      (excess sends queue in a backlog) and retransmits {e all} unacked
      packets (go-back-N) when the per-link timer expires with the oldest
      unacked packet a full timeout old (a timer that fires early for a
      younger packet just re-arms), doubling the timeout up to [max_rto]
      on every expiry and resetting it on progress;
    - after [max_retries] expiries for the same oldest packet the link is
      declared dead: its queues are dropped (counted in [gave_up]) so the
      simulation can quiesce, and the RPC layer above surfaces a typed
      timeout.  The next send on a dead link revives it with a fresh retry
      budget, so healed links recover transparently.

    {2 Batching and ack coalescing}

    Two orthogonal optimizations reduce {e physical frames} (what
    {!Network} counts) without changing the {e logical message} stream (the
    payloads accepted by {!send}/{!send_many} and delivered to handlers —
    the paper's accounting unit):

    - [max_batch > 1]: a window refill or go-back-N burst is chunked into
      frames of up to [max_batch] sequenced payloads each, paying one
      header per frame instead of one per payload;
    - [ack_every > 1] / [ack_delay > 0]: clean in-order progress is
      acknowledged every [ack_every] payloads or after [ack_delay] of
      silence, whichever comes first, and any data frame flowing in the
      reverse direction piggybacks the cumulative ack for free.
      Duplicates and gaps are still acked immediately — they signal loss,
      and the sender needs the cumulative ack to stop retransmitting.

    The defaults disable both ([max_batch = 1], [ack_every = 1],
    [ack_delay = 0.0]), taking exactly the historical code paths: same
    frames, same counters, same engine schedule.

    Determinism: all randomness lives in the underlying network's seeded
    fault model and latency sampling, so two runs with the same seed produce
    identical delivery orders {e and} identical retransmission counts. *)

type config = {
  window : int;  (** max unacked packets per directed link *)
  rto : float;  (** initial retransmission timeout (simulated time) *)
  backoff : float;  (** timeout multiplier per expiry, [>= 1] *)
  max_rto : float;  (** backoff ceiling *)
  max_retries : int;  (** expiries tolerated for one packet before giving up *)
  max_batch : int;  (** payloads per physical frame, [>= 1]; [1] = no batching *)
  ack_every : int;
      (** clean deliveries confirmed per explicit ack, [>= 1]; values [> 1]
          require [ack_delay > 0] so the tail is always acked *)
  ack_delay : float;
      (** delayed-ack timer, [>= 0] and [< rto]; [0.0] = ack immediately *)
}

val default_config : config
(** window 8, rto 8.0, backoff 2.0, max_rto 64.0, max_retries 8 — an RTO a
    few round trips above {!Latency.lan} so clean runs never retransmit.
    Batching and ack coalescing are off ([max_batch = 1], [ack_every = 1],
    [ack_delay = 0.0]). *)

val batching_config : config
(** {!default_config} with [max_batch = 8], [ack_every = 4],
    [ack_delay = 2.0] (≈ one LAN round trip, well under the RTO): the
    frame-economy configuration the [dsm bench] transport baseline
    measures against {!default_config}. *)

(** What actually travels over the wire: payloads framed with a sequence
    number, multi-payload batch frames, and cumulative acknowledgements.
    [base] is the oldest sequence number the sender still retains; the
    receiver fast-forwards past any older gap, which is how a link that
    gave up (abandoning some sequence numbers forever) resynchronises once
    it is healed and used again.  [ack] is a piggybacked cumulative
    acknowledgement for the reverse direction ([-1] = none; always [-1]
    when coalescing is off). *)
type 'msg framed =
  | Data of { seq : int; base : int; kind : string; body : 'msg; ack : int }
  | Batch of { base : int; ack : int; items : (int * string * 'msg) list }
      (** [(seq, kind, body)] payloads sharing one frame *)
  | Ack of { upto : int }
  | Sync of { base : int }
      (** heal-time resync marker: the sender's stream restarts at [base];
          the receiver abandons everything below it (see {!resync_link}) *)

type 'msg t

val create : ?config:config -> 'msg framed Network.t -> 'msg t
(** Layer a reliable transport over [net].  The caller creates the network
    with message type ['msg framed] and controls its faults, latencies and
    link state directly; {!set_handler} must be used instead of
    [Network.set_handler] (it installs the demultiplexer). *)

val net : 'msg t -> 'msg framed Network.t
(** The underlying network, for fault/latency/down-link control and raw
    wire-level counters.  [Network.lifetime_total] on it counts {e physical
    frames} (data, batch and ack frames, retransmissions included) — the
    quantity batching reduces, as opposed to the logical [sent] count in
    {!counters}. *)

val nodes : 'msg t -> int

val config : 'msg t -> config

val set_handler : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Install the in-order payload handler for [node]. *)

val send : 'msg t -> src:int -> dst:int -> ?kind:string -> ?size:int -> 'msg -> unit
(** Enqueue a payload for exactly-once in-order delivery.  [kind] and
    [size] feed the underlying network's accounting (a frame costs a 1-unit
    sequence header on top of its payload sizes; explicit acks cost 1 unit
    each). *)

val send_many : 'msg t -> src:int -> dst:int -> (string * int * 'msg) list -> unit
(** Flush-based send: enqueue a run of [(kind, size, body)] payloads, then
    fill the window once, letting adjacent payloads share physical frames
    (up to [max_batch] per frame).  With [max_batch = 1] this is exactly
    equivalent to calling {!send} per payload, in order. *)

val reset_link : 'msg t -> src:int -> dst:int -> unit
(** Drop one directed link's queues (inflight, backlog, reorder buffer) and
    revive it if dead, as after a connection re-establishment.  Sequence
    numbers are {e not} recycled: the receiver fast-forwards to the
    sender's next sequence number, so packets still in flight from before
    the reset are discarded as duplicates on arrival. *)

val reset_node : 'msg t -> int -> unit
(** {!reset_link} on every link touching the node, both directions — the
    transport half of a crash-stop restart. *)

val resync_link : 'msg t -> src:int -> dst:int -> unit
(** Fast-forward one healed directed link.  A dead (given-up) link is
    revived and a [Sync] frame announces the sender's next sequence number,
    so the receiver stops waiting for abandoned packets {e even if no new
    payload is ever sent} — the case where both directions gave up during a
    partition and neither would otherwise break the deadlock.  A live link
    with unacked traffic gets its backoff reset and its window
    retransmitted immediately.  {!create} registers this as a
    {!Network.add_heal_hook}, so healing a partition resyncs every affected
    link automatically. *)

val in_flight : 'msg t -> int
(** Payloads accepted by {!send} and not yet acknowledged (inflight plus
    backlogged), across all links. *)

(** {1 Accounting}

    [sent] and [payloads] count {e logical messages} — the unit the paper's
    message-complexity tables (2n+6 per solver iteration) are stated in —
    and are invariant under batching and ack coalescing.  Physical frames
    live in the underlying network's counters (see {!net}). *)

type counters = {
  sent : int;  (** payloads accepted by {!send}/{!send_many} (logical messages) *)
  payloads : int;  (** payloads delivered in order to handlers *)
  retransmissions : int;  (** data packets re-sent by timers *)
  acks : int;  (** explicit acknowledgement frames sent (piggybacks excluded) *)
  dup_dropped : int;  (** received duplicates suppressed *)
  reordered : int;  (** arrivals buffered because a gap preceded them *)
  gave_up : int;  (** payloads abandoned after [max_retries] *)
  resyncs : int;
      (** heal-time {!resync_link} actions that found something to do (a
          dead link revived or a live window retransmitted) *)
  fast_rexmits : int;
      (** retransmissions triggered by three duplicate cumulative acks
          (loss evidence) rather than by the timer — these also count in
          [retransmissions] *)
}

val counters : 'msg t -> counters

val dead_links : 'msg t -> (int * int) list
(** Directed links currently given up ([(src, dst)], ascending) — dead
    until the next send on them or a {!reset_link}.  Diagnostic mirror of
    the state the give-up/heal tests and the chaos health summary report. *)
