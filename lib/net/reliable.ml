type config = {
  window : int;
  rto : float;
  backoff : float;
  max_rto : float;
  max_retries : int;
  max_batch : int;
  ack_every : int;
  ack_delay : float;
}

let default_config =
  {
    window = 8;
    rto = 8.0;
    backoff = 2.0;
    max_rto = 64.0;
    max_retries = 8;
    max_batch = 1;
    ack_every = 1;
    ack_delay = 0.0;
  }

let batching_config = { default_config with max_batch = 8; ack_every = 4; ack_delay = 2.0 }

let validate_config c =
  if c.window < 1 then invalid_arg "Reliable: window must be >= 1";
  if c.rto <= 0.0 then invalid_arg "Reliable: rto must be positive";
  if c.backoff < 1.0 then invalid_arg "Reliable: backoff must be >= 1";
  if c.max_rto < c.rto then invalid_arg "Reliable: max_rto must be >= rto";
  if c.max_retries < 0 then invalid_arg "Reliable: max_retries must be >= 0";
  if c.max_batch < 1 then invalid_arg "Reliable: max_batch must be >= 1";
  if c.ack_every < 1 then invalid_arg "Reliable: ack_every must be >= 1";
  if c.ack_delay < 0.0 then invalid_arg "Reliable: ack_delay must be >= 0";
  if c.ack_every > 1 && c.ack_delay <= 0.0 then
    invalid_arg "Reliable: ack_every > 1 requires ack_delay > 0";
  if c.ack_delay >= c.rto then invalid_arg "Reliable: ack_delay must be < rto"

type 'msg framed =
  | Data of { seq : int; base : int; kind : string; body : 'msg; ack : int }
  | Batch of { base : int; ack : int; items : (int * string * 'msg) list }
  | Ack of { upto : int }
  | Sync of { base : int }
      (* heal-time resync: the sender's stream restarts at [base]; the
         receiver abandons everything below it so neither side waits for
         sequence numbers the other gave up on during the outage *)

type 'msg packet = {
  seq : int;
  kind : string;
  size : int;
  body : 'msg;
  mutable retries : int;
  mutable sent_at : float; (* simulated time of the last (re)transmission *)
}

(* Sender half of one directed link. *)
type 'msg link_out = {
  mutable next_seq : int;
  inflight : 'msg packet Queue.t; (* oldest first; length <= window, O(1) size *)
  backlog : 'msg packet Queue.t; (* sequenced, waiting for window space *)
  mutable timer_armed : bool;
  mutable cur_rto : float;
  mutable dup_acks : int;
      (* consecutive duplicate cumulative acks for the current head-of-line
         packet — loss evidence that triggers fast retransmit at 3 *)
  mutable dead : bool; (* gave up after max_retries; revived by the next send *)
}

(* Receiver half of one directed link. *)
type 'msg link_in = {
  mutable expected : int; (* next in-order sequence number *)
  reorder : (int, string * 'msg) Hashtbl.t; (* arrived early, not yet deliverable *)
  mutable last_acked : int; (* highest [upto] confirmed, explicitly or piggybacked *)
  mutable ack_timer_armed : bool; (* a delayed-ack timer is pending *)
}

type counters = {
  sent : int;
  payloads : int;
  retransmissions : int;
  acks : int;
  dup_dropped : int;
  reordered : int;
  gave_up : int;
  resyncs : int;
  fast_rexmits : int;
}

type 'msg t = {
  net : 'msg framed Network.t;
  config : config;
  out : 'msg link_out option array; (* src * nodes + dst, lazily created *)
  inn : 'msg link_in option array;
  handlers : (src:int -> 'msg -> unit) option array;
  mutable sent : int;
  mutable payloads : int;
  mutable retransmissions : int;
  mutable acks : int;
  mutable dup_dropped : int;
  mutable reordered : int;
  mutable gave_up : int;
  mutable resyncs : int;
  mutable fast_rexmits : int;
}

let ack_size = 1

let seq_overhead = 1

let net t = t.net

let nodes (t : 'msg t) = Network.nodes t.net

let config t = t.config

(* Ack coalescing is opt-in: with it off (the default), every data frame is
   acknowledged immediately and no delayed-ack timers or piggyback state
   exist, so default-config runs take exactly the historical code paths. *)
let coalescing t = t.config.ack_every > 1 || t.config.ack_delay > 0.0

let link_index t ~src ~dst = (src * nodes t) + dst

let out_link t ~src ~dst =
  let i = link_index t ~src ~dst in
  match t.out.(i) with
  | Some l -> l
  | None ->
      let l =
        {
          next_seq = 0;
          inflight = Queue.create ();
          backlog = Queue.create ();
          timer_armed = false;
          cur_rto = t.config.rto;
          dup_acks = 0;
          dead = false;
        }
      in
      t.out.(i) <- Some l;
      l

let in_link t ~src ~dst =
  let i = link_index t ~src ~dst in
  match t.inn.(i) with
  | Some l -> l
  | None ->
      let l =
        { expected = 0; reorder = Hashtbl.create 8; last_acked = -1; ack_timer_armed = false }
      in
      t.inn.(i) <- Some l;
      l

(* Cumulative ack to piggyback on a data frame travelling [src] -> [dst]:
   the highest in-order sequence number [src] has received {e from} [dst]
   and not yet acknowledged, or [-1] when there is nothing new to confirm.
   Only consulted under coalescing — the piggyback covers the pending
   acknowledgement, so the delayed-ack timer finds nothing to do. *)
let piggyback t ~src ~dst =
  if not (coalescing t) then -1
  else begin
    let l = in_link t ~src:dst ~dst:src in
    let upto = l.expected - 1 in
    if upto > l.last_acked then begin
      l.last_acked <- upto;
      upto
    end
    else -1
  end

let rec arm_timer ?delay t ~src ~dst (l : 'msg link_out) =
  (* Arm the (single, per-link) retransmission timer.  Timers are plain
     engine events and cannot be cancelled; a fired timer that finds its
     packets already acked is a no-op, which merely delays quiescence by
     one RTO. *)
  if not l.timer_armed then begin
    l.timer_armed <- true;
    let delay = Option.value delay ~default:l.cur_rto in
    Dsm_sim.Engine.schedule (Network.engine t.net) ~delay (fun () ->
        l.timer_armed <- false;
        on_timeout t ~src ~dst l)
  end

and on_timeout t ~src ~dst (l : 'msg link_out) =
  match Queue.peek_opt l.inflight with
  | None -> () (* everything acked since the timer was armed *)
  | Some oldest ->
      let age = Dsm_sim.Engine.now (Network.engine t.net) -. oldest.sent_at in
      if age +. 1e-9 < l.cur_rto then
        (* The timer outlived the packet it was armed for (that one was
           acked and a younger packet took its place).  Re-arm for the
           younger packet's remaining budget instead of retransmitting. *)
        arm_timer t ~src ~dst ~delay:(l.cur_rto -. age) l
      else if oldest.retries >= t.config.max_retries then begin
        (* Retry cap exhausted: declare the link dead and drop its queue so
           the engine can quiesce.  A later send revives the link. *)
        l.dead <- true;
        t.gave_up <- t.gave_up + Queue.length l.inflight + Queue.length l.backlog;
        Queue.clear l.inflight;
        Queue.clear l.backlog
      end
      else begin
        (* Go-back-N: resend every unacked packet, oldest first. *)
        let ps = List.of_seq (Queue.to_seq l.inflight) in
        List.iter
          (fun (p : 'msg packet) ->
            p.retries <- p.retries + 1;
            t.retransmissions <- t.retransmissions + 1)
          ps;
        transmit_run t ~src ~dst l ps;
        l.cur_rto <- Float.min (l.cur_rto *. t.config.backoff) t.config.max_rto;
        arm_timer t ~src ~dst l
      end

and transmit t ~src ~dst (l : 'msg link_out) (p : 'msg packet) =
  (* [base] is the oldest sequence number the sender still retains.  The
     receiver uses it to skip past sequence numbers abandoned by a give-up:
     anything below [base] will never be (re)transmitted again. *)
  let base = match Queue.peek_opt l.inflight with Some oldest -> oldest.seq | None -> p.seq in
  p.sent_at <- Dsm_sim.Engine.now (Network.engine t.net);
  Network.send t.net ~src ~dst ~kind:p.kind ~size:(p.size + seq_overhead)
    (Data { seq = p.seq; base; kind = p.kind; body = p.body; ack = piggyback t ~src ~dst })

and transmit_batch t ~src ~dst (l : 'msg link_out) (ps : 'msg packet list) =
  (* One physical frame carrying several sequenced payloads: one header,
     the sum of the payload sizes, the same [base] resync marker.  The
     frame's kind is the payloads' kind when uniform, so per-kind wire
     accounting stays readable. *)
  let base =
    match Queue.peek_opt l.inflight with
    | Some oldest -> oldest.seq
    | None -> (match ps with p :: _ -> p.seq | [] -> assert false)
  in
  let now = Dsm_sim.Engine.now (Network.engine t.net) in
  let size = List.fold_left (fun acc (p : 'msg packet) -> acc + p.size) 0 ps + seq_overhead in
  let kind =
    match ps with
    | p :: rest -> if List.for_all (fun (q : 'msg packet) -> q.kind = p.kind) rest then p.kind else "BATCH"
    | [] -> assert false
  in
  List.iter (fun (p : 'msg packet) -> p.sent_at <- now) ps;
  Network.send t.net ~src ~dst ~kind ~size
    (Batch
       {
         base;
         ack = piggyback t ~src ~dst;
         items = List.map (fun (p : 'msg packet) -> (p.seq, p.kind, p.body)) ps;
       })

and transmit_run t ~src ~dst (l : 'msg link_out) ps =
  (* Transmit a run of packets (a window refill or a go-back-N burst),
     chunked into at most [max_batch] payloads per physical frame.  With
     [max_batch = 1] this is one Data frame per packet — the historical
     behavior, byte for byte. *)
  if t.config.max_batch = 1 then List.iter (transmit t ~src ~dst l) ps
  else begin
    let rec chunks = function
      | [] -> ()
      | ps ->
          let rec take k acc = function
            | p :: rest when k > 0 -> take (k - 1) (p :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let group, rest = take t.config.max_batch [] ps in
          (match group with
          | [ p ] -> transmit t ~src ~dst l p
          | group -> transmit_batch t ~src ~dst l group);
          chunks rest
    in
    chunks ps
  end

and fill_window t ~src ~dst (l : 'msg link_out) =
  let fresh = ref [] in
  while Queue.length l.inflight < t.config.window && not (Queue.is_empty l.backlog) do
    let p = Queue.pop l.backlog in
    Queue.push p l.inflight;
    fresh := p :: !fresh
  done;
  (match List.rev !fresh with [] -> () | ps -> transmit_run t ~src ~dst l ps);
  if not (Queue.is_empty l.inflight) then arm_timer t ~src ~dst l

and handle_ack t ~me ~peer upto =
  let l = out_link t ~src:me ~dst:peer in
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt l.inflight with
    | Some (p : 'msg packet) when p.seq <= upto ->
        ignore (Queue.pop l.inflight);
        progressed := true
    | Some _ | None -> continue := false
  done;
  if !progressed then begin
    (* Forward progress: the link is alive, restart the backoff schedule. *)
    l.cur_rto <- t.config.rto;
    l.dup_acks <- 0;
    fill_window t ~src:me ~dst:peer l
  end
  else
    (* Fast retransmit: the receiver acks its in-order frontier on every
       out-of-order arrival, so repeated acks for [oldest - 1] mean later
       frames are getting through while the head of the line was lost.
       Waiting out the (possibly backed-off) timer would stall the whole
       link for tens of time units; three duplicates — enough to rule out
       simple reordering — resend the gap packet immediately.  The acks
       also prove the link is alive, so the backoff schedule restarts. *)
    match Queue.peek_opt l.inflight with
    | Some (oldest : 'msg packet) when upto = oldest.seq - 1 ->
        l.dup_acks <- l.dup_acks + 1;
        if l.dup_acks >= 3 && oldest.retries < t.config.max_retries then begin
          l.dup_acks <- 0;
          oldest.retries <- oldest.retries + 1;
          t.retransmissions <- t.retransmissions + 1;
          t.fast_rexmits <- t.fast_rexmits + 1;
          l.cur_rto <- t.config.rto;
          transmit t ~src:me ~dst:peer l oldest
        end
    | Some _ | None -> ()

let send_ack t ~src ~dst (l : 'msg link_in) upto =
  t.acks <- t.acks + 1;
  if upto > l.last_acked then l.last_acked <- upto;
  (* [src] here is the acknowledging node: acks flow dst -> src of the data
     link, and are themselves subject to the fault model. *)
  Network.send t.net ~src ~dst ~kind:"ACK" ~size:ack_size (Ack { upto })

let arm_ack_timer t ~me ~peer (l : 'msg link_in) =
  (* Delayed cumulative ack: one uncancellable engine event per link; if a
     piggyback or an ack-every-k ack covered everything first, the timer
     fires as a no-op. *)
  if not l.ack_timer_armed then begin
    l.ack_timer_armed <- true;
    Dsm_sim.Engine.schedule (Network.engine t.net) ~delay:t.config.ack_delay (fun () ->
        l.ack_timer_armed <- false;
        if l.expected - 1 > l.last_acked then send_ack t ~src:me ~dst:peer l (l.expected - 1))
  end

(* One payload into the receive pipeline: fast-forward past abandoned
   sequence numbers, suppress duplicates, buffer early arrivals, deliver
   the longest in-order prefix. *)
let ingest t ~me ~peer (l : 'msg link_in) ~seq ~base ~kind body =
  if base > l.expected then begin
    (* The sender gave up on [expected, base): those sequence numbers will
       never be (re)sent, so waiting for them would wedge the link forever.
       Skip the gap, discarding any early arrivals buffered inside it. *)
    for s = l.expected to base - 1 do
      Hashtbl.remove l.reorder s
    done;
    l.expected <- base
  end;
  if seq < l.expected || Hashtbl.mem l.reorder seq then begin
    (* Duplicate (retransmission of something already delivered, or a
       network-duplicated copy): drop; the frame-level ack policy re-acks
       so the sender advances. *)
    t.dup_dropped <- t.dup_dropped + 1;
    `Dup
  end
  else begin
    if seq > l.expected then t.reordered <- t.reordered + 1;
    Hashtbl.replace l.reorder seq (kind, body);
    let delivered = ref 0 in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt l.reorder l.expected with
      | None -> continue := false
      | Some (_, payload) ->
          Hashtbl.remove l.reorder l.expected;
          l.expected <- l.expected + 1;
          t.payloads <- t.payloads + 1;
          incr delivered;
          (match t.handlers.(me) with
          | Some handler -> handler ~src:peer payload
          | None ->
              failwith (Printf.sprintf "Reliable: node %d has no handler installed" me))
    done;
    if !delivered = 0 then `Buffered else `Delivered !delivered
  end

(* The per-frame acknowledgement decision.  Without coalescing, every data
   frame is acked immediately (the historical behavior).  With coalescing,
   duplicates and gaps are acked at once — they signal loss, and the sender
   is likely retransmitting — while clean in-order progress is confirmed
   every [ack_every] payloads or after [ack_delay], whichever comes first;
   reverse-direction data frames piggyback the ack for free. *)
let ack_after_frame t ~me ~peer (l : 'msg link_in) ~dup ~gap =
  if not (coalescing t) then send_ack t ~src:me ~dst:peer l (l.expected - 1)
  else if dup || gap then send_ack t ~src:me ~dst:peer l (l.expected - 1)
  else begin
    let unacked = l.expected - 1 - l.last_acked in
    if unacked >= t.config.ack_every then send_ack t ~src:me ~dst:peer l (l.expected - 1)
    else if unacked > 0 then arm_ack_timer t ~me ~peer l
  end

let handle_data t ~me ~peer ~seq ~base ~kind body =
  let l = in_link t ~src:peer ~dst:me in
  match ingest t ~me ~peer l ~seq ~base ~kind body with
  | `Dup -> ack_after_frame t ~me ~peer l ~dup:true ~gap:false
  | `Buffered -> ack_after_frame t ~me ~peer l ~dup:false ~gap:true
  | `Delivered _ -> ack_after_frame t ~me ~peer l ~dup:false ~gap:false

let handle_sync t ~me ~peer ~base =
  (* The peer's sender stream restarts at [base] after a heal: discard any
     early arrivals below it and stop waiting for the abandoned gap.  Ack
     the new frontier so the peer knows the stream is in step again. *)
  let l = in_link t ~src:peer ~dst:me in
  if base > l.expected then begin
    for s = l.expected to base - 1 do
      Hashtbl.remove l.reorder s
    done;
    l.expected <- base
  end;
  send_ack t ~src:me ~dst:peer l (l.expected - 1)

let handle_batch t ~me ~peer ~base items =
  let l = in_link t ~src:peer ~dst:me in
  let dup = ref false in
  let gap = ref false in
  List.iter
    (fun (seq, kind, body) ->
      match ingest t ~me ~peer l ~seq ~base ~kind body with
      | `Dup -> dup := true
      | `Buffered -> gap := true
      | `Delivered _ -> ())
    items;
  ack_after_frame t ~me ~peer l ~dup:!dup ~gap:!gap

let resync_link t ~src ~dst =
  let i = link_index t ~src ~dst in
  match t.out.(i) with
  | None -> ()
  | Some l ->
      if l.dead then begin
        (* The sender abandoned everything below [next_seq] when it gave up:
           announce the restart point so the receiver fast-forwards instead
           of waiting forever for sequence numbers that will never come. *)
        l.dead <- false;
        l.cur_rto <- t.config.rto;
        t.resyncs <- t.resyncs + 1;
        Network.send t.net ~src ~dst ~kind:"SYNC" ~size:ack_size (Sync { base = l.next_seq })
      end
      else if not (Queue.is_empty l.inflight) then begin
        (* Unacked traffic survived the outage at an inflated backoff level:
           restart the schedule and retransmit now rather than waiting out
           the remaining RTO. *)
        l.cur_rto <- t.config.rto;
        t.resyncs <- t.resyncs + 1;
        let ps = List.of_seq (Queue.to_seq l.inflight) in
        List.iter (fun (p : 'msg packet) -> p.retries <- 0) ps;
        transmit_run t ~src ~dst l ps;
        arm_timer t ~src ~dst l
      end

let create ?(config = default_config) net =
  validate_config config;
  let nodes = Network.nodes net in
  let t =
    {
      net;
      config;
      out = Array.make (nodes * nodes) None;
      inn = Array.make (nodes * nodes) None;
      handlers = Array.make nodes None;
      sent = 0;
      payloads = 0;
      retransmissions = 0;
      acks = 0;
      dup_dropped = 0;
      reordered = 0;
      gave_up = 0;
      resyncs = 0;
      fast_rexmits = 0;
    }
  in
  (* Every node gets the demultiplexer from the start: acks flow back to
     senders whether or not they ever install a payload handler.  A
     piggybacked cumulative ack on a data frame is applied before its
     payloads, so freed window slots refill within the same delivery. *)
  for me = 0 to nodes - 1 do
    Network.set_handler net ~node:me (fun ~src msg ->
        match msg with
        | Ack { upto } -> handle_ack t ~me ~peer:src upto
        | Data { seq; base; kind; body; ack } ->
            if ack >= 0 then handle_ack t ~me ~peer:src ack;
            handle_data t ~me ~peer:src ~seq ~base ~kind body
        | Batch { base; ack; items } ->
            if ack >= 0 then handle_ack t ~me ~peer:src ack;
            handle_batch t ~me ~peer:src ~base items
        | Sync { base } -> handle_sync t ~me ~peer:src ~base)
  done;
  (* When the network heals a directed link, proactively resynchronise it:
     a link where both directions gave up during the outage must not stay
     wedged waiting for traffic that will never come. *)
  Network.add_heal_hook net (fun ~src ~dst -> resync_link t ~src ~dst);
  t

let set_handler t ~node handler = t.handlers.(node) <- Some handler

let enqueue t (l : 'msg link_out) ~kind ~size body =
  if l.dead then begin
    (* Revive a given-up link: the new packet gets a fresh retry budget, so
       a healed link recovers without manual intervention while a still-dead
       one re-exhausts the cap and quiesces again. *)
    l.dead <- false;
    l.cur_rto <- t.config.rto
  end;
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  Queue.push { seq; kind; size; body; retries = 0; sent_at = 0.0 } l.backlog

let send t ~src ~dst ?(kind = "msg") ?(size = 1) body =
  let l = out_link t ~src ~dst in
  enqueue t l ~kind ~size body;
  fill_window t ~src ~dst l

let send_many t ~src ~dst payloads =
  match payloads with
  | [] -> ()
  | payloads ->
      (* Flush-based path: sequence the whole run first, then fill the
         window once, so adjacent payloads can share physical frames (up to
         [max_batch] per frame).  With [max_batch = 1] this is exactly
         equivalent to calling {!send} per payload. *)
      let l = out_link t ~src ~dst in
      List.iter (fun (kind, size, body) -> enqueue t l ~kind ~size body) payloads;
      fill_window t ~src ~dst l

let reset_link t ~src ~dst =
  let i = link_index t ~src ~dst in
  (* Sequence numbers survive the reset: the receiver fast-forwards to the
     sender's next sequence number, so packets already in flight from before
     the reset arrive with [seq < expected] and are discarded as duplicates
     instead of corrupting the post-reset stream. *)
  let next =
    match t.out.(i) with
    | Some l ->
        Queue.clear l.inflight;
        Queue.clear l.backlog;
        l.cur_rto <- t.config.rto;
        l.dead <- false;
        l.next_seq
    | None -> 0
  in
  match t.inn.(i) with
  | Some l ->
      l.expected <- next;
      l.last_acked <- next - 1;
      Hashtbl.reset l.reorder
  | None ->
      if next > 0 then
        t.inn.(i) <-
          Some
            {
              expected = next;
              reorder = Hashtbl.create 8;
              last_acked = next - 1;
              ack_timer_armed = false;
            }

let reset_node t node =
  for peer = 0 to nodes t - 1 do
    reset_link t ~src:node ~dst:peer;
    reset_link t ~src:peer ~dst:node
  done

let in_flight t =
  Array.fold_left
    (fun acc l ->
      match l with
      | Some l -> acc + Queue.length l.inflight + Queue.length l.backlog
      | None -> acc)
    0 t.out

let counters t =
  {
    sent = t.sent;
    payloads = t.payloads;
    retransmissions = t.retransmissions;
    acks = t.acks;
    dup_dropped = t.dup_dropped;
    reordered = t.reordered;
    gave_up = t.gave_up;
    resyncs = t.resyncs;
    fast_rexmits = t.fast_rexmits;
  }

let dead_links t =
  let n = nodes t in
  let acc = ref [] in
  for i = Array.length t.out - 1 downto 0 do
    match t.out.(i) with
    | Some l when l.dead -> acc := (i / n, i mod n) :: !acc
    | Some _ | None -> ()
  done;
  !acc
