(* The sliding-window reliable transport: exactly-once in-order delivery
   over a network that drops and duplicates, deterministic retransmission,
   and bounded give-up so the simulation always quiesces. *)

module Engine = Dsm_sim.Engine
module Latency = Dsm_net.Latency
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable

let setup ?(nodes = 2) ?(config = Reliable.default_config) ?fault ?(seed = 1L) () =
  let e = Engine.create () in
  let net = Network.create e ~nodes ~latency:(Latency.Constant 1.0) ?fault ~seed () in
  let r = Reliable.create ~config net in
  (e, r)

let collect r node =
  let got = ref [] in
  Reliable.set_handler r ~node (fun ~src msg -> got := (src, msg) :: !got);
  fun () -> List.rev !got

let test_clean_delivery () =
  let e, r = setup () in
  let got = collect r 1 in
  for i = 1 to 5 do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "in order, exactly once"
    (List.init 5 (fun i -> (0, i + 1)))
    (got ());
  let c = Reliable.counters r in
  Alcotest.(check int) "no retransmissions on a clean link" 0 c.Reliable.retransmissions;
  Alcotest.(check int) "no duplicates" 0 c.Reliable.dup_dropped

let test_exactly_once_under_loss_and_duplication () =
  let e, r =
    setup ~fault:(Network.fault ~drop:0.25 ~duplicate:0.15 ()) ~seed:7L ()
  in
  let got = collect r 1 in
  let n = 60 in
  for i = 1 to n do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "every payload delivered once, in order"
    (List.init n (fun i -> (0, i + 1)))
    (got ());
  let c = Reliable.counters r in
  Alcotest.(check bool) "the fault model actually bit" true (c.Reliable.retransmissions > 0);
  Alcotest.(check int) "nothing abandoned" 0 c.Reliable.gave_up;
  Alcotest.(check int) "all unacked drained" 0 (Reliable.in_flight r)

let test_window_limits_inflight () =
  (* With a huge latency nothing is acked, so only [window] of the packets
     may be on the wire; the rest wait in the backlog. *)
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 ~latency:(Latency.Constant 1000.0) ~seed:1L () in
  let r = Reliable.create ~config:{ Reliable.default_config with Reliable.window = 3 } net in
  let (_ : unit -> (int * int) list) = collect r 1 in
  for i = 1 to 10 do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Alcotest.(check int) "only the window is on the wire" 3 (Network.in_flight net);
  Alcotest.(check int) "backlog holds the rest" 10 (Reliable.in_flight r)

let test_retransmission_is_deterministic () =
  let run () =
    let e, r =
      setup ~fault:(Network.fault ~drop:0.2 ~duplicate:0.1 ()) ~seed:99L ()
    in
    let got = collect r 1 in
    for i = 1 to 40 do
      Reliable.send r ~src:0 ~dst:1 i
    done;
    Engine.run e;
    (got (), Reliable.counters r, Engine.now e)
  in
  let g1, c1, t1 = run () in
  let g2, c2, t2 = run () in
  Alcotest.(check bool) "same deliveries" true (g1 = g2);
  Alcotest.(check bool) "same counters (incl. retransmissions)" true (c1 = c2);
  Alcotest.(check (float 0.0)) "same simulated end time" t1 t2

let test_give_up_on_dead_link_quiesces () =
  let config = { Reliable.default_config with Reliable.max_retries = 3 } in
  let e, r = setup ~config () in
  let (_ : unit -> (int * int) list) = collect r 1 in
  Network.set_link_down (Reliable.net r) ~src:0 ~dst:1 true;
  Reliable.send r ~src:0 ~dst:1 1;
  Reliable.send r ~src:0 ~dst:1 2;
  (* The engine must quiesce despite the dead link: the retry cap converts
     an infinite retransmission loop into a counted give-up. *)
  Engine.run e;
  let c = Reliable.counters r in
  Alcotest.(check int) "both payloads abandoned" 2 c.Reliable.gave_up;
  Alcotest.(check int) "capped retransmissions" (3 * 2) c.Reliable.retransmissions;
  Alcotest.(check int) "queues cleared" 0 (Reliable.in_flight r)

let test_healed_link_revives_after_give_up () =
  let config = { Reliable.default_config with Reliable.max_retries = 2 } in
  let e, r = setup ~config () in
  let got = collect r 1 in
  Network.set_link_down (Reliable.net r) ~src:0 ~dst:1 true;
  Reliable.send r ~src:0 ~dst:1 1;
  Engine.run e;
  Alcotest.(check int) "first payload lost" 1 (Reliable.counters r).Reliable.gave_up;
  Network.set_link_down (Reliable.net r) ~src:0 ~dst:1 false;
  Reliable.send r ~src:0 ~dst:1 2;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "post-heal payload delivered" [ (0, 2) ] (got ())

let test_partition_outliving_retries_resyncs_via_base () =
  (* A partition that outlives the retry cap abandons sequence numbers for
     good.  After the heal, the next send must revive the link and the
     receiver must fast-forward its expected sequence number past the
     abandoned gap (carried in the Data [base] field) — otherwise the link
     would wait forever for packets nobody will ever retransmit. *)
  let config = { Reliable.default_config with Reliable.max_retries = 2 } in
  let e, r = setup ~config () in
  let got = collect r 1 in
  (* A clean prefix, so the gap sits mid-stream rather than at zero. *)
  for i = 1 to 3 do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Network.set_link_down (Reliable.net r) ~src:0 ~dst:1 true;
  Reliable.send r ~src:0 ~dst:1 4;
  Reliable.send r ~src:0 ~dst:1 5;
  Engine.run e;
  Alcotest.(check int) "partition outlived the retries" 2
    (Reliable.counters r).Reliable.gave_up;
  Alcotest.(check (list (pair int int))) "link reported dead" [ (0, 1) ]
    (Reliable.dead_links r);
  Network.set_link_down (Reliable.net r) ~src:0 ~dst:1 false;
  Reliable.send r ~src:0 ~dst:1 6;
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "prefix then post-heal payload; the gap is skipped, nothing stalls"
    [ (0, 1); (0, 2); (0, 3); (0, 6) ]
    (got ());
  Alcotest.(check (list (pair int int))) "revived" [] (Reliable.dead_links r);
  Alcotest.(check int) "queues drained" 0 (Reliable.in_flight r)

let test_fast_retransmit_on_dup_acks () =
  (* One lost frame with live traffic right behind it: the out-of-order
     arrivals each trigger an immediate duplicate cumulative ack, and the
     third duplicate is loss evidence — the sender must resend the
     head-of-line packet at once instead of sitting out the 8-unit rto.
     Go-back-N's head-of-line blocking would otherwise stall every payload
     buffered behind the gap for the whole timeout. *)
  let e, r = setup () in
  let delivered = ref [] in
  Reliable.set_handler r ~node:1 (fun ~src:_ msg ->
      delivered := (msg, Engine.now e) :: !delivered);
  (* Swallow exactly the first frame, then let the link run clean. *)
  Network.set_link_fault (Reliable.net r) ~src:0 ~dst:1 (Network.fault ~drop:1.0 ());
  Reliable.send r ~src:0 ~dst:1 1;
  Network.set_link_fault (Reliable.net r) ~src:0 ~dst:1 (Network.fault ());
  for i = 2 to 4 do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "in order, exactly once" [ 1; 2; 3; 4 ]
    (List.rev_map fst !delivered);
  let c = Reliable.counters r in
  Alcotest.(check int) "exactly one retransmission" 1 c.Reliable.retransmissions;
  Alcotest.(check int) "and it was dup-ack-triggered, not the timer" 1
    c.Reliable.fast_rexmits;
  let t1 = List.assoc 1 !delivered in
  Alcotest.(check bool)
    (Printf.sprintf "gap closed at t=%g, well inside the %g rto" t1
       Reliable.default_config.Reliable.rto)
    true
    (t1 < Reliable.default_config.Reliable.rto);
  Alcotest.(check int) "drained" 0 (Reliable.in_flight r)

let test_flipping_oneway_partition_heals_both_ways () =
  (* An asymmetric cut kills BOTH logical directions: data into the cut is
     dropped outright, and data the other way is delivered but its acks
     die, so both senders exhaust their retries.  After each heal the
     network's heal hooks (and the next send) must resync the dead links —
     and the same must hold again when the cut flips direction. *)
  let config = { Reliable.default_config with Reliable.max_retries = 2 } in
  let e, r = setup ~config () in
  let got0 = collect r 0 in
  let got1 = collect r 1 in
  let net = Reliable.net r in
  Network.partition_oneway net [ 0 ] [ 1 ];
  Reliable.send r ~src:0 ~dst:1 1 (* frames dropped: abandoned *);
  Reliable.send r ~src:1 ~dst:0 10 (* delivered, but its acks are dropped *);
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "reverse data still got through exactly once" [ (1, 10) ] (got0 ());
  Alcotest.(check int) "both senders exhausted their retries" 2
    (Reliable.counters r).Reliable.gave_up;
  Alcotest.(check (list (pair int int)))
    "both directions dead" [ (0, 1); (1, 0) ]
    (List.sort compare (Reliable.dead_links r));
  Network.heal_partition net [ 0 ] [ 1 ];
  Engine.run e (* the heal hook resyncs the network-down 0->1 link *);
  Reliable.send r ~src:0 ~dst:1 2;
  Reliable.send r ~src:1 ~dst:0 11 (* revives the transport-dead 1->0 link *);
  Engine.run e;
  (* Flip the cut: now 1->0 drops. *)
  Network.partition_oneway net [ 1 ] [ 0 ];
  Reliable.send r ~src:1 ~dst:0 12 (* abandoned *);
  Reliable.send r ~src:0 ~dst:1 3 (* delivered, acks die, link gives up *);
  Engine.run e;
  Alcotest.(check int) "two more give-ups after the flip" 4 (Reliable.counters r).Reliable.gave_up;
  Network.heal_all net;
  Engine.run e;
  Reliable.send r ~src:0 ~dst:1 4;
  Reliable.send r ~src:1 ~dst:0 13;
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "forward stream: only the payload cut in direction 0->1 is missing"
    [ (0, 2); (0, 3); (0, 4) ]
    (got1 ());
  Alcotest.(check (list (pair int int)))
    "reverse stream: only the payload cut in direction 1->0 is missing"
    [ (1, 10); (1, 11); (1, 13) ]
    (got0 ());
  Alcotest.(check (list (pair int int))) "all links revived" [] (Reliable.dead_links r);
  Alcotest.(check bool) "heals resynced the dead links" true
    ((Reliable.counters r).Reliable.resyncs >= 2);
  Alcotest.(check int) "drained" 0 (Reliable.in_flight r)

let test_ack_loss_causes_dup_suppression () =
  (* Drop everything node 1 sends back: data always arrives, acks never do,
     so the sender retransmits until the retry cap and the receiver must
     suppress every retransmitted copy. *)
  let config = { Reliable.default_config with Reliable.max_retries = 2 } in
  let e, r = setup ~config () in
  let got = collect r 1 in
  Network.set_link_fault (Reliable.net r) ~src:1 ~dst:0 (Network.fault ~drop:1.0 ());
  Reliable.send r ~src:0 ~dst:1 1;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "delivered exactly once" [ (0, 1) ] (got ());
  let c = Reliable.counters r in
  Alcotest.(check int) "retransmitted copies suppressed" 2 c.Reliable.dup_dropped

let test_reset_link_discards_stale_inflight () =
  (* Packets in flight across a reset must not shadow the post-reset
     stream: sequence numbers are monotonic, so stale arrivals are dropped
     as duplicates. *)
  let e, r = setup () in
  let got = collect r 1 in
  Reliable.send r ~src:0 ~dst:1 1;
  Reliable.send r ~src:0 ~dst:1 2;
  (* Reset while both packets are still in flight. *)
  Reliable.reset_link r ~src:0 ~dst:1;
  Reliable.send r ~src:0 ~dst:1 3;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "only the post-reset payload" [ (0, 3) ] (got ())

let test_reset_node_both_directions () =
  let e, r = setup ~nodes:3 () in
  let got1 = collect r 1 in
  let (_ : unit -> (int * int) list) = collect r 0 in
  let (_ : unit -> (int * int) list) = collect r 2 in
  Reliable.send r ~src:0 ~dst:1 10;
  Reliable.send r ~src:1 ~dst:2 20;
  Reliable.reset_node r 1;
  Reliable.send r ~src:0 ~dst:1 11;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "pre-reset traffic gone" [ (0, 11) ] (got1 ());
  Alcotest.(check int) "nothing stuck" 0 (Reliable.in_flight r)

let test_wire_size_accounting () =
  (* Data carries a 1-unit sequence header; acks cost 1 unit each. *)
  let e, r = setup () in
  let (_ : unit -> (int * int) list) = collect r 1 in
  Reliable.send r ~src:0 ~dst:1 ~kind:"PAY" ~size:10 1;
  Engine.run e;
  let c = Network.counters (Reliable.net r) in
  Alcotest.(check int) "payload+header and one ack" (10 + 1 + 1) c.Network.bytes;
  Alcotest.(check (list (pair string int)))
    "kinds tagged" [ ("ACK", 1); ("PAY", 1) ] c.Network.by_kind

let test_bad_config_rejected () =
  let e = Engine.create () in
  let net () = Network.create e ~nodes:2 () in
  Alcotest.check_raises "window" (Invalid_argument "Reliable: window must be >= 1")
    (fun () -> ignore (Reliable.create ~config:{ Reliable.default_config with Reliable.window = 0 } (net ())));
  Alcotest.check_raises "rto" (Invalid_argument "Reliable: rto must be positive")
    (fun () -> ignore (Reliable.create ~config:{ Reliable.default_config with Reliable.rto = 0.0 } (net ())));
  Alcotest.check_raises "backoff" (Invalid_argument "Reliable: backoff must be >= 1")
    (fun () -> ignore (Reliable.create ~config:{ Reliable.default_config with Reliable.backoff = 0.5 } (net ())))

(* {1 Window-refill ordering (regression for the Queue-based inflight)}

   The inflight list used to be rebuilt with [@ [p]] per refill; replacing
   it with a queue must not perturb go-back-N ordering.  The boundary
   windows are the interesting ones: window=1 serialises every packet
   through the refill path, window=8 (the default) exercises full-window
   retransmission bursts. *)

let test_refill_ordering_under_drops window () =
  let config = { Reliable.default_config with Reliable.window } in
  List.iter
    (fun seed ->
      let e, r = setup ~config ~fault:(Network.fault ~drop:0.3 ~duplicate:0.1 ()) ~seed () in
      let got = collect r 1 in
      let n = 30 in
      for i = 1 to n do
        Reliable.send r ~src:0 ~dst:1 i
      done;
      Engine.run e;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "window=%d seed=%Ld: in order, exactly once" window seed)
        (List.init n (fun i -> (0, i + 1)))
        (got ());
      Alcotest.(check int) "drained" 0 (Reliable.in_flight r))
    [ 3L; 11L; 42L ]

(* {1 Batching and ack coalescing} *)

let test_send_many_unbatched_equals_send_loop () =
  (* With max_batch = 1 the flush path must be byte-identical to a send
     loop: same frames, same counters, same simulated end time. *)
  let payloads = List.init 12 (fun i -> ("PAY", 3, i + 1)) in
  let run use_many =
    let e, r = setup ~fault:(Network.fault ~drop:0.2 ~duplicate:0.1 ()) ~seed:17L () in
    let got = collect r 1 in
    if use_many then Reliable.send_many r ~src:0 ~dst:1 payloads
    else List.iter (fun (kind, size, p) -> Reliable.send r ~src:0 ~dst:1 ~kind ~size p) payloads;
    Engine.run e;
    (got (), Reliable.counters r, Network.counters (Reliable.net r), Engine.now e)
  in
  let g1, c1, w1, t1 = run true in
  let g2, c2, w2, t2 = run false in
  Alcotest.(check bool) "same deliveries" true (g1 = g2);
  Alcotest.(check bool) "same transport counters" true (c1 = c2);
  Alcotest.(check bool) "same wire counters" true (w1 = w2);
  Alcotest.(check (float 0.0)) "same end time" t1 t2

let test_batching_shares_frames () =
  let e, r = setup ~config:Reliable.batching_config () in
  let got = collect r 1 in
  let n = 20 in
  Reliable.send_many r ~src:0 ~dst:1 (List.init n (fun i -> ("PAY", 1, i + 1)));
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "in order, exactly once"
    (List.init n (fun i -> (0, i + 1)))
    (got ());
  let frames = Network.lifetime_total (Reliable.net r) in
  let c = Reliable.counters r in
  Alcotest.(check int) "logical count unaffected" n c.Reliable.sent;
  (* 20 payloads fit in 3 batch frames (window 8, max_batch 8) plus a few
     coalesced acks — far below the 40 frames of the unbatched transport. *)
  Alcotest.(check bool)
    (Printf.sprintf "far fewer frames than payloads (%d frames)" frames)
    true
    (frames <= n / 2);
  Alcotest.(check bool)
    (Printf.sprintf "acks coalesced (%d acks)" c.Reliable.acks)
    true
    (c.Reliable.acks * 2 <= c.Reliable.payloads)

let test_batching_exactly_once_under_loss () =
  List.iter
    (fun seed ->
      let e, r =
        setup ~config:Reliable.batching_config
          ~fault:(Network.fault ~drop:0.25 ~duplicate:0.15 ())
          ~seed ()
      in
      let got = collect r 1 in
      let n = 60 in
      (* Mix flush sends and singles so both transmit paths see loss. *)
      Reliable.send_many r ~src:0 ~dst:1 (List.init (n / 2) (fun i -> ("PAY", 1, i + 1)));
      for i = (n / 2) + 1 to n do
        Reliable.send r ~src:0 ~dst:1 i
      done;
      Engine.run e;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %Ld: exactly once, in order" seed)
        (List.init n (fun i -> (0, i + 1)))
        (got ());
      Alcotest.(check int) "nothing abandoned" 0 (Reliable.counters r).Reliable.gave_up;
      Alcotest.(check int) "drained" 0 (Reliable.in_flight r))
    [ 7L; 19L; 23L ]

let test_delayed_ack_eventually_acks_tail () =
  (* A lone payload under coalescing: nothing reaches ack_every and no
     reverse traffic piggybacks, so only the delayed-ack timer can confirm
     it — the sender must not retransmit or stall. *)
  let e, r = setup ~config:Reliable.batching_config () in
  let got = collect r 1 in
  Reliable.send r ~src:0 ~dst:1 1;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 1) ] (got ());
  let c = Reliable.counters r in
  Alcotest.(check int) "no retransmission" 0 c.Reliable.retransmissions;
  Alcotest.(check int) "exactly one delayed ack" 1 c.Reliable.acks;
  Alcotest.(check int) "drained" 0 (Reliable.in_flight r)

let test_piggyback_acks_on_reverse_traffic () =
  (* Bidirectional ping-pong under coalescing: the reverse data frames
     carry the cumulative ack, so explicit ack frames stay rare. *)
  let e, r = setup ~config:Reliable.batching_config () in
  let got0 = ref [] in
  let got1 = ref [] in
  Reliable.set_handler r ~node:0 (fun ~src:_ msg -> got0 := msg :: !got0);
  Reliable.set_handler r ~node:1 (fun ~src:_ msg ->
      got1 := msg :: !got1;
      (* Reply in the handler: reverse traffic exists while acks are
         pending, which is what piggybacking exploits. *)
      Reliable.send r ~src:1 ~dst:0 (msg + 100));
  for i = 1 to 20 do
    Reliable.send r ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check int) "all forward payloads" 20 (List.length !got1);
  Alcotest.(check int) "all replies" 20 (List.length !got0);
  let c = Reliable.counters r in
  Alcotest.(check int) "40 logical payloads" 40 c.Reliable.payloads;
  Alcotest.(check bool)
    (Printf.sprintf "piggybacking kept explicit acks rare (%d)" c.Reliable.acks)
    true
    (c.Reliable.acks <= c.Reliable.payloads / 4);
  Alcotest.(check int) "drained" 0 (Reliable.in_flight r)

let test_bad_batching_config_rejected () =
  let e = Engine.create () in
  let net () = Network.create e ~nodes:2 () in
  let reject name config msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Reliable.create ~config (net ())))
  in
  reject "max_batch"
    { Reliable.default_config with Reliable.max_batch = 0 }
    "Reliable: max_batch must be >= 1";
  reject "ack_every"
    { Reliable.default_config with Reliable.ack_every = 0 }
    "Reliable: ack_every must be >= 1";
  reject "ack_delay"
    { Reliable.default_config with Reliable.ack_delay = -1.0 }
    "Reliable: ack_delay must be >= 0";
  reject "ack_every needs delay"
    { Reliable.default_config with Reliable.ack_every = 4 }
    "Reliable: ack_every > 1 requires ack_delay > 0";
  reject "ack_delay under rto"
    { Reliable.default_config with Reliable.ack_delay = 8.0 }
    "Reliable: ack_delay must be < rto"

let suite =
  [
    Alcotest.test_case "clean delivery" `Quick test_clean_delivery;
    Alcotest.test_case "exactly-once under loss+dup" `Quick
      test_exactly_once_under_loss_and_duplication;
    Alcotest.test_case "window limits inflight" `Quick test_window_limits_inflight;
    Alcotest.test_case "deterministic retransmission" `Quick
      test_retransmission_is_deterministic;
    Alcotest.test_case "give-up quiesces" `Quick test_give_up_on_dead_link_quiesces;
    Alcotest.test_case "healed link revives" `Quick test_healed_link_revives_after_give_up;
    Alcotest.test_case "partition resync via base" `Quick
      test_partition_outliving_retries_resyncs_via_base;
    Alcotest.test_case "fast retransmit on dup acks" `Quick
      test_fast_retransmit_on_dup_acks;
    Alcotest.test_case "flipping one-way partition" `Quick
      test_flipping_oneway_partition_heals_both_ways;
    Alcotest.test_case "ack loss suppressed" `Quick test_ack_loss_causes_dup_suppression;
    Alcotest.test_case "refill ordering, window=1" `Quick (test_refill_ordering_under_drops 1);
    Alcotest.test_case "refill ordering, window=8" `Quick (test_refill_ordering_under_drops 8);
    Alcotest.test_case "send_many unbatched = send loop" `Quick
      test_send_many_unbatched_equals_send_loop;
    Alcotest.test_case "batching shares frames" `Quick test_batching_shares_frames;
    Alcotest.test_case "batching exactly-once under loss" `Quick
      test_batching_exactly_once_under_loss;
    Alcotest.test_case "delayed ack covers the tail" `Quick
      test_delayed_ack_eventually_acks_tail;
    Alcotest.test_case "piggyback on reverse traffic" `Quick
      test_piggyback_acks_on_reverse_traffic;
    Alcotest.test_case "bad batching config" `Quick test_bad_batching_config_rejected;
    Alcotest.test_case "reset drops stale inflight" `Quick
      test_reset_link_discards_stale_inflight;
    Alcotest.test_case "reset node" `Quick test_reset_node_both_directions;
    Alcotest.test_case "wire accounting" `Quick test_wire_size_accounting;
    Alcotest.test_case "bad config" `Quick test_bad_config_rejected;
  ]
