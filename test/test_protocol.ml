(* The pure core's contract: [Protocol.step] is effect-free, so the same
   initial state fed the same event sequence must produce identical action
   lists — that is what makes recorded traces replayable and the golden
   traces stable.  The random closed-loop schedule generator lives in
   [Dsm_mc.Gen] (the model checker shares it); here we record one run,
   replay the recording against a fresh state and compare every action
   list structurally. *)

module P = Dsm_protocol.Protocol
module Message = Dsm_protocol.Message
module Gen = Dsm_mc.Gen

let fresh_state () = Gen.fresh_state ()

let generate ~seed ~steps = Gen.random_run ~seed ~steps ()

let summary st = (P.counters st, P.view st)

let test_deterministic_replay () =
  List.iter
    (fun seed ->
      let events, recorded = generate ~seed ~steps:400 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld produced events" seed)
        true (events <> []);
      (* Replay the exact event sequence against a fresh identical state:
         every action list must match structurally (actions are pure data,
         so polymorphic equality is meaningful). *)
      let st = fresh_state () in
      let replayed = List.map (fun ev -> snd (P.step st ev)) events in
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "seed %Ld: event %d replayed to different actions" seed i)
        (List.combine recorded replayed);
      (* And a second generation from the same seed is bit-identical end to
         end, counters included. *)
      let events2, recorded2 = generate ~seed ~steps:400 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld regenerates the same events" seed)
        true
        (events = events2 && recorded = recorded2);
      let st2 = fresh_state () in
      List.iter (fun ev -> ignore (P.step st2 ev)) events;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld replay reaches the same state summary" seed)
        true
        (summary st = summary st2))
    [ 1L; 2L; 3L; 7L; 42L; 1991L ]

let test_tracing_transparent () =
  (* Emit actions are the only difference tracing may introduce: with
     tracing on, stripping [Emit]s recovers the untraced action lists. *)
  let seed = 11L in
  let events, untraced = generate ~seed ~steps:300 in
  let st = fresh_state () in
  P.set_tracing st true;
  let traced = List.map (fun ev -> snd (P.step st ev)) events in
  let strip = List.filter (function P.Emit _ -> false | _ -> true) in
  List.iteri
    (fun i (a, b) ->
      if a <> strip b then
        Alcotest.failf "event %d: tracing changed the real actions" i)
    (List.combine untraced traced);
  let emits =
    List.concat_map (List.filter (function P.Emit _ -> true | _ -> false)) traced
  in
  Alcotest.(check bool) "tracing actually emitted something" true (emits <> [])

let test_crashed_nodes_drop () =
  (* A crashed node produces no actions for any event the shell could
     plausibly feed it (deliveries count as dropped, ticks are ignored). *)
  let st = fresh_state () in
  let _, acts = P.step st (P.Crash { node = 2 }) in
  Alcotest.(check bool) "crash itself is silent" true (acts = []);
  let before = (P.counters st).P.dropped_at_crashed in
  let _, acts =
    P.step st
      (P.Deliver
         { dst = 2; src = 0; now = 1.0; msg = Message.Heartbeat { view = [] } })
  in
  Alcotest.(check bool) "delivery to crashed node does nothing" true (acts = []);
  Alcotest.(check int) "and is counted" (before + 1) (P.counters st).P.dropped_at_crashed;
  let _, acts = P.step st (P.Hb_tick { node = 2; now = 2.0 }) in
  Alcotest.(check bool) "tick at crashed node does nothing" true (acts = [])

let owner_write_words ~nodes =
  (* Minor-heap words per owner write on a pre-built state: the step the
     shell runs for every local write to an owned location. *)
  let st =
    P.create
      ~owner:(Dsm_memory.Owner.by_index ~nodes)
      ~config:Dsm_protocol.Config.default ~now:0.0 ()
  in
  let loc = Dsm_memory.Loc.indexed "v" 0 in
  let step () =
    ignore
      (P.step st (P.Client_write { node = 0; op = 0; loc; value = Dsm_memory.Value.Int 1 }))
  in
  for _ = 1 to 1_000 do step () done;
  let steps = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do step () done;
  (Gc.minor_words () -. before) /. float_of_int steps

let test_owner_write_allocation () =
  (* The allocation bound on the shipped hot path.  Each bound is the
     measured cost (OCaml 5.1, dev profile), so it may be lowered, never
     raised.  The 256-node figure grows with the n-wide writestamp. *)
  List.iter
    (fun (nodes, bound) ->
      let words = owner_write_words ~nodes in
      if words > bound then
        Alcotest.failf "owner write at %d nodes: %.2f minor words/op, bound %.0f" nodes
          words bound)
    [ (2, 74.0); (256, 328.0) ]

let read_install_words ~nodes =
  (* Minor-heap words per read-miss install on node 0: the reply's stamp is
     concurrent with node 0's clock (which holds its own write) and newer
     than the cached copy, so each install merges, stores and runs the
     invalidation pass.  The stamps are built before measuring. *)
  let node =
    Dsm_protocol.Node.create ~id:0
      ~owner:(Dsm_memory.Owner.by_index ~nodes)
      ~config:Dsm_protocol.Config.default
  in
  ignore
    (Dsm_protocol.Node.local_write node (Dsm_memory.Loc.indexed "v" 0) (Dsm_memory.Value.Int 0));
  let loc = Dsm_memory.Loc.indexed "v" 1 in
  let warmup = 100 and steps = 2_000 in
  let replies =
    Array.init (warmup + steps) (fun k ->
        let stamp = Array.make nodes 0 in
        stamp.(1) <- k + 1;
        [
          ( loc,
            Dsm_protocol.Stamped.make ~value:(Dsm_memory.Value.Int k)
              ~stamp:(Vclock.of_array stamp)
              ~wid:(Dsm_memory.Wid.make ~node:1 ~seq:k) );
        ])
  in
  let install k =
    let since = Dsm_protocol.Node.clock_version node in
    Dsm_protocol.Node.install_read_reply node ~since ~digest:[] replies.(k)
  in
  for k = 0 to warmup - 1 do install k done;
  let before = Gc.minor_words () in
  for k = warmup to warmup + steps - 1 do install k done;
  (Gc.minor_words () -. before) /. float_of_int steps

let test_read_install_allocation () =
  (* The read-miss bound: merging a reply's stamp into the node's clock
     happens in place, so the cost does not grow with n.  Each bound is the
     measured cost (OCaml 5.1, dev profile); it may be lowered, never
     raised.  A merge that copied the clock would cost n + 1 words more. *)
  List.iter
    (fun (nodes, bound) ->
      let words = read_install_words ~nodes in
      if words > bound then
        Alcotest.failf "read install at %d nodes: %.2f minor words/op, bound %.0f" nodes
          words bound)
    [ (2, 49.0); (256, 49.0) ]

let suite =
  [
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "tracing transparent" `Quick test_tracing_transparent;
    Alcotest.test_case "crashed nodes drop" `Quick test_crashed_nodes_drop;
    Alcotest.test_case "owner write allocation" `Quick test_owner_write_allocation;
    Alcotest.test_case "read install allocation" `Quick test_read_install_allocation;
  ]
