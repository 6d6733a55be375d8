(* Tests for Dsm_memory.Shard: ring layout, share-sets and the induced
   owner map. *)

module Shard = Dsm_memory.Shard
module Membership = Dsm_memory.Membership
module Loc = Dsm_memory.Loc
module Owner = Dsm_memory.Owner

let test_contiguous_rings () =
  let s = Shard.make ~nodes:9 ~shards:3 in
  Alcotest.(check int) "count" 3 (Shard.count s);
  Alcotest.(check (list int)) "ring 0" [ 0; 1; 2 ] (Shard.ring s 0);
  Alcotest.(check (list int)) "ring 1" [ 3; 4; 5 ] (Shard.ring s 1);
  Alcotest.(check (list int)) "ring 2" [ 6; 7; 8 ] (Shard.ring s 2)

let test_uneven_rings_cover () =
  let s = Shard.make ~nodes:7 ~shards:3 in
  let all = List.concat_map (Shard.ring s) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "partition of the cluster" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare all)

let test_full_is_one_ring () =
  let s = Shard.full ~nodes:4 in
  Alcotest.(check int) "one shard" 1 (Shard.count s);
  Alcotest.(check (list int)) "everyone rings" [ 0; 1; 2; 3 ] (Shard.ring s 0);
  Alcotest.(check int) "full width" 4 (Shard.width s 0)

let test_ring_successor () =
  let s = Shard.make ~nodes:6 ~shards:2 in
  Alcotest.(check (option int)) "middle" (Some 2) (Shard.ring_successor s ~node:1);
  Alcotest.(check (option int)) "wraps inside the ring" (Some 0) (Shard.ring_successor s ~node:2);
  Alcotest.(check (option int)) "second ring wraps" (Some 3) (Shard.ring_successor s ~node:5);
  let singleton = Shard.make ~nodes:2 ~shards:2 in
  Alcotest.(check (option int)) "singleton ring" None (Shard.ring_successor singleton ~node:0)

let test_subscribe_unsubscribe () =
  let s = Shard.make ~nodes:6 ~shards:2 in
  Alcotest.(check bool) "ring member born subscribed" true (Shard.subscribed s ~shard:0 ~node:1);
  Alcotest.(check bool) "outsider not subscribed" false (Shard.subscribed s ~shard:0 ~node:4);
  Shard.subscribe s ~shard:0 ~node:4;
  Alcotest.(check bool) "joined" true (Shard.subscribed s ~shard:0 ~node:4);
  Alcotest.(check (list int)) "share-set" [ 0; 1; 2; 4 ] (Shard.subscribers s 0);
  Alcotest.(check int) "width grew" 4 (Shard.width s 0);
  Shard.unsubscribe s ~shard:0 ~node:4;
  Alcotest.(check bool) "left" false (Shard.subscribed s ~shard:0 ~node:4);
  Shard.unsubscribe s ~shard:0 ~node:1;
  Alcotest.(check bool) "ring member cannot leave" true (Shard.subscribed s ~shard:0 ~node:1)

let test_peers_symmetric () =
  let s = Shard.make ~nodes:6 ~shards:2 in
  Shard.subscribe s ~shard:0 ~node:5;
  (* 5 now exchanges traffic with shard 0's ring and its own ring. *)
  Alcotest.(check (list int)) "subscriber's peers" [ 0; 1; 2; 3; 4 ] (Shard.peers s ~node:5);
  Alcotest.(check (list int)) "ring member sees subscriber" [ 1; 2; 5 ] (Shard.peers s ~node:0);
  Alcotest.(check (list int)) "other shard untouched" [ 3; 5 ] (Shard.peers s ~node:4)

let test_membership_matches_subscribers () =
  let s = Shard.make ~nodes:6 ~shards:3 in
  Shard.subscribe s ~shard:1 ~node:0;
  let m = Shard.membership s 1 in
  Alcotest.(check (list int)) "membership = share-set" (Shard.subscribers s 1)
    (Membership.members m);
  Alcotest.(check int) "width agrees" (Shard.width s 1) (Membership.width m)

(* The induced owner map is consistent with the shard assignment: every
   location's base owner is a ring member of the location's own shard. *)
let test_induced_owner_consistent () =
  let s = Shard.make ~nodes:9 ~shards:3 in
  let owner = Shard.owner s in
  let locs =
    Loc.named "x" :: Loc.named "alpha"
    :: List.concat_map (fun i -> [ Loc.indexed "v" i; Loc.cell "m" i (i + 1) ]) (List.init 12 Fun.id)
  in
  List.iter
    (fun loc ->
      let shard = Shard.of_loc s loc in
      let base = Owner.owner owner loc in
      Alcotest.(check int)
        (Printf.sprintf "base of %s rings its shard" (Loc.to_string loc))
        shard (Shard.of_base s base);
      Alcotest.(check bool) "ring member" true (Shard.in_ring s ~shard ~node:base))
    locs

let test_subscriptions_canonical () =
  let s = Shard.make ~nodes:4 ~shards:2 in
  Shard.subscribe s ~shard:1 ~node:0;
  Alcotest.(check (list (pair int (list int))))
    "canonical form"
    [ (0, [ 0; 1 ]); (1, [ 0; 2; 3 ]) ]
    (Shard.subscriptions s)

(* Share-set garbage collection, end to end: an outsider's read grows the
   share-set via subscribe-on-access; after [unsubscribe_idle] of access
   quiet the cluster's GC sweep unsubscribes it again (the share-set
   shrinks back to the ring) and drops its cached copies, so the next
   access misses, fetches the owner's current value and resubscribes —
   the catch-up is causally safe and the recorded history stays correct. *)
let test_share_set_gc () =
  let e = Dsm_sim.Engine.create () in
  let sched = Dsm_runtime.Proc.scheduler e in
  let module Proc = Dsm_runtime.Proc in
  let module Cluster = Dsm_causal.Cluster in
  let module Value = Dsm_memory.Value in
  let s = Shard.make ~nodes:6 ~shards:2 in
  let c =
    Cluster.create ~sched ~owner:(Shard.owner s) ~sharding:s ~unsubscribe_idle:10.0
      ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  (* A location in shard 0, so node 4 (a ring-1 member) is an outsider. *)
  let x =
    let rec find i =
      let loc = Loc.indexed "v" i in
      if Shard.of_loc s loc = 0 then loc else find (i + 1)
    in
    find 0
  in
  let owner_pid = Owner.owner (Shard.owner s) x in
  let h_owner = Cluster.handle c owner_pid in
  let h4 = Cluster.handle c 4 in
  let grown = ref false and shrunk = ref false and resub = ref false in
  let second_read = ref Value.Free in
  ignore
    (Proc.spawn sched (fun () ->
         Cluster.write h_owner x (Value.Int 1);
         Alcotest.(check bool) "first read" true
           (Value.equal (Cluster.read h4 x) (Value.Int 1));
         grown := Shard.subscribed s ~shard:0 ~node:4;
         (* Three idle windows: the sweep (period window/2) must collect. *)
         Proc.sleep 30.0;
         shrunk := not (Shard.subscribed s ~shard:0 ~node:4);
         Alcotest.(check (list int)) "share-set back to the ring" [ 0; 1; 2 ]
           (Shard.subscribers s 0);
         (* A write the collected node never saw an invalidation for ... *)
         Cluster.write h_owner x (Value.Int 2);
         (* ... is still what its next read returns: the cached copy went
            with the subscription, so the read misses and catches up. *)
         second_read := Cluster.read h4 x;
         resub := Shard.subscribed s ~shard:0 ~node:4));
  Dsm_sim.Engine.run e;
  Proc.check sched;
  Alcotest.(check bool) "subscribe-on-access grew the share-set" true !grown;
  Alcotest.(check bool) "idle subscriber collected" true !shrunk;
  Alcotest.(check bool) "re-access resubscribed" true !resub;
  Alcotest.(check bool) "catch-up read is current" true
    (Value.equal !second_read (Value.Int 2));
  Alcotest.(check bool) "history causally correct" true
    (Dsm_checker.Causal_check.is_correct (Cluster.history c))

let test_make_validates () =
  Alcotest.check_raises "zero shards" (Invalid_argument "Shard.make: need 1 <= shards <= nodes")
    (fun () -> ignore (Shard.make ~nodes:4 ~shards:0));
  Alcotest.check_raises "too many" (Invalid_argument "Shard.make: need 1 <= shards <= nodes")
    (fun () -> ignore (Shard.make ~nodes:4 ~shards:5))

(* The bench gate, and no client left behind: a cell counts processes
   that raised and processes blocked forever. *)
let test_bench_quick_healthy () =
  let r = Dsm_apps.Shard_bench.run ~quick:true () in
  Alcotest.(check bool) "quick bench healthy" true (Dsm_apps.Shard_bench.healthy r);
  List.iter
    (fun (s : Dsm_apps.Shard_bench.size_result) ->
      List.iter
        (fun (c : Dsm_apps.Shard_bench.cell) ->
          Alcotest.(check int)
            (Printf.sprintf "%d nodes %s: unfinished" s.nodes c.mode)
            0 c.unfinished)
        [ s.full; s.partial ])
    r.Dsm_apps.Shard_bench.sizes

let suite =
  [
    Alcotest.test_case "contiguous rings" `Quick test_contiguous_rings;
    Alcotest.test_case "uneven rings cover" `Quick test_uneven_rings_cover;
    Alcotest.test_case "full = one ring" `Quick test_full_is_one_ring;
    Alcotest.test_case "ring successor" `Quick test_ring_successor;
    Alcotest.test_case "subscribe/unsubscribe" `Quick test_subscribe_unsubscribe;
    Alcotest.test_case "peers symmetric" `Quick test_peers_symmetric;
    Alcotest.test_case "membership matches subscribers" `Quick test_membership_matches_subscribers;
    Alcotest.test_case "induced owner consistent" `Quick test_induced_owner_consistent;
    Alcotest.test_case "subscriptions canonical" `Quick test_subscriptions_canonical;
    Alcotest.test_case "share-set GC collects idle subscribers" `Quick test_share_set_gc;
    Alcotest.test_case "make validates" `Quick test_make_validates;
    Alcotest.test_case "quick bench healthy" `Quick test_bench_quick_healthy;
  ]
