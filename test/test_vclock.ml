(* Tests for Vclock: the paper's writestamp operations and their laws. *)

let vt = Alcotest.testable Vclock.pp Vclock.equal

let test_zero () =
  let z = Vclock.zero 3 in
  Alcotest.(check int) "dim" 3 (Vclock.dim z);
  for i = 0 to 2 do
    Alcotest.(check int) "component" 0 (Vclock.get z i)
  done

let test_zero_rejects () =
  Alcotest.check_raises "bad dim" (Invalid_argument "Vclock.zero: dimension must be >= 1")
    (fun () -> ignore (Vclock.zero 0))

let test_increment () =
  let a = Vclock.increment (Vclock.zero 3) 1 in
  Alcotest.check vt "only i bumped" (Vclock.of_array [| 0; 1; 0 |]) a;
  let b = Vclock.increment a 1 in
  Alcotest.(check int) "bumped again" 2 (Vclock.get b 1);
  (* immutability *)
  Alcotest.(check int) "original intact" 1 (Vclock.get a 1)

let test_increment_bounds () =
  Alcotest.check_raises "oob" (Invalid_argument "Vclock.increment: index out of range")
    (fun () -> ignore (Vclock.increment (Vclock.zero 2) 2))

let test_update_is_componentwise_max () =
  let a = Vclock.of_array [| 3; 0; 2 |] and b = Vclock.of_array [| 1; 4; 2 |] in
  Alcotest.check vt "max" (Vclock.of_array [| 3; 4; 2 |]) (Vclock.update a b)

let test_update_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vclock.update: dimension mismatch")
    (fun () -> ignore (Vclock.update (Vclock.zero 2) (Vclock.zero 3)))

let test_compare_cases () =
  let check name a b expected =
    Alcotest.(check bool)
      name true
      (Vclock.compare_vt (Vclock.of_array a) (Vclock.of_array b) = expected)
  in
  check "equal" [| 1; 2 |] [| 1; 2 |] Vclock.Equal;
  check "before" [| 1; 2 |] [| 1; 3 |] Vclock.Before;
  check "after" [| 2; 2 |] [| 1; 2 |] Vclock.After;
  check "concurrent" [| 1; 0 |] [| 0; 1 |] Vclock.Concurrent

let test_lt_strict () =
  let a = Vclock.of_array [| 1; 1 |] in
  Alcotest.(check bool) "not lt self" false (Vclock.lt a a);
  Alcotest.(check bool) "leq self" true (Vclock.leq a a)

let test_of_array_copies () =
  let arr = [| 1; 2 |] in
  let a = Vclock.of_array arr in
  arr.(0) <- 99;
  Alcotest.(check int) "insulated" 1 (Vclock.get a 0)

let test_to_array_copies () =
  let a = Vclock.of_array [| 1; 2 |] in
  let arr = Vclock.to_array a in
  arr.(0) <- 99;
  Alcotest.(check int) "insulated" 1 (Vclock.get a 0)

let test_sum () =
  Alcotest.(check int) "sum" 6 (Vclock.sum (Vclock.of_array [| 1; 2; 3 |]))

let test_pp () =
  Alcotest.(check string) "rendering" "[1;0;2]" (Vclock.to_string (Vclock.of_array [| 1; 0; 2 |]))

let test_total_compare_refines () =
  let a = Vclock.of_array [| 0; 1 |] and b = Vclock.of_array [| 1; 0 |] in
  Alcotest.(check bool) "orders concurrents" true (Vclock.total_compare a b <> 0);
  Alcotest.(check int) "reflexive" 0 (Vclock.total_compare a a)

let gen_clock =
  QCheck.make
    ~print:(fun arr -> Vclock.to_string (Vclock.of_array arr))
    QCheck.Gen.(map Array.of_list (list_size (return 4) (int_range 0 5)))

let prop_update_upper_bound =
  QCheck.Test.make ~name:"update dominates both arguments" ~count:300
    (QCheck.pair gen_clock gen_clock)
    (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      let u = Vclock.update a b in
      Vclock.leq a u && Vclock.leq b u)

let prop_update_least =
  QCheck.Test.make ~name:"update is the least upper bound" ~count:300
    (QCheck.pair gen_clock gen_clock)
    (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      let u = Vclock.update a b in
      (* every component comes from one of the inputs *)
      let ok = ref true in
      for i = 0 to Vclock.dim u - 1 do
        if Vclock.get u i <> max (Vclock.get a i) (Vclock.get b i) then ok := false
      done;
      !ok)

let prop_increment_after =
  QCheck.Test.make ~name:"increment strictly dominates" ~count:300 gen_clock (fun a ->
      let a = Vclock.of_array a in
      Vclock.compare_vt (Vclock.increment a 2) a = Vclock.After)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetry" ~count:300 (QCheck.pair gen_clock gen_clock)
    (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      match Vclock.compare_vt a b with
      | Vclock.Before -> Vclock.compare_vt b a = Vclock.After
      | Vclock.After -> Vclock.compare_vt b a = Vclock.Before
      | Vclock.Equal -> Vclock.compare_vt b a = Vclock.Equal
      | Vclock.Concurrent -> Vclock.compare_vt b a = Vclock.Concurrent)

let prop_update_commutative =
  QCheck.Test.make ~name:"update commutative" ~count:200 (QCheck.pair gen_clock gen_clock)
    (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      Vclock.equal (Vclock.update a b) (Vclock.update b a))

let prop_update_associative =
  QCheck.Test.make ~name:"update associative" ~count:200
    (QCheck.triple gen_clock gen_clock gen_clock)
    (fun (a, b, c) ->
      let a = Vclock.of_array a and b = Vclock.of_array b and c = Vclock.of_array c in
      Vclock.equal
        (Vclock.update (Vclock.update a b) c)
        (Vclock.update a (Vclock.update b c)))

let prop_update_idempotent =
  QCheck.Test.make ~name:"update idempotent" ~count:200 gen_clock (fun a ->
      let a = Vclock.of_array a in
      Vclock.equal (Vclock.update a a) a)

(* A pair [(a, b)] with [b <= a]: [b] is [a] with some components lowered. *)
let gen_dominated =
  QCheck.make
    ~print:(fun (a, b) ->
      Vclock.to_string (Vclock.of_array a) ^ " >= " ^ Vclock.to_string (Vclock.of_array b))
    QCheck.Gen.(
      map2
        (fun a drops -> (a, Array.map2 (fun x d -> max 0 (x - d)) a drops))
        (map Array.of_list (list_size (return 4) (int_range 0 5)))
        (map Array.of_list (list_size (return 4) (int_range 0 2))))

let pointwise_max a b =
  Vclock.to_array (Vclock.update a b)
  = Array.init (Vclock.dim a) (fun i -> max (Vclock.get a i) (Vclock.get b i))

let prop_update_pointwise_max =
  QCheck.Test.make ~name:"update is the pointwise max, related or not" ~count:300
    (QCheck.pair gen_dominated gen_clock)
    (fun ((a, b), c) ->
      let a = Vclock.of_array a and b = Vclock.of_array b and c = Vclock.of_array c in
      pointwise_max a b && pointwise_max b a && pointwise_max a c && pointwise_max c b)

(* The accumulator against the immutable operations: a random sequence of
   merges, ticks, resets, freezes and pins leaves [freeze] equal to the same
   sequence of [update]/[increment], never rewrites a clock it published,
   and answers every [unpin] with whether the value is the one pinned (a
   pin around every step checks that too). *)
type acc_op = Merge of int array | Tick of int | Reset | Freeze | Pin | Unpin of int

let gen_acc_ops =
  let open QCheck.Gen in
  let clock = map Array.of_list (list_size (return 4) (int_range 0 6)) in
  list_size (int_range 0 30)
    (frequency
       [
         (3, map (fun c -> Merge c) clock);
         (2, map (fun i -> Tick i) (int_range 0 3));
         (1, return Reset);
         (2, return Freeze);
         (2, return Pin);
         (2, map (fun k -> Unpin k) (int_range 0 7));
       ])

let prop_acc_agrees =
  QCheck.Test.make ~name:"Acc merge/tick/freeze agree with update/increment" ~count:300
    (QCheck.make gen_acc_ops) (fun ops ->
      let acc = Vclock.Acc.create 4 in
      let published = ref [] in
      let pins = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      let model =
        List.fold_left
          (fun model op ->
            let around = Vclock.Acc.pin acc in
            let model' =
              match op with
              | Merge c ->
                  Vclock.Acc.merge acc (Vclock.of_array c);
                  Vclock.update model (Vclock.of_array c)
              | Tick i ->
                  Vclock.Acc.tick acc i;
                  Vclock.increment model i
              | Reset ->
                  Vclock.Acc.reset acc;
                  Vclock.zero 4
              | Freeze ->
                  let f = Vclock.Acc.freeze acc in
                  check (Vclock.Acc.freeze acc == f && Vclock.equal f model);
                  published := (f, Vclock.to_array f) :: !published;
                  model
              | Pin ->
                  pins := (Vclock.Acc.pin acc, model) :: !pins;
                  model
              | Unpin k ->
                  (match !pins with
                  | [] -> ()
                  | _ ->
                      let ((v, seen) as pin) = List.nth !pins (k mod List.length !pins) in
                      check (Vclock.equal (Vclock.Acc.pinned_value acc v) seen);
                      check (Vclock.Acc.unpin acc v = Vclock.equal model seen);
                      pins := List.filter (fun p -> p != pin) !pins);
                  model
            in
            check (Vclock.Acc.unpin acc around = Vclock.equal model model');
            model')
          (Vclock.zero 4) ops
      in
      !ok
      && Vclock.equal (Vclock.Acc.freeze acc) model
      && List.for_all (fun (f, copy) -> Vclock.to_array f = copy) !published
      && List.for_all (fun (v, seen) -> Vclock.equal (Vclock.Acc.pinned_value acc v) seen) !pins)

let suite =
  [
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "zero rejects" `Quick test_zero_rejects;
    Alcotest.test_case "increment" `Quick test_increment;
    Alcotest.test_case "increment bounds" `Quick test_increment_bounds;
    Alcotest.test_case "update max" `Quick test_update_is_componentwise_max;
    Alcotest.test_case "update mismatch" `Quick test_update_dim_mismatch;
    Alcotest.test_case "compare cases" `Quick test_compare_cases;
    Alcotest.test_case "lt strict" `Quick test_lt_strict;
    Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
    Alcotest.test_case "to_array copies" `Quick test_to_array_copies;
    Alcotest.test_case "sum" `Quick test_sum;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "total_compare" `Quick test_total_compare_refines;
    QCheck_alcotest.to_alcotest prop_update_upper_bound;
    QCheck_alcotest.to_alcotest prop_update_least;
    QCheck_alcotest.to_alcotest prop_increment_after;
    QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
    QCheck_alcotest.to_alcotest prop_update_commutative;
    QCheck_alcotest.to_alcotest prop_update_associative;
    QCheck_alcotest.to_alcotest prop_update_idempotent;
    QCheck_alcotest.to_alcotest prop_update_pointwise_max;
    QCheck_alcotest.to_alcotest prop_acc_agrees;
  ]
