(* Tests for Dsm_memory.History: parsing the paper notation, recording. *)

module History = Dsm_memory.History
module Op = Dsm_memory.Op
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid

let test_parse_fig1 () =
  let h =
    History.parse_exn {|
      P1: w(x)1 w(y)2 r(y)2 r(x)1
      P2: w(z)1 r(y)2 r(x)1
    |}
  in
  Alcotest.(check int) "processes (P0 empty)" 3 (History.processes h);
  Alcotest.(check int) "op count" 7 (History.op_count h)

let test_parse_resolves_reads_from () =
  let h = History.parse_exn "P0: w(x)1\nP1: r(x)1" in
  let ops = History.ops h in
  let read = List.find Op.is_read ops in
  Alcotest.(check bool) "reads from P0's write" true
    (Wid.equal read.Op.wid (Wid.make ~node:0 ~seq:0))

let test_parse_initial_read () =
  let h = History.parse_exn "P0: r(x)0" in
  let read = List.hd (History.ops h) in
  Alcotest.(check bool) "reads from initial" true (Wid.is_initial read.Op.wid)

let test_parse_booleans_and_free () =
  let h = History.parse_exn "P0: w(b)T r(b)T w(c)~ r(c)~" in
  let ops = History.ops h in
  Alcotest.(check int) "four ops" 4 (List.length ops);
  let free_write = List.nth ops 2 in
  Alcotest.(check bool) "free value" true (Value.is_free free_write.Op.value)

let test_parse_rejects_duplicate_writes () =
  match History.parse "P0: w(x)1\nP1: w(x)1" with
  | Error msg ->
      Alcotest.(check bool) "mentions uniqueness" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected duplicate-write error"

let test_parse_rejects_unmatched_read () =
  match History.parse "P0: r(x)7" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unmatched-read error"

let test_parse_rejects_bad_label () =
  match History.parse "Q0: w(x)1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected label error"

let test_parse_rejects_bad_op () =
  match History.parse "P0: z(x)1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected op error"

let test_parse_rejects_duplicate_label () =
  match History.parse "P0: w(x)1\nP0: w(y)2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected duplicate-label error"

let test_parse_comments_and_blanks () =
  let h = History.parse_exn "# comment\n\nP0: w(x)1 # trailing\n" in
  Alcotest.(check int) "one op" 1 (History.op_count h)

let test_to_string_roundtrip () =
  let original = "P0: w(x)1 r(x)1\nP1: r(x)1 w(y)2" in
  let h = History.parse_exn original in
  let h2 = History.parse_exn (History.to_string h) in
  Alcotest.(check string) "stable" (History.to_string h) (History.to_string h2)

let test_recorder () =
  let r = History.Recorder.create ~processes:2 in
  let w0 =
    History.Recorder.record_write r ~pid:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
      ~wid:(Wid.make ~node:0 ~seq:0)
  in
  Alcotest.(check int) "returned op index" 0 w0.Op.index;
  ignore
    (History.Recorder.record_read r ~pid:1 ~loc:(Loc.named "x") ~value:(Value.Int 1)
       ~from:(Wid.make ~node:0 ~seq:0));
  ignore
    (History.Recorder.record_read r ~pid:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
       ~from:(Wid.make ~node:0 ~seq:0));
  let h = History.Recorder.history r in
  Alcotest.(check int) "count" 3 (History.Recorder.op_count r);
  Alcotest.(check int) "p0 has two" 2 (Array.length (h :> Op.t array array).(0));
  let p0 = (h :> Op.t array array).(0) in
  Alcotest.(check bool) "program order" true (Op.is_write p0.(0) && Op.is_read p0.(1));
  Alcotest.(check int) "indices" 1 p0.(1).Op.index

let test_recorder_snapshot_isolated () =
  let r = History.Recorder.create ~processes:1 in
  ignore
    (History.Recorder.record_write r ~pid:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
       ~wid:(Wid.make ~node:0 ~seq:0));
  let h1 = History.Recorder.history r in
  ignore
    (History.Recorder.record_write r ~pid:0 ~loc:(Loc.named "x") ~value:(Value.Int 2)
       ~wid:(Wid.make ~node:0 ~seq:1));
  Alcotest.(check int) "snapshot fixed" 1 (History.op_count h1);
  Alcotest.(check int) "recorder moved on" 2 (History.Recorder.op_count r)

let test_of_ops_validates () =
  let good =
    [|
      [| Op.write ~pid:0 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
           ~wid:(Wid.make ~node:0 ~seq:0) |];
    |]
  in
  ignore (History.of_ops good);
  let bad =
    [|
      [| Op.write ~pid:1 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
           ~wid:(Wid.make ~node:0 ~seq:0) |];
    |]
  in
  Alcotest.(check bool) "rejects misplaced" true
    (try
       ignore (History.of_ops bad);
       false
     with Invalid_argument _ -> true)

(* Interleaved records from many pids: [timed_history] lists the ops in
   completion order with start <= finish, and its per-pid projection is
   exactly the [history] rows. *)
let prop_timed_matches_rows =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_bound 120) (triple (int_bound 1000) bool (float_bound_inclusive 3.0))))
  in
  QCheck.Test.make ~name:"timed history projects onto the rows" ~count:200
    (QCheck.make ~print:QCheck.Print.(pair int (list (triple int bool float))) gen)
    (fun (processes, calls) ->
      let r = History.Recorder.create ~processes in
      let now = ref 0.0 in
      let recorded =
        List.mapi
          (fun k (p, is_read, span) ->
            let pid = p mod processes in
            let start = !now in
            let finish = start +. span in
            now := !now +. 0.5;
            let loc = Loc.indexed "x" (k mod 3) in
            let op =
              if is_read then
                History.Recorder.record_read ~start ~finish r ~pid ~loc ~value:(Value.Int k)
                  ~from:Wid.initial
              else
                History.Recorder.record_write ~start ~finish r ~pid ~loc ~value:(Value.Int k)
                  ~wid:(Wid.make ~node:pid ~seq:k)
            in
            (op, start, finish))
          calls
      in
      let timed = History.Recorder.timed_history r in
      let rows = (History.Recorder.history r :> Op.t array array) in
      let projected pid =
        List.filter_map (fun (op, _, _) -> if op.Op.pid = pid then Some op else None) timed
      in
      List.length timed = History.Recorder.op_count r
      && List.for_all2
           (fun (op, s, f) (op', s', f') -> Op.equal op op' && s = s' && f = f' && s <= f)
           timed recorded
      && List.for_all
           (fun pid -> List.equal Op.equal (projected pid) (Array.to_list rows.(pid)))
           (List.init processes Fun.id))

(* Each op is retained once: the recorder's footprint per op is the op
   itself (record, boxed value, write id) plus a few words of order and
   timing — not a second list of boxed (op, start, finish) tuples. *)
let test_recorder_words_per_op () =
  let processes = 10 and n = 1000 in
  let r = History.Recorder.create ~processes in
  let loc = Loc.named "x" in
  for k = 0 to n - 1 do
    let pid = k mod processes in
    ignore
      (History.Recorder.record_write ~start:(float_of_int k) ~finish:(float_of_int (k + 1)) r ~pid
         ~loc ~value:(Value.Int k) ~wid:(Wid.make ~node:pid ~seq:k))
  done;
  let per_op = float_of_int (Obj.reachable_words (Obj.repr r)) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per op, bound 20" per_op) true (per_op <= 20.0)

let suite =
  [
    Alcotest.test_case "parse fig1" `Quick test_parse_fig1;
    Alcotest.test_case "reads-from resolution" `Quick test_parse_resolves_reads_from;
    Alcotest.test_case "initial read" `Quick test_parse_initial_read;
    Alcotest.test_case "bool and free values" `Quick test_parse_booleans_and_free;
    Alcotest.test_case "duplicate writes rejected" `Quick test_parse_rejects_duplicate_writes;
    Alcotest.test_case "unmatched read rejected" `Quick test_parse_rejects_unmatched_read;
    Alcotest.test_case "bad label rejected" `Quick test_parse_rejects_bad_label;
    Alcotest.test_case "bad op rejected" `Quick test_parse_rejects_bad_op;
    Alcotest.test_case "duplicate label rejected" `Quick test_parse_rejects_duplicate_label;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
    Alcotest.test_case "recorder" `Quick test_recorder;
    Alcotest.test_case "recorder snapshot" `Quick test_recorder_snapshot_isolated;
    Alcotest.test_case "of_ops validates" `Quick test_of_ops_validates;
    QCheck_alcotest.to_alcotest ~long:false prop_timed_matches_rows;
    Alcotest.test_case "recorder words per op" `Quick test_recorder_words_per_op;
  ]
