module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module Op = Dsm_memory.Op
module History = Dsm_memory.History
module Prng = Dsm_util.Prng
module Proc = Dsm_runtime.Proc
module Engine = Dsm_sim.Engine

type spec = {
  processes : int;
  locations : int;
  ops_per_process : int;
  write_ratio : float;
  refresh_ratio : float;
  think_time : float;
}

let default_spec =
  {
    processes = 3;
    locations = 4;
    ops_per_process = 12;
    write_ratio = 0.5;
    refresh_ratio = 0.2;
    think_time = 1.5;
  }

let loc i = Loc.indexed "v" i

type outcome = { history : History.t; messages : int; sim_time : float }

let validate spec =
  if spec.processes < 1 then invalid_arg "Workload: processes must be >= 1";
  if spec.locations < 1 then invalid_arg "Workload: locations must be >= 1";
  if spec.ops_per_process < 0 then invalid_arg "Workload: negative op count"

(* One client process: a random mix of reads and writes with unique write
   values ([pid * 1e6 + op]). *)
let client ~spec ~prng ~pid ~read ~write ~refresh () =
  for k = 1 to spec.ops_per_process do
    if spec.think_time > 0.0 then Proc.sleep (Prng.exponential prng ~mean:spec.think_time);
    let target = loc (Prng.int prng spec.locations) in
    if Prng.chance prng spec.write_ratio then
      write target (Value.Int ((pid * 1_000_000) + k))
    else begin
      if Prng.chance prng spec.refresh_ratio then refresh target;
      ignore (read target)
    end
  done

let spawn_clients sched ~spec ~master ~read ~write ~refresh =
  for pid = 0 to spec.processes - 1 do
    let prng = Prng.split master in
    ignore
      (Proc.spawn sched ~name:(Printf.sprintf "client%d" pid)
         (client ~spec ~prng ~pid ~read:(read pid) ~write:(write pid) ~refresh:(refresh pid)))
  done

let spawn_causal_clients sched ~spec ~master c =
  let module Cluster = Dsm_causal.Cluster in
  spawn_clients sched ~spec ~master
    ~read:(fun pid l -> Cluster.read (Cluster.handle c pid) l)
    ~write:(fun pid l v -> Cluster.write (Cluster.handle c pid) l v)
    ~refresh:(fun pid l -> Cluster.Mem.refresh (Cluster.handle c pid) l)

(* [spawn sched master] builds the memory and spawns its clients;
   [finish engine] reads the outcome back after quiescence. *)
let run_clients ~spec ~seed spawn =
  validate spec;
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let finish = spawn sched (Prng.create seed) in
  Engine.run engine;
  Proc.check sched;
  finish engine

let run_causal ?(seed = 1L) ?config ?latency ?fault ?reliability ?rpc spec =
  let module Cluster = Dsm_causal.Cluster in
  let owner = Dsm_memory.Owner.by_index ~nodes:spec.processes in
  let cluster = ref None in
  let outcome =
    run_clients ~spec ~seed (fun sched master ->
        let c = Cluster.create ~sched ~owner ?config ?latency ?fault ?reliability ?rpc ~seed () in
        cluster := Some c;
        spawn_causal_clients sched ~spec ~master c;
        fun engine ->
          Cluster.shutdown c;
          {
            history = Cluster.history c;
            messages = Cluster.physical_frames c;
            sim_time = Engine.now engine;
          })
  in
  (outcome, Option.get !cluster)

let run_atomic ?(seed = 1L) ?(mode = `Acknowledged) ?latency spec =
  let module Cluster = Dsm_atomic.Cluster in
  let owner = Dsm_memory.Owner.by_index ~nodes:spec.processes in
  run_clients ~spec ~seed (fun sched master ->
      let c = Cluster.create ~sched ~owner ~mode ?latency ~seed () in
      spawn_clients sched ~spec ~master
        ~read:(fun pid l -> Cluster.read (Cluster.handle c pid) l)
        ~write:(fun pid l v -> Cluster.write (Cluster.handle c pid) l v)
        ~refresh:(fun _ _ -> ());
      fun engine ->
        {
          history = Cluster.history c;
          messages = Dsm_net.Network.lifetime_total (Cluster.net c);
          sim_time = Engine.now engine;
        })

let run_bmem ?(seed = 1L) ?(mode = `Causal) ?latency spec =
  let module Bmem = Dsm_broadcast.Bmem in
  run_clients ~spec ~seed (fun sched master ->
      let b = Bmem.create ~sched ~processes:spec.processes ~mode ?latency ~seed () in
      spawn_clients sched ~spec ~master
        ~read:(fun pid l -> Bmem.read (Bmem.handle b pid) l)
        ~write:(fun pid l v -> Bmem.write (Bmem.handle b pid) l v)
        ~refresh:(fun _ _ -> ());
      fun engine ->
        { history = Bmem.history b; messages = Bmem.messages b; sim_time = Engine.now engine })

let mutate_read prng history =
  let rows = Array.map Array.copy (history : History.t :> Op.t array array) in
  (* Collect (write identity, value) per location, plus candidate reads. *)
  let writes_by_loc : (Wid.t * Value.t) list Loc.Table.t = Loc.Table.create 16 in
  Array.iter
    (Array.iter (fun (op : Op.t) ->
         if Op.is_write op then begin
           let prev =
             match Loc.Table.find_opt writes_by_loc op.Op.loc with Some l -> l | None -> []
           in
           Loc.Table.replace writes_by_loc op.Op.loc ((op.Op.wid, op.Op.value) :: prev)
         end))
    rows;
  let candidates = ref [] in
  Array.iteri
    (fun pid row ->
      Array.iteri
        (fun index (op : Op.t) ->
          if Op.is_read op then begin
            let alternatives =
              (Wid.initial, Value.initial)
              :: (match Loc.Table.find_opt writes_by_loc op.Op.loc with
                 | Some l -> l
                 | None -> [])
            in
            let alternatives =
              List.filter (fun (wid, _) -> not (Wid.equal wid op.Op.wid)) alternatives
            in
            if alternatives <> [] then candidates := (pid, index, alternatives) :: !candidates
          end)
        row)
    rows;
  match !candidates with
  | [] -> None
  | cs ->
      let pid, index, alternatives = Prng.pick prng (Array.of_list cs) in
      let wid, value = Prng.pick prng (Array.of_list alternatives) in
      let old = rows.(pid).(index) in
      rows.(pid).(index) <- Op.read ~pid ~index ~loc:old.Op.loc ~value ~from:wid;
      Some (History.of_ops rows)
