type t = {
  mutable read_hits : int;
  mutable read_misses : int;
  mutable writes_owned : int;
  mutable writes_remote : int;
  mutable writes_rejected : int;
  mutable writes_certified : int;
  mutable invalidations : int;
  mutable discards : int;
  mutable redundant_fetches : int;
  mutable stale_drops : int;
}

let create () =
  {
    read_hits = 0;
    read_misses = 0;
    writes_owned = 0;
    writes_remote = 0;
    writes_rejected = 0;
    writes_certified = 0;
    invalidations = 0;
    discards = 0;
    redundant_fetches = 0;
    stale_drops = 0;
  }

let reset t =
  t.read_hits <- 0;
  t.read_misses <- 0;
  t.writes_owned <- 0;
  t.writes_remote <- 0;
  t.writes_rejected <- 0;
  t.writes_certified <- 0;
  t.invalidations <- 0;
  t.discards <- 0;
  t.redundant_fetches <- 0;
  t.stale_drops <- 0

let total stats =
  let acc = create () in
  List.iter
    (fun s ->
      acc.read_hits <- acc.read_hits + s.read_hits;
      acc.read_misses <- acc.read_misses + s.read_misses;
      acc.writes_owned <- acc.writes_owned + s.writes_owned;
      acc.writes_remote <- acc.writes_remote + s.writes_remote;
      acc.writes_rejected <- acc.writes_rejected + s.writes_rejected;
      acc.writes_certified <- acc.writes_certified + s.writes_certified;
      acc.invalidations <- acc.invalidations + s.invalidations;
      acc.discards <- acc.discards + s.discards;
      acc.redundant_fetches <- acc.redundant_fetches + s.redundant_fetches;
      acc.stale_drops <- acc.stale_drops + s.stale_drops)
    stats;
  acc

let pp ppf t =
  Format.fprintf ppf
    "hits=%d misses=%d w_owned=%d w_remote=%d w_rejected=%d certified=%d inval=%d discard=%d redundant=%d stale=%d"
    t.read_hits t.read_misses t.writes_owned t.writes_remote t.writes_rejected
    t.writes_certified t.invalidations t.discards t.redundant_fetches t.stale_drops

type cluster = {
  protocol : t;
  logical_messages : int;
  physical_frames : int;
  wire_dropped : int;
  wire_duplicated : int;
  retransmissions : int;
  resyncs : int;
  stale_replies : int;
  rpc_timeouts : int;
  dropped_at_crashed : int;
  redirects : int;
  shadow_reads : int;
  shadow_degraded : int;
  takeovers : int;
  suspects : int;
  unsuspects : int;
  votes_granted : int;
  degraded_refusals : int;
  partition_heals : int;
  wal_sync_failures : int;
  wal_records : int;
  wal_checkpoints : int;
  wal_torn_checkpoints : int;
  wal_compactions : int;
  wal_truncated : int;
  recoveries : int;
  replayed_records : int;
  recovery_lines : int;
}

(* One line, zero-valued fields suppressed: chaos health lines stay short
   on clean runs and grow only as faults actually fire. *)
let pp_cluster ppf c =
  Format.fprintf ppf "%a" pp c.protocol;
  let field name v = if v <> 0 then Format.fprintf ppf " %s=%d" name v in
  field "logical_msgs" c.logical_messages;
  (* Only worth a column when batching/coalescing make it diverge. *)
  if c.physical_frames <> c.logical_messages then
    field "frames" c.physical_frames;
  field "wire_dropped" c.wire_dropped;
  field "wire_dup" c.wire_duplicated;
  field "retrans" c.retransmissions;
  field "resyncs" c.resyncs;
  field "stale_replies" c.stale_replies;
  field "rpc_timeouts" c.rpc_timeouts;
  field "dropped_at_crashed" c.dropped_at_crashed;
  field "redirects" c.redirects;
  field "shadow_reads" c.shadow_reads;
  field "shadow_degraded" c.shadow_degraded;
  field "takeovers" c.takeovers;
  field "suspects" c.suspects;
  field "unsuspects" c.unsuspects;
  (* Partitions: quorum canvassing and read-only degradation. *)
  field "votes_granted" c.votes_granted;
  field "degraded_refusals" c.degraded_refusals;
  field "partition_heals" c.partition_heals;
  field "wal_sync_failures" c.wal_sync_failures;
  (* The recovery subsystem: log retention and restart accounting. *)
  field "wal_checkpoints" c.wal_checkpoints;
  field "wal_torn" c.wal_torn_checkpoints;
  field "wal_compactions" c.wal_compactions;
  field "wal_truncated" c.wal_truncated;
  if c.wal_truncated <> 0 || c.wal_checkpoints <> 0 then field "wal_records" c.wal_records;
  field "recoveries" c.recoveries;
  field "replayed" c.replayed_records;
  field "recovery_lines" c.recovery_lines
