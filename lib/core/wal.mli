(** Durable owner state: a per-node write-ahead log on a simulated disk.

    The Figure 4 owner protocol keeps each location's authoritative copy in
    one node's volatile memory, so before this module an owner crash lost
    certified writes forever ({!Node.reset_volatile} refused owner nodes).
    The WAL makes owner crashes survivable: every certified write (and every
    clock merge a rejected certification performed) is appended before the
    reply leaves the node, so a restart can replay the log and reach the
    exact pre-crash writestamp frontier.

    The "disk" is an in-memory store shared by all nodes of a cluster that
    survives {!Node.reset_volatile} — the simulated analogue of stable
    storage.  Like a real disk it holds bytes: each record is stored as its
    marshalled image beside a checksum of that image, never as the live
    value, so a log entry pins no clock the node has since overwritten and
    cannot change when the node mutates its own state.  {!replay} verifies
    each image's checksum and decodes it into fresh values.  Sync faults can be injected ({!Disk.fail_next_syncs}) to
    exercise the append error path: a failed append raises {!Sync_failed}
    and logs nothing, modelling a full or failing device.

    Periodic {e checkpoints} bound recovery work.  {!checkpoint} appends a
    snapshot record (it does {e not} rewrite the log in place — the previous
    contents stay until an explicit {!compact}), and {!replay} returns only
    the newest {e complete} snapshot plus the records appended after it, so
    recovery cost is [O(snapshot + records since checkpoint)] instead of the
    node's whole history.  A checkpoint write can be {e torn}
    ({!Disk.tear_next_checkpoints}): the writer believes it succeeded, but
    recovery detects the damage (a failed checksum) and falls back to the
    previous complete snapshot — which {!compact} is careful never to
    discard. *)

(** The stable store.  One [Disk.t] backs every node of a cluster; each
    node's log lives under its node id. *)
module Disk : sig
  type t

  val create : unit -> t

  val fail_next_syncs : t -> int -> unit
  (** Make the next [n] appends/checkpoints (across all nodes on this disk)
      raise {!Sync_failed} without logging anything. *)

  val sync_failures : t -> int
  (** Injected sync failures that have fired so far. *)

  val tear_next_checkpoints : t -> int -> unit
  (** Make the next [n] checkpoint writes (across all nodes on this disk)
      {e tear}: the snapshot is written damaged and the writer sees success
      — the crash-during-checkpoint failure mode.  The damage surfaces only
      at recovery, when {!replay} skips the torn snapshot and anchors on the
      previous complete one. *)

  val corrupt_next_records : t -> int -> unit
  (** Make the next [n] appends/checkpoints (across all nodes on this disk)
      write a {e corrupted} record: the contents land damaged while the
      stored per-record checksum no longer matches them — bit rot or a
      misdirected write, as opposed to a torn (partially missing)
      checkpoint.  The writer sees success; only the recovery-time checksum
      walk ({!replay}) detects and skips the record.  A corrupted checkpoint
      is never a recovery anchor, so replay falls back to the previous
      complete one, exactly as for a torn checkpoint. *)

  val corruptions : t -> int
  (** Injected record corruptions that have fired so far. *)
end

exception Sync_failed of int
(** Raised by {!append}/{!checkpoint} under an injected sync fault; the
    argument is the node id whose write was lost. *)

type snapshot = Dsm_protocol.Log_record.snapshot = {
  snap_clock : Vclock.t;  (** the node's vector clock at checkpoint time *)
  snap_view : (int * int * int) list;
      (** non-default ownership view entries: [(base, epoch, serving)] *)
  snap_served : (Dsm_memory.Loc.t * Dsm_protocol.Stamped.t) list;
      (** every location the node currently serves (base-owned or inherited
          via takeover) *)
  snap_shadows : (int * (Dsm_memory.Loc.t * Dsm_protocol.Stamped.t) list) list;
      (** shadow copies held as backup, grouped by base owner *)
}

(** Record and snapshot types are defined in {!Log_record} (the pure
    protocol library, which logs them as data without knowing about this
    module's disk) and re-exported here by equation, so [Wal.Write] and
    [Log_record.Write] are the same constructor. *)
type record = Dsm_protocol.Log_record.t =
  | Write of { loc : Dsm_memory.Loc.t; entry : Dsm_protocol.Stamped.t }
      (** a write this node certified (or performed locally) as owner *)
  | Clock of Vclock.t
      (** a clock merge with no stored entry (rejected certification) — kept
          so replay reaches the exact pre-crash clock frontier *)
  | View_change of { base : int; epoch : int; serving : int }
      (** an adopted or self-originated ownership epoch change *)
  | Shadow_entry of { base : int; loc : Dsm_memory.Loc.t; entry : Dsm_protocol.Stamped.t }
      (** a backup copy accepted from the owner of [base] *)
  | Checkpoint of snapshot  (** full-state snapshot appended by {!checkpoint} *)

type t
(** One node's log handle. *)

val attach : Disk.t -> node:int -> t
(** The node's log on [disk], created empty on first attach.  Attaching
    again (after a simulated restart) returns the same log contents. *)

val node : t -> int

val append : t -> record -> unit
(** Append and sync one record.  Raises {!Sync_failed} (logging nothing)
    when a sync fault is injected. *)

val checkpoint : t -> snapshot -> unit
(** Append [Checkpoint snapshot] to the log.  Raises {!Sync_failed}
    (leaving the log intact) under a sync fault; under an injected tear
    ({!Disk.tear_next_checkpoints}) the snapshot is written damaged and no
    error is reported.  Does not truncate — call {!compact} once the
    checkpoint is stable. *)

val compact : ?extra:int -> t -> int
(** Truncate everything strictly older than the newest {e complete}
    checkpoint, returning the number of entries dropped (0 when there is no
    complete checkpoint to anchor on, or nothing older than it).  A torn
    newest checkpoint is never used as the anchor, so the previous complete
    snapshot — the one recovery would fall back to — always survives.

    [extra] (default 0, test-only) drops that many additional entries
    {e past} the safe boundary, starting with the anchor checkpoint itself:
    the off-by-one truncation bug the model checker's
    [Truncate_wal_early] mutation must catch. *)

val replay : t -> record list
(** The recovery stream, oldest-first: the newest complete [Checkpoint]
    followed by every record appended after it.  Every record's per-record
    checksum is verified on the way: torn checkpoints and corrupted records
    ({!Disk.corrupt_next_records}) are detected and skipped — if the newest
    checkpoint is torn or corrupted, replay anchors on the previous
    complete one (plus the longer suffix, including the records between the
    two), so a crash during a checkpoint write loses nothing.  With no
    complete checkpoint at all, the whole log. *)

val corrupted_records : t -> int
(** Records currently in the log whose stored checksum fails verification
    (torn checkpoints excluded — those are counted by
    {!torn_checkpoints}). *)

val length : t -> int
(** Entries physically in the log (torn checkpoints included).  O(1): a
    counter kept by {!append}, {!checkpoint} and {!compact}. *)

val records_since_checkpoint : t -> int
(** Entries newer than the recovery anchor — the suffix replay must apply
    on top of the snapshot.  Equals {!length} when no complete checkpoint
    exists. *)

(** {1 Accounting} *)

val appends : t -> int
(** Successful appends over the log's lifetime (checkpoints excluded). *)

val checkpoints : t -> int
(** Checkpoint records written (torn ones included — the writer can't
    tell). *)

val torn_checkpoints : t -> int
(** Checkpoint writes that tore. *)

val compactions : t -> int
(** {!compact} calls that dropped at least one entry. *)

val truncated : t -> int
(** Entries dropped by compaction over the log's lifetime. *)
