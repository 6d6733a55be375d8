(** Durable-log record types, free of any storage machinery.

    These are the records a node asks to have persisted (the {e what}); the
    write-ahead log in {!Dsm_causal.Wal} is the simulated stable storage
    that holds them (the {e how}).  Keeping the types here lets the pure
    protocol core ({!Protocol}, {!Node}) speak about durability — emit
    append actions, replay a recovered log — without depending on the
    effectful disk module, which re-exports these types under its own name
    so existing [Wal.Write]/[Wal.snapshot] users are unaffected. *)

type snapshot = {
  snap_clock : Vclock.t;  (** the node's vector clock at checkpoint time *)
  snap_view : (int * int * int) list;
      (** non-default ownership view entries: [(base, epoch, serving)] *)
  snap_served : (Dsm_memory.Loc.t * Stamped.t) list;
      (** every location the node currently serves (base-owned or inherited
          via takeover) *)
  snap_shadows : (int * (Dsm_memory.Loc.t * Stamped.t) list) list;
      (** shadow copies held as backup, grouped by base owner *)
}

type t =
  | Write of { loc : Dsm_memory.Loc.t; entry : Stamped.t }
      (** a write this node certified (or performed locally) as owner *)
  | Clock of Vclock.t
      (** a clock merge with no stored entry (rejected certification) — kept
          so replay reaches the exact pre-crash clock frontier *)
  | View_change of { base : int; epoch : int; serving : int }
      (** an adopted or self-originated ownership epoch change *)
  | Shadow_entry of { base : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
      (** a backup copy accepted from the owner of [base] *)
  | Checkpoint of snapshot  (** full-state snapshot; always the log's head *)

val kind : t -> string
(** Short tag for accounting and traces: ["write"], ["clock"], ["view"],
    ["shadow"], ["checkpoint"]. *)

val pp : Format.formatter -> t -> unit

val encode : t -> string
(** The record's on-disk image.  Every field is written directly, and
    every writestamp as its dimension plus one unsigned LEB128 varint per
    component (one byte below 128, two below 16384), so an image costs
    about a byte per stamp component.  The one module that knows the
    format. *)

val decode : string -> t
(** Inverse of {!encode}: a fresh record sharing nothing with the one
    encoded.  Raises [Failure] on a truncated image, an unknown tag or
    trailing bytes; callers check the image's checksum first. *)
