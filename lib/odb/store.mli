(** Store layer: the object heap — oid allocation, live-object lookup,
    field access, per-object activations and event histories.

    The heap is one [(oid, obj) Hashtbl.t] per database
    ({!Types.store_state}). Depends on {!Types} (and reads the
    schema tables for mask environments); knows nothing about
    transactions or event posting.

    {b Ordering contract.} The hashtable enumerates in {e unspecified}
    (hash) order. Every enumeration this layer exposes — {!objects},
    {!objects_of_class}, {!live_objects} — therefore sorts to
    {e ascending oid} before returning, so commit and abort fan-out,
    persist snapshots and user-visible listings do not depend on the
    table's history. Code that folds the raw heap
    directly must either be order-insensitive or sort likewise. *)

module Value = Ode_base.Value
open Types

(** {1 Heap operations} *)

val alloc_oid : db -> oid
(** One monotone counter. *)

val new_obj : klass -> oid -> obj
(** Fresh object record with the class's field defaults installed. Does
    not add it to the heap. *)

(** {1 Detection-state blocks}

    Activations of flat-table detectors pack their automaton state into
    a structure-of-arrays block of the heap, keyed by detector
    uid, strided by the detector's state width (one word per automaton
    level) — the paper's "one integer per active trigger per object",
    generalised to a small fixed vector for composite-mask
    hierarchies. *)

val fresh_at_state : db -> Ode_event.Detector.t -> trig_state
(** Fresh initial detection state for an activation of this detector on
    this object: an SoA slot when the detector qualifies
    ({!Ode_event.Detector.has_flat}), a private word vector otherwise. *)

val free_at_state : active_trigger -> unit
(** Return the activation's SoA slot (if any) to its block's free list.
    Call only when the activation is being discarded. *)

val add_obj : db -> obj -> unit
val remove_obj : db -> oid -> unit

val mark_deleted : db -> obj -> unit
(** Flip [o_deleted] on (keeping the record stored for undo) and
    maintain the live-object count; idempotent. *)

val unmark_deleted : db -> obj -> unit

val reset_heap : db -> unit
(** Drop every stored object (used by [Persist.load]). *)

val find_obj : db -> oid -> obj option

val mem : db -> oid -> bool
(** A stored object has this oid, live or delete-marked — O(1), unlike
    {!exists} which also checks the delete mark. *)

val cardinal : ?live:bool -> db -> int
(** Stored-object count without scanning: with [~live:true] (maintained
    incrementally) only objects not delete-marked are counted; default
    counts every stored record. *)

val live_obj : db -> oid -> obj
(** Raises {!Types.Ode_error} on a missing or deleted object. *)

val live_obj_opt : db -> oid -> obj option
val exists : db -> oid -> bool
val class_of : db -> oid -> string

val objects : db -> oid list
(** Live oids, ascending — see the ordering contract above. *)

val objects_of_class : db -> string -> oid list
(** Live oids of one class, ascending. *)

val live_objects : db -> obj list
(** Live objects sorted by ascending oid — the
    enumeration persist snapshots are built from. *)

val fold_objects : (obj -> 'a -> 'a) -> db -> 'a -> 'a
(** Raw fold over the heap, {e unspecified order}; for
    order-insensitive accumulation only. *)

val iter_objects : (obj -> unit) -> db -> unit
(** Raw iteration over the heap, {e unspecified order}. *)

val get_field : db -> oid -> string -> Value.t

(** {1 Mask-evaluation environments} *)

val mask_env : db -> obj -> Ode_event.Mask.env
(** Field reads resolve against [obj]; dereferences and database
    functions against the heap and schema. *)

val db_mask_env : db -> Ode_event.Mask.env
(** No object in scope: only dereferences and database functions. *)

val make_scratch : db -> scratch
(** A reusable posting-kernel buffer: a {!mask_env}-equivalent
    environment reading fields through the scratch's [sc_obj] cell, plus
    a grow-only classification-code buffer. The engine keeps one. *)

(** {1 Event histories (§9)} *)

val enable_history : db -> limit:int -> unit
val record_history : db -> txn -> obj -> Ode_event.Symbol.occurrence -> unit
val object_history : db -> oid -> History.t

(** {1 Statistics} *)

type stats = {
  n_objects : int;
  n_classes : int;
  n_active_triggers : int;
  n_timers : int;
  state_bytes : int;
      (** Detection-state footprint, counted exactly as:
          8 bytes per automaton state word of every activation on a live
          object {e and} of every database-scope activation (active or
          not); plus [24 + length name] bytes per collected §9 binding
          held by an activation; plus the shadow copies pinned by open
          transactions' undo logs — 8 bytes per word of each
          [U_trigger_state] snapshot and the same per-binding charge for
          each [U_trigger_collected] snapshot. Bound values themselves
          are shared with the posting arguments and are not charged.

          Pending timers are charged too, at a flat 144 bytes each
          (record fields, headers and spec payload) — and the same per-timer charge applies to
          timers pinned by [U_timers_cancelled]/[U_timers_armed] undo
          entries. Since [Timewheel] cancels eagerly on deactivation,
          deletion and re-activation, a deactivate/activate storm holds
          [state_bytes] flat where the old lazy [timer_alive] sweep let
          dead timers accumulate until their due instant. *)
}

val stats : db -> stats
(** [n_objects] comes from the incrementally-maintained live count
    (O(1)); the per-activation accounting still walks live objects. *)
