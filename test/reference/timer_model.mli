(** The sorted-list timer queue, kept as the model the timing wheel is
    pinned against.

    One model queue stands for the database's wheel: a flat list sorted
    by (due, seq) — O(n) arming, trivially correct. Each
    function mirrors the [Timewheel] entry point of the same name, so a
    test can apply one operation to both and compare
    [Timewheel.pending] with {!pending} after every step. Timer seqs are
    unique, so matching a timer by its (due, seq) key is
    matching it by identity. *)

open Ode_odb.Types

type t

val create : unit -> t
val pending : t -> timer list
(** The queue in (due, seq) order. *)

val insert : t -> timer -> unit
(** Stable sorted insert: after every timer with a smaller or equal
    key. *)

val insert_list : timer -> timer list -> timer list
(** The same insert on a bare sorted list (the O(n) baseline the
    benchmarks time against the wheel). *)

val cancel_object : t -> oid -> timer list
val cancel_trigger : t -> oid -> string -> timer list
val cancel_timer : t -> timer -> unit
val replace : t -> timer list -> unit
val clear : t -> unit

type delivery = { d_oid : oid; d_due : int64 }

val advance_to :
  t ->
  target:int64 ->
  alive:(timer -> bool) ->
  reschedule:(timer -> timer option) ->
  delivery list
(** [Timewheel.advance_to] on the list: repeatedly take the (due, seq)
    head due by [target], pull every timer with the same (due, object,
    spec), record one delivery if any of them is [alive], and re-insert
    each live one's [reschedule]. Returns the deliveries in order.
    [alive] must not change while this runs. *)
