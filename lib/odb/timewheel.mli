(** Timewheel layer: the pending-timer structure for time events —
    insertion, due-date computation, periodic rescheduling, eager
    cancellation, clock advancement, and the log of timer changes that
    WAL batches carry.

    The pending timers live in a hierarchical hashed timing wheel
    (Varghese–Lauck — 8 levels of 64 slots, cascade-on-advance, O(1)
    arm and cancel; see {!Types.twheel}), delivered in (due, [tm_seq])
    order.

    Depends on {!Store} (liveness checks for timer garbage-collection)
    and {!Clock} (calendar-pattern matching). Delivering a due timer
    means posting a time-event occurrence, which lives a layer up in
    {!Engine}; that single upward call is inverted through
    {!set_deliver_hook}, filled by [Engine] at load time. *)

open Types

val now : db -> int64

val set_deliver_hook : (db -> oid -> Ode_event.Symbol.time_spec -> unit) -> unit
(** Install the time-event delivery function (set once, by [Engine] at
    load time): post one [Time spec] occurrence to one object inside a
    fresh system transaction. *)

val insert_timer : db -> timer -> unit
(** Insert into the wheel; delivery order is (due time, [tm_seq]) —
    equal due times keep insertion order. *)

val fresh_seq : db -> int
(** Allocate the next insertion stamp for a timer about to be
    inserted. *)

val first_due : Ode_event.Symbol.time_spec -> after:int64 -> int64 option
(** The first instant strictly after [after] at which the spec is due;
    [None] if it never fires (e.g. a non-positive period). *)

val reschedule : db -> timer -> fired_at:int64 -> timer option
(** The timer's next incarnation after firing: periodic [Every] and
    calendar [At] specs re-arm (with a fresh insertion stamp), one-shot
    [After_period] does not. *)

val schedule_trigger_timers : db -> obj -> active_trigger -> timer list
(** Insert one timer per time-event leaf of the trigger's event
    specification, anchored at the current clock (activation instant).
    Returns the armed timers so the caller can record them for undo. *)

val timer_alive : db -> timer -> bool
(** The timer's object is live and the watched trigger is still active
    in the same activation epoch. *)

val cancel_object : db -> oid -> timer list
(** Eagerly cancel every pending timer on one object (object deletion),
    returning the cancelled timers in (due, seq) order — re-inserting
    exactly that list (seqs preserved) restores the queue byte-for-byte,
    which is how [U_timers_cancelled] undoes an aborted cancellation. *)

val cancel_trigger : db -> oid -> string -> timer list
(** Eagerly cancel the pending timers of one trigger on one object
    (deactivation, or the epoch bump of a re-activation), returned in
    (due, seq) order as for {!cancel_object}. *)

val cancel_timer : db -> timer -> unit
(** Cancel one specific pending timer, matched by physical identity —
    the undo of [U_timers_armed]. Ignores timers no longer pending. *)

val pending : db -> timer list
(** The pending queue in (due, seq) order — the serialization order. Used by the persist
    codec and the WAL. *)

val pending_count : db -> int
(** [List.length (pending db)], in O(1). *)

val clear : db -> unit
(** Drop every pending timer (image load reset). *)

val replace : db -> timer list -> unit
(** Bulk-load the queue from a (due, seq)-sorted list (WAL replay of a
    full-queue record): the wheel re-places each timer against the
    current clock — set the clock before calling. *)

(** {1 The change log}

    Every insertion and removal is recorded, keyed by [tm_seq] (a
    timer's identity), until {!take_changes} drains it — the WAL's
    redo batches carry these timer changes, not the whole queue. A
    removal cancels an insertion of the same seq since the last drain;
    {!clear} and {!replace} record a wholesale replace. *)

type changes =
  | No_change
  | Full of timer list  (** the whole queue, (due, seq) order *)
  | Delta of { removed : (int * oid) list; added : timer list }
      (** [(tm_seq, tm_oid)] of the removed timers and the inserted
          timers in full, both in seq order *)

val take_changes : db -> changes
(** The net change to the pending set since the last call, then an
    empty log. [Full] after {!clear}, {!replace}, or when the log grew
    past the pending count plus {!change_log_slack}. *)

val apply_delta : db -> removed:(int * oid) list -> added:timer list -> unit
(** Replay a [Delta]: remove each [(seq, oid)] still pending (through
    the per-object index), then insert the added timers against the
    current clock — set the clock first. *)

val change_log_slack : int
(** How many entries the log may hold beyond the pending count before
    it collapses to a full replace: the memory bound for backends that
    never call {!take_changes}. *)

val set_clock : db -> int64 -> unit
(** Move the clock to an absolute instant without
    delivering anything, keeping the wheel's clock-relative placement
    invariant (forward hops cascade, backward hops rebuild). WAL replay
    uses this for batches that moved the clock but not the queue. *)

val advance_to : db -> int64 -> unit
(** Advance simulated time to an absolute instant, firing due timers in
    order; duplicate timers for one (object, spec, instant) deliver a
    single occurrence. One database operation: the deliveries, the
    reschedules and the final clock go into one redo batch. Raises
    {!Types.Ode_error} on going backwards. *)

val advance_clock : db -> int64 -> unit
(** {!advance_to} by a relative span (ms). *)
