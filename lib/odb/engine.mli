(** Engine layer: the §5 event-posting pipeline — the compiled
    posting kernel (candidate rows, packed classification codes,
    flat-table stepping), database-scope dispatch, the firing
    pipeline, system-transaction posting — plus the object and trigger operations that compose the
    layers below (create/delete/call drive Store + Txn + the pipeline).

    Top of the subsystem stack: depends on {!Schema}, {!Store}, {!Txn}
    and {!Timewheel}, never the reverse. At load time it installs the
    posting hooks that [Txn] (commit/abort events) and [Timewheel]
    (time-event delivery) call upward through. *)

module Value = Ode_base.Value
open Types

(** {1 Test seam} *)

val set_stepper :
  db ->
  (db -> undo:undo_entry list ref -> (obj * Ode_event.Symbol.occurrence) array ->
   active_trigger list array)
  option ->
  unit
(** Replace the compiled kernel's classify/step phases for object-scope
    posts on this database with a reference
    stepper; [None] (the state of every database at creation) restores
    the kernel. The stepper receives the committed-mode undo list to
    extend and a batch of occurrences in batch order ({!post} passes a
    batch of one), and returns each item's fired activations in firing
    order. This exists for the equivalence tests, which drive one workload through the kernel and
    through an independent oracle — nothing else sets it. *)

(** {1 The posting pipeline} *)

val post : db -> txn -> obj -> Ode_event.Symbol.basic -> Value.t list -> bool
(** Post one basic-event occurrence to one object: record history,
    select candidates, classify once per shared detector, collect §9
    bindings, advance automata, then run fired actions in declaration
    order inside the posting transaction. Returns whether anything
    fired. *)

val post_db : db -> Ode_event.Symbol.basic -> Value.t list -> unit
(** Post to the database scope (§3): [after defclass], [after create],
    [before delete]. *)

(** {1 Batch posting}

    [post_many] drives the same three-phase pipeline over a whole batch:
    phase 0 (touch/lock/history/probes), the classify + step loop and
    phase 3 (firing) each run once over the batch, in batch order. *)

val post_many : db -> (oid * Ode_event.Symbol.basic * Value.t list) list -> int
(** Post a batch of basic events. Every event is classified and stepped
    against the detection state as of the start of the batch's step
    phase (events to the same object step in batch order); all fired
    actions run after the whole batch has stepped, in batch order then
    declaration order. Dead or missing oids are skipped, like the
    transaction-event fan-out at commit. Returns the number of
    firings. *)

(** {1 Firing notification}

    The notification surface is subscription-based: register a callback
    with {!subscribe_firings} and every subsequent firing — object or
    database scope — is delivered to it synchronously, in subscription
    order, from inside the posting pipeline. *)

val subscribe_firings : db -> (firing -> unit) -> subscription
(** Register a callback invoked synchronously for every firing, in
    subscription order, after one-shot deactivation but interleaved with
    the fired actions of the same occurrence (each firing is notified
    immediately before its action runs). Callbacks must not raise;
    an exception propagates out of the posting operation. *)

val unsubscribe : db -> subscription -> unit
(** Remove a subscription. Safe to call twice; a subscription captured
    inside a callback list being walked is silenced immediately
    ([s_active] is cleared before removal). *)

val notify_firing : db -> firing -> unit
(** Deliver one firing to all subscribers (and the observability
    registry). Exposed for the façade and tests; the pipeline calls it
    internally. *)

val touch : db -> txn -> obj -> unit
(** Record first access and lazily post [after tbegin] (§3.1(4)). *)

(** {1 Schema registration} *)

val register_class : db -> Schema.class_builder -> unit
(** {!Schema.register_class}, then announce [after defclass] on the
    database scope. *)

(** {1 Objects} *)

val create : db -> string -> Value.t list -> oid
val delete : db -> oid -> unit
val set_field : db -> oid -> string -> Value.t -> unit
val call : db -> oid -> string -> Value.t list -> Value.t
val has_method : db -> oid -> string -> bool
val apply_fun : db -> string -> Value.t list -> Value.t

(** {1 Trigger activation} *)

val activate : db -> oid -> string -> Value.t list -> unit
val deactivate : db -> oid -> string -> unit
val is_active : db -> oid -> string -> bool
val trigger_state_words : db -> oid -> string -> int
val trigger_state : db -> oid -> string -> int array

val activate_db_trigger : db -> string -> Value.t list -> unit
val deactivate_db_trigger : db -> string -> unit
