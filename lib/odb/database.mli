(** An Ode-style active object database (paper §2, §5–§7).

    This is the substrate the paper's event machinery runs on: persistent
    objects with identity, classes with member functions and trigger
    declarations, flat transactions under object-level strict locking, a
    simulated clock for time events, and the event-posting pipeline of §5
    (basic events posted to objects, per-class automata advanced, fired
    triggers' actions executed inside the posting transaction; commit- and
    abort-events posted by a system transaction).

    {1 Conventions}

    - All object access happens inside a transaction; [after tbegin] is
      posted to an object lazily, immediately before the transaction's
      first access to it (§3.1).
    - A public member-function call on an object posts, in order:
      [before access], [before read]/[before update], [before f], the
      body, [after f], [after read]/[after update], [after access].
    - Trigger actions run immediately, as part of the transaction that
      posted the event. Actions of triggers fired by [after tcommit] /
      [after tabort] run in a {e system} transaction (§5). A trigger
      action may raise {!Tabort} to abort the surrounding transaction.
    - [before tcomplete] is posted repeatedly at commit until a round
      fires no triggers (§6); then the transaction commits.
    - Masks are evaluated against the database with {e no} events posted:
      conditions are required to be side-effect-free (§7).

    {1 Architecture}

    This module is a thin facade: the implementation is layered into
    [Schema] (compiled class/trigger definitions and dispatch indexes),
    [Store] (the object heap, behind a [STORE] backend signature),
    [Txn] (transactions, undo, locks), [Engine] (the posting pipeline),
    [Timewheel] (timers), and the pluggable durability layer — [Persist]
    (the ODE1 full-image codec and backend) and [Wal] (the
    write-ahead-log backend) — with the mutually-recursive state knot
    tied in [Types]. See docs/INTERNALS.md for the layer diagram and
    the allowed dependency direction. *)

module Value = Ode_base.Value

type t = Types.db
(** The representation is visible so the layer modules ([Engine],
    [Store], [Timewheel], ...) apply to a facade database; ordinary
    code needs none of them. *)

type txn
type oid = int

exception Tabort
(** Raised by trigger actions (or user code) to abort the transaction —
    O++'s [tabort] statement. *)

exception Lock_conflict of oid
(** An incompatible lock request; the requesting transaction should
    abort. *)

exception Ode_error of string
(** Schema violations, use outside transactions, commit livelock, etc. *)

type method_kind = Read_only | Updating

(** {1 Schema definition} *)

type class_builder

val define_class :
  ?constructor:(t -> oid -> Value.t list -> unit) -> string -> class_builder
(** Start a class definition. The constructor body runs during
    {!create}, before [after create] is posted — the usual place to
    activate triggers. *)

val field : class_builder -> string -> Value.t -> class_builder
(** Declare a field with its default value. *)

val method_ :
  class_builder ->
  ?arity:int ->
  kind:method_kind ->
  string ->
  (t -> oid -> Value.t list -> Value.t) ->
  class_builder
(** Declare a public member function. [kind] drives the [read]/[update]
    basic events; [arity] (default: any) is checked at call time. *)

type fire_context = {
  fc_oid : oid;  (** the object the event was posted to *)
  fc_params : Value.t list;  (** activation-time trigger arguments *)
  fc_occurrence : Ode_event.Symbol.occurrence;
      (** the occurrence that completed the event — its [args] are the
          method parameters of the last basic event, usable by actions
          such as the paper's T2 [order(i)] *)
  fc_collected : (string * Value.t) list;
      (** the paper's §9 "incorporation of arguments into composite event
          specification": every formal declared by one of the trigger's
          logical events is bound to the argument of its most recent
          matching occurrence (rolled back on abort for [Committed]-mode
          triggers, reset on re-activation). *)
  fc_witnesses : (string * Value.t) list list option;
      (** [Some matches] for triggers declared with [~witnesses:true]:
          the full {!Ode_event.Provenance} of this firing — one binding
          environment per way the composite event matched. [None]
          otherwise. Witness tracking keeps growing partial-match state
          (it is not one word per object) and is not rolled back on
          abort nor persisted by {!save}. *)
}

val trigger :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(t -> fire_context -> unit) ->
  class_builder
(** Declare a trigger. The event specification is compiled to its
    automaton here — once per class (§5). [mode] selects whether the
    detection state observes the full history or only committed work
    (default [Full_history]); [perpetual] defaults to [false] (the
    trigger deactivates when it fires, §2). *)

val trigger_str :
  class_builder ->
  ?perpetual:bool ->
  ?mode:Ode_event.Detector.mode ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(t -> fire_context -> unit) ->
  class_builder
(** Like {!trigger} but the event is parsed from O++ concrete syntax.
    Raises {!Ode_error} on a parse error. *)

val register_class : t -> class_builder -> unit
(** Install the class: methods, triggers (compiling their detectors) and
    the per-class dispatch index — a map from each basic-event kind to
    the trigger definitions whose alphabet can react to it, built once
    here so that posting an occurrence touches only those triggers
    instead of scanning every activation on the object (§5's O(1)
    per-trigger claim, made per-event). Posting runs the compiled
    kernel over that index: candidate rows resolved through each
    object's dense activation slots, classification packed into one
    int code per distinct shared detector, and flat-transition-table
    stepping over the structure-of-arrays detection state
    (property-tested against an independent reference stepper in
    [test/test_dispatch.ml] and [test/test_shard.ml]). *)

val register_fun : t -> string -> (t -> Value.t list -> Value.t) -> unit
(** Register a database function callable from masks, e.g.
    [authorized(user())]. *)

(** {1 Database lifecycle} *)

type durability_spec = [ `Image | `Wal of Wal.config ]
(** Which durability backend to attach: [`Image] (the ODE1 full-image
    codec — {!save}/{!load} only, nothing written between saves) or
    [`Wal cfg] (a write-ahead log: every commit or abort — with the
    system transaction running its [after tcommit]/[after tabort]
    reactions — and every clock advance — with all its time-event
    deliveries — appends one logical redo batch, group
    commits retire batches under [cfg]'s flush window, periodic
    snapshots truncate the log, and {!recover} rebuilds the database
    from snapshot + replay after a crash). Both present the same
    {!save}/{!load} surface and identical observable behaviour. *)

(** {2 The [Config] composition root}

    Every knob the database (and the [odes serve] network front door
    over it) accepts, gathered into one plain record. Historically the
    knobs accreted as [create_db] optionals, the
    [Ode_obs.Registry.set_timing] setter and environment variables
    parsed in different places; {!Config.t} is now the single source of
    truth. The old optionals remain as thin, documented shims over
    it. *)
module Config : sig
  type backpressure = Block | Drop
  (** What a full per-subscriber firing outbox does to the server:
      [Block] stalls posting until the client drains (lossless),
      [Drop] discards the newest firing and counts it. *)

  type serve = {
    host : string;  (** bind address (default ["127.0.0.1"]) *)
    port : int;  (** TCP port; [0] binds an ephemeral port *)
    max_batch : int;
        (** cap on one coalesced batch: the server flushes the
            transaction-free [post]s it has read as one [post_many] at
            the end of every read burst, and sooner once this many
            events are pending *)
    outbox_bound : int;
        (** per-subscriber cap on queued firing notifications *)
    backpressure : backpressure;
        (** default policy for [subscribe] requests that name none *)
    max_frame_bytes : int;  (** cap on one wire frame's payload *)
  }
  (** The network front door's settings — carried here so [odes serve]
      is configured by the same record that configures the engine it
      serves, and takes every command-line default from
      {!default_serve}. Ignored by {!create_db} itself. *)

  type t = {
    start_time : int64;
    max_tcomplete_rounds : int;
    trace_capacity : int;
    durability : durability_spec;
    timing : bool;  (** force latency histograms on — see
        [Ode_obs.Registry.set_timing] *)
    serve : serve;
  }

  val default_serve : serve
  (** [127.0.0.1:7912], 8192-event max batch, 1024-firing outboxes,
      [Block] backpressure, 16 MiB frames. There is no batching
      window: a batch is flushed at the end of the read burst that
      filled it. *)

  val default : t
  (** The documented defaults, environment ignored: image durability,
      timing off, {!default_serve}. *)

  val of_env : unit -> t
  (** {!default} with the environment override applied, raising
      {!Ode_error} with the variable named on a malformed value:
      [ODE_DURABILITY=image|wal|wal:<flush_ms>] sets [durability]
      ([wal] in a fresh temporary directory — how CI runs the whole
      suite under the log). *)
end

val create_db :
  ?config:Config.t ->
  ?start_time:int64 -> ?max_tcomplete_rounds:int -> ?trace_capacity:int ->
  ?durability:durability_spec -> unit -> t
(** Build a database from [config] (default: {!Config.of_env} — so a
    bare [create_db ()] honours the environment exactly as before the
    [Config] facade existed). The remaining optionals are compatibility
    shims: each one, when given, overrides its [config] field.
    [max_tcomplete_rounds] (default 1000, must be >= 1) bounds the §6
    [before tcomplete] fixpoint at commit; when a commit's rounds
    exceed it, {!commit} raises {!Ode_error} naming the round count
    instead of livelocking. [trace_capacity] (default 1024, must be
    >= 1) sizes the observability trace ring — see {!observe}. A
    [max_tcomplete_rounds] or [trace_capacity] below 1 raises
    {!Ode_error} naming the field. The
    chosen durability backend is attached (its [dur_attach]) before
    this returns: a WAL database starts logging from its very first
    commit. *)

val config_summary : t -> string
(** One operator-readable line describing what this instance {e is}:
    durability, observability state and the clock — e.g.
    ["durability=wal:/var/ode obs=off timing=off clock=0ms"]. Surfaced by [odec schema] and the server's [status]
    verb. *)

val durability_name : t -> string
(** ["image"] or ["wal:<dir>"] — the [durability=] component of
    {!config_summary}. *)

(** {1 Observability}

    Every database carries an {!Ode_obs.Registry.t}: pipeline counters
    (events posted per basic kind, dispatch-index work skipped,
    automaton transitions, firings, tcomplete rounds, undo entries,
    timer deliveries, lock conflicts), nanosecond latency histograms for
    [post]/[call]/[commit]/trigger actions, and a bounded ring of
    structured trace spans with pluggable sinks
    ({!Ode_obs.Trace.add_sink}). The registry is created {e disabled}
    and every probe is guarded, so the posting hot path pays one boolean
    load per probe site when off (the E10-obs-overhead experiment keeps
    this within noise of the E9-dispatch baseline). *)

val observe : t -> Ode_obs.Registry.t
(** The database's registry — inspect counters and histograms, read or
    clear the trace ring, attach sinks. *)

val set_observability : t -> bool -> unit
(** Turn the probes on or off (off at {!create_db}). Equivalent to
    [Ode_obs.Registry.set_enabled (observe db)]. *)

val now : t -> int64

val advance_clock : t -> int64 -> unit
(** Advance simulated time by a span (ms), firing due time events in
    order. Each timer delivery runs in its own system transaction. *)

val advance_to : t -> int64 -> unit

val save : t -> string -> unit
(** Persist all objects (fields, trigger activations and their automaton
    states), pending timers, the object counter and the clock, as one
    ODE1 image — whatever the attached durability backend (a WAL
    checkpoint-and-truncates as a side effect, so the image and the log
    never disagree). Fails if a transaction is open. Not saved: the
    schema itself (closures are code), database-scope trigger
    activations (re-activate after {!load}), the history log,
    provenance partial matches, and the {!enable_history} setting. *)

val load : t -> string -> unit
(** Restore a {!save}d image into a database whose classes have been
    registered again. Existing objects are discarded. *)

val image_bytes : t -> string
(** The exact bytes {!save} would write, in memory — the canonical
    state fingerprint: two databases in the same logical state (same
    objects, activations, automaton states, timers, counters, clock)
    produce equal bytes, whatever their store or durability backends.
    Usable with transactions open (unlike {!save}). *)

val recover : t -> unit
(** WAL backend only: rebuild the database state from the newest
    snapshot plus every intact redo batch in its log — call it after
    {!create_db} pointed [`Wal] at a directory left behind by a crashed
    process, once the classes are registered again. A damaged tail
    (torn write, bad checksum) stops the replay at the last intact
    batch; recovery then re-baselines the directory with a fresh
    snapshot so the damage cannot resurface. Raises {!Ode_error} on the
    image backend, with a transaction open, or when the directory holds
    no state. *)

val sync_durability : t -> unit
(** Force any buffered redo batches to disk now, regardless of the
    group-commit window. No-op on the image backend. *)

val close_durability : t -> unit
(** Flush and detach the durability backend: later commits emit nothing.
    No-op on the image backend; idempotent. *)

(** {1 Transactions} *)

val begin_txn : t -> txn
(** Also makes the new transaction current. Multiple transactions may be
    open (interleaved) at once; see {!switch_txn}. *)

val switch_txn : t -> txn -> unit
val current_txn : t -> txn option
val txn_id : txn -> int

val commit : t -> txn -> (unit, [ `Aborted ]) result
(** Runs the [before tcomplete] rounds, then commits and posts
    [after tcommit] via a system transaction. If a trigger action raises
    {!Tabort} during the rounds, the transaction is aborted instead and
    [Error `Aborted] is returned. *)

val abort : t -> txn -> unit
(** Posts [before tabort], undoes all effects (fields, created/deleted
    objects, committed-mode trigger states), releases locks, then posts
    [after tabort] via a system transaction. *)

val with_txn : t -> (txn -> 'a) -> ('a, [ `Aborted ]) result
(** [begin_txn]; run; [commit]. {!Tabort} (from an action or the body)
    aborts and yields [Error `Aborted]; {!Lock_conflict} likewise aborts
    and re-raises; any other exception aborts and re-raises. *)

(** {1 Objects} *)

val create : t -> string -> Value.t list -> oid
(** Instantiate a class: allocate identity, set field defaults, run the
    constructor, post [after create]. *)

val delete : t -> oid -> unit
(** Post [before delete], then delete. *)

val exists : t -> oid -> bool
val class_of : t -> oid -> string

val objects : t -> oid list
(** Live objects, ascending oid. *)

val objects_of_class : t -> string -> oid list

val call : t -> oid -> string -> Value.t list -> Value.t
(** Invoke a public member function, posting the §3.1 basic events around
    the body. *)

val has_method : t -> oid -> string -> bool

val apply_fun : t -> string -> Value.t list -> Value.t
(** Call a function registered with {!register_fun}; raises {!Ode_error}
    if unknown. *)

(** {1 Batch event posting}

    {!post_many} drives the §5 pipeline over a whole batch of basic
    events in three sequential passes, each in batch order:
    touch/lock/history, then classify + automaton step, then
    firing. *)

val post_many :
  t -> (oid * Ode_event.Symbol.basic * Value.t list) list -> int
(** Post a batch of basic events inside the current transaction. Every
    event steps against the detection state as of the start of the
    batch (same-object events step in batch order); fired actions all
    run after the whole batch has stepped, in batch order then
    declaration order. Dead or missing oids are skipped. Returns the
    number of firings. Requires an active transaction. *)

val get_field : t -> oid -> string -> Value.t
(** Raw field read for method bodies and examples; posts no events. *)

val set_field : t -> oid -> string -> Value.t -> unit
(** Raw field write (undo-logged); posts no events. Must run inside a
    transaction. *)

(** {1 Triggers} *)

val activate : t -> oid -> string -> Value.t list -> unit
(** Activate a trigger by name with parameters — the paper's
    "invoking its name just as an ordinary member function". Time events
    in its specification are scheduled from the activation instant. *)

val deactivate : t -> oid -> string -> unit
val is_active : t -> oid -> string -> bool

val trigger_state_words : t -> oid -> string -> int
(** Number of state integers this activation stores — 1 for any trigger
    whose event has no composite masks (the §5 claim). *)

val trigger_state : t -> oid -> string -> int array
(** A copy of the activation's automaton state, for diagnostics and
    tests. *)

(** {1 Firing notification}

    The notification surface is subscription-based: register a callback
    with {!subscribe_firings} and every subsequent firing — object or
    database scope — is delivered to it synchronously from inside the
    posting pipeline, in subscription order, immediately before the
    fired trigger's action runs. *)

type firing = {
  f_trigger : string;
  f_class : string;  (** ["<database>"] for database-scope triggers *)
  f_oid : oid;
  f_at : int64;
  f_txn : int;
}

type subscription

val subscribe_firings : t -> (firing -> unit) -> subscription
(** Register a firing callback. Callbacks run synchronously inside the
    posting operation (and therefore inside its transaction); they
    should not raise — an exception propagates out of the posting call.
    Subscriptions are not persisted by {!save} but do survive
    {!load}. *)

val unsubscribe : t -> subscription -> unit
(** Remove a subscription; idempotent. Unsubscribing from inside a
    callback takes effect immediately (no further deliveries, including
    later subscribers' deliveries of the same firing batch). *)

val subscriber_count : t -> int
(** Live subscriptions — what the server's [status] verb reports, and
    what the connection-leak tests pin (a disconnected network client
    must take its subscription with it). *)

(** {1 Database-scope triggers (§3 "events have a scope")}

    Some events are not local to one object: schema modification and
    object creation/deletion across the database. Database-scope triggers
    observe, with the same event algebra:

    - [after defclass] — a class was registered (argument: class name);
    - [after create] — any object was created (arguments: oid, class);
    - [before delete] — any object is being deleted (arguments: oid,
      class).

    They are always [Full_history] (no per-transaction rollback: schema
    events may happen outside transactions) and their actions run in
    whatever transaction — possibly none — posted the event. *)

val db_trigger :
  t ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:Ode_event.Expr.t ->
  action:(t -> fire_context -> unit) ->
  unit
(** [witnesses] (default false) tracks full per-match provenance exactly
    as for object-scope triggers: the action's [fc_witnesses] becomes
    [Some matches]. Reset when the trigger is re-activated. *)

val db_trigger_str :
  t ->
  ?perpetual:bool ->
  ?witnesses:bool ->
  string ->
  event:string ->
  action:(t -> fire_context -> unit) ->
  unit

val activate_db_trigger : t -> string -> Value.t list -> unit
val deactivate_db_trigger : t -> string -> unit

(** {1 Event histories (§9)} *)

val enable_history : t -> limit:int -> unit
(** Keep the last [limit] basic events posted to each object (the {e
    true} history of §6: aborted transactions' events included). Query
    with {!object_history} and {!History}. *)

val object_history : t -> oid -> History.t
(** Oldest first; empty when recording is disabled. *)

(** {1 Statistics} *)

type stats = {
  n_objects : int;
  n_classes : int;
  n_active_triggers : int;
  n_timers : int;
  state_bytes : int;
      (** Detection-state footprint: 8 bytes per automaton state word of
          every activation (object- and database-scope), plus
          [24 + length name] bytes per collected §9 binding, plus the
          committed-mode shadow copies pinned by open transactions' undo
          logs (state-word and binding charges alike). See
          {!Store.stats} for the precise accounting. *)
}

val stats : t -> stats
