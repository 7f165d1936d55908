(* The cross-layer knot of the Ode database.

   The database state is mutually recursive by nature — an object knows
   its class, a class knows its trigger definitions, a trigger action
   closes over the database — so the type definitions live together in
   this one small module. Everything else is layered: the {e state} of
   each subsystem is grouped into its own sub-record of [db]
   ([schema_state], [store_state], [txn_state], [engine_state],
   [wheel_state]) and the {e code} owning each sub-record lives in its
   own compilation unit ([Schema], [Store], [Txn], [Engine],
   [Timewheel], [Persist]), with the public API re-exported by the
   [Database] facade. The redo footprint ([redo_state]) is the
   exception: [Timewheel], [Txn] and [Engine] all use it, so its three
   functions live here, below all of them. Allowed dependency
   direction: Schema -> Store -> Txn -> Engine; [Engine] may depend on everything
   below it, never the reverse (the two upward calls — event posting
   from [Txn]'s commit/abort and timer delivery from [Timewheel] — are
   inverted through hook refs that [Engine] fills at load time).

   Examples and tests should not use this module directly. *)

module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector

type oid = int
type method_kind = Read_only | Updating
type txn_status = Active | Committed | Aborted

type db = {
  schema : schema_state;
  store : store_state;
  txns : txn_state;
  engine : engine_state;
  wheel : wheel_state;
  mutable durability : durability_backend;
      (* the persistence strategy behind [Database.save]/[load] and the
         commit-time redo emission; mutable so [create_db] can install
         the resolved backend after the knot is tied *)
  redo : redo_state;
  obs : Ode_obs.Registry.t;
      (* observability registry (counters, latency histograms, trace
         ring). Created disabled; every probe in the layers guards on
         [Ode_obs.Registry.enabled] so the hot path stays untouched. *)
}

(* [Schema]: compiled class and trigger definitions. Written at class
   registration, read-only on the posting hot path. *)
and schema_state = {
  classes : (string, klass) Hashtbl.t;
  functions : (string, db -> Value.t list -> Value.t) Hashtbl.t;
  db_trigger_defs : (string, trigger_def) Hashtbl.t;  (* database scope (§3) *)
  db_dispatch : (Symbol.basic_key, trigger_def list) Hashtbl.t;
      (* dispatch index for database-scope triggers: posted basic ->
         definitions whose alphabet can react, in declaration order *)
}

(* [Store]: the object heap. One hashtable per database. *)
and store_state = {
  heap : (oid, obj) Hashtbl.t;  (* stored objects, delete-marked included *)
  mutable next_oid : int;
  mutable n_live : int;  (* stored objects with [o_deleted = false] *)
  mutable history_limit : int;  (* 0 = recording off *)
  soa : (int, soa_block) Hashtbl.t;
      (* detector uid -> the structure-of-arrays block packing the
         fixed-width automaton state vectors of every activation of that
         detector on this heap's objects (paper §5: "one integer per
         active trigger per object", one per level for hierarchical
         automata) *)
}

(* One packed state block: slot [i] of an activation occupies the
   [blk_words] cells at [blk_state.(i * blk_words ..)] — one word per
   automaton level plus the top (1 for mask-free detectors). Slots are
   recycled through a free list when an activation is undone or its
   object removed. *)
and soa_block = {
  blk_words : int;  (* words per activation: the detector's n_state_words *)
  mutable blk_state : int array;
  mutable blk_n : int;  (* high-water slot count *)
  mutable blk_free : int list;
}

(* [Txn]: transaction bookkeeping. *)
and txn_state = {
  mutable next_txn_id : int;
  mutable current : txn option;
  mutable open_txns : txn list;
  mutable in_abort : bool;  (* guards against tabort-during-abort loops *)
  mutable max_tcomplete_rounds : int;
      (* livelock bound on the §6 [before tcomplete] fixpoint *)
}

(* The redo footprint of the database operation in progress — a user
   commit or abort with its transaction-event system transaction, or a
   clock advance with its time-event deliveries. Every transaction that
   finishes inside the operation adds the objects it touched; the
   outermost operation emits them as one batch ([with_operation]). *)
and redo_state = {
  mutable rd_depth : int;  (* operations in progress, nested *)
  mutable rd_oids : oid list;  (* the footprint, newest first *)
  rd_seen : (oid, unit) Hashtbl.t;  (* membership mirror of [rd_oids] *)
}

(* [Engine]: the posting pipeline's own state. *)
and engine_state = {
  db_triggers : (string, active_trigger) Hashtbl.t;
      (* activations of database-scope triggers *)
  mutable subscribers : subscription list;
      (* firing subscribers in subscription order *)
  mutable next_sub_id : int;
  mutable stepper :
    (db -> undo:undo_entry list ref -> (obj * Symbol.occurrence) array ->
     active_trigger list array)
    option;
      (* [None] — always, outside the equivalence tests — runs the
         compiled kernel. The test seam [Engine.set_stepper] installs a
         reference classify/step function here instead; it steps a whole
         batch with its own loop (one item for [post]), so the kernel's
         batch loop is checked against it too. *)
  mutable scratch : scratch option;
      (* the reusable classify/step buffer, built lazily by [Engine] and
         shared by [post] and [post_many] *)
  kind_names : (Symbol.basic, string) Hashtbl.t;
      (* memoized pretty-printed basic-event keys for the observability
         probes ([Format.asprintf] per post would dominate the enabled
         cost); written only from the sequential posting phases *)
}

(* Reusable posting buffers: a mask environment whose field
   reads resolve against whatever object [sc_obj] currently holds, and a
   grow-only classification-code buffer (one packed code per distinct
   detector of the candidate row). This is what makes the steady-state
   kernel path allocation-free. *)
and scratch = {
  sc_obj : obj option ref;
  sc_env : Ode_event.Mask.env;
  mutable sc_codes : int array;
  mutable sc_classified : int;
  mutable sc_skipped : int;
  mutable sc_transitions : int;
  mutable sc_slot_steps : int;
  mutable sc_word_steps : int;
      (* counter accumulators, flushed to the registry once per post
         phase (once per batch under [post_many]) instead of per
         candidate — the atomics stay exact, off the inner loop. The
         slot/word split is the kernel-coverage breakdown: transitions
         taken through the flat-table SoA path vs the boxed
         word-vector fallback. *)
}

(* [Timewheel]: simulated time. *)
and wheel_state = {
  mutable clock_ms : int64;
  mutable tq : twheel;  (* the pending timers *)
  tq_added : (int, timer) Hashtbl.t;
  tq_removed : (int, oid) Hashtbl.t;
  mutable tq_full : bool;
      (* the timer changes since the last durability batch, keyed by
         [tm_seq] (a timer's identity): timers inserted, and (seq, oid)
         of timers removed that were not inserted since — a removal
         cancels a same-batch insert. [tq_full] marks a wholesale
         replace (clear, load, or a log grown past the pending count),
         after which the next batch carries the whole queue and the two
         tables stay empty. [Timewheel] records and drains them *)
  mutable tm_next_seq : int;
      (* insertion counter stamping [tm_seq] *)
}

(* The pending-timer structure: a hierarchical hashed timing wheel
   (Varghese–Lauck) — O(1) arming and cancellation, cascade-on-advance,
   delivery in (due, seq) order; [Timewheel] owns all the code.
   [wheel_levels] bucket levels of [wheel_slots] slots each; level l's
   slots are 64^l ticks (ms) wide, and a timer lives at the lowest
   level whose current rotation covers its due instant — so a level-0
   slot holds exactly one instant. Buckets are intrusive doubly-linked
   node lists (O(1) unlink for eager cancellation via [tw_index]).
   [tw_ovf] holds timers beyond the top level's rotation; [tw_past]
   holds timers at or before the current clock (only reachable through
   crash-recovery clock skew), delivered first. *)
and twheel = {
  tw_slots : tnode option array array;  (* level -> slot -> bucket head *)
  tw_counts : int array;  (* pending nodes per level *)
  mutable tw_ovf : tnode option;  (* beyond the top rotation *)
  mutable tw_ovf_n : int;
  mutable tw_past : tnode option;  (* due <= clock (recovery skew) *)
  mutable tw_past_n : int;
  mutable tw_n : int;  (* total pending nodes *)
  mutable tw_peek : tnode option;
      (* cached minimum-(due, seq) pending node; [None] = unknown
         (recomputed lazily) — kept so the per-delivery head probe in
         [Timewheel.advance_to] is O(1) between mutations *)
  tw_index : (oid, tnode list) Hashtbl.t;
      (* live handles per object — the eager-cancellation index; holds
         only linked nodes (delivery and cancellation both unlink) *)
}

(* One pending timer's wheel handle. [tn_level] is the bucket address:
   0..L-1 a wheel level, -1 the overflow list, -3 the past list, -2
   detached (popped or cancelled). *)
and tnode = {
  tn_timer : timer;
  mutable tn_prev : tnode option;
  mutable tn_next : tnode option;
  mutable tn_level : int;
  mutable tn_slot : int;
}

(* [Durability]: the persistence strategy, held abstractly as a record
   of backend operations.
   [Persist] packs the full-image ODE1 codec, [Wal] the write-ahead-log
   backend; [Database.create_db ?durability] resolves the choice. The
   default installed by [make_db] is a no-op: raw-layer users (tests,
   benches) pay nothing, and batch emission from [Txn]/[Engine]/
   [Timewheel] goes through [dur_commit] without those layers depending
   on [Persist] or [Wal]. *)
and durability_backend = {
  dur_name : string;  (* "none", "image" or "wal:<dir>" *)
  dur_attach : db -> unit;
      (* called once by [create_db] right after construction — the WAL
         backend baselines its directory (initial snapshot + empty log)
         here so a crash before the first commit still recovers *)
  dur_redo : bool;
      (* whether [dur_commit] logs its objects: only then do the
         operations collect a footprint ([note_txn]) *)
  dur_commit : db -> oid list -> unit;
      (* emit one redo batch covering the listed objects, each listed
         once (plus counters, clock and the timer changes since the last
         batch). Called once per database operation — a user commit or
         abort with its after-tcommit/after-tabort system transaction,
         or a clock advance with all its time-event deliveries — by
         [with_operation]. *)
  dur_save : db -> string -> unit;
  dur_load : db -> string -> unit;
  dur_recover : db -> unit;
      (* rebuild state from the backend's own storage (WAL: latest
         snapshot + log replay); classes must be registered first *)
  dur_sync : db -> unit;  (* force buffered group-commit batches to disk *)
  dur_close : db -> unit;
}

and klass = {
  k_name : string;
  k_fields : (string * Value.t) list;  (* declaration order, with defaults *)
  k_methods : (string, meth) Hashtbl.t;
  k_triggers : (string, trigger_def) Hashtbl.t;
  k_n_triggers : int;  (* sizes each object's [o_acts] slot array *)
  k_rows : (Symbol.basic_key, krow) Hashtbl.t;
      (* §5 hot-path index, built once at schema registration: posted
         basic -> the posting kernel's compiled candidate row of the
         trigger definitions whose alphabet can react to it, with the
         distinct shared detectors factored out so one post classifies
         each detector exactly once and never allocates. Static per
         class — activation state is consulted through [o_acts], so
         trigger (de)activation needs no invalidation. *)
  k_constructor : (db -> oid -> Value.t list -> unit) option;
}

(* One compiled candidate row: the trigger definitions of one class that
   can react to one [basic_key], in declaration order, plus their
   distinct detectors (shared detectors classify once per post). *)
and krow = {
  kr_defs : trigger_def array;  (* declaration order *)
  kr_dets : Detector.t array;  (* distinct detectors, first-use order *)
  kr_det_of : int array;  (* kr_defs index -> kr_dets index *)
}

and meth = {
  m_name : string;
  m_kind : method_kind;
  m_arity : int option;  (* None = variadic *)
  m_impl : db -> oid -> Value.t list -> Value.t;
}

and trigger_def = {
  t_name : string;
  t_class : string;
  t_event : Ode_event.Expr.t;
  t_detector : Detector.t;  (* compiled once per class, as in §5 *)
  t_perpetual : bool;
  t_witnesses : bool;  (* track full per-match provenance (§9) *)
  t_action : db -> fire_context -> unit;
  mutable t_index : int;
      (* dense per-class slot, assigned at [Schema.register_class] in
         declaration order; indexes [o_acts] on every object of the
         class. [-1] for database-scope definitions. *)
}

and fire_context = {
  fc_oid : oid;  (* the object the event was posted to *)
  fc_params : Value.t list;  (* activation-time trigger arguments *)
  fc_occurrence : Symbol.occurrence;  (* the occurrence completing the event *)
  fc_collected : (string * Value.t) list;
      (* formal-name bindings collected across the constituent logical
         events (paper §9), latest occurrence winning *)
  fc_witnesses : (string * Value.t) list list option;
      (* full per-match provenance when the trigger was declared with
         [~witnesses:true]; one binding list per way the event matched *)
}

and active_trigger = {
  at_def : trigger_def;
  mutable at_params : Value.t list;  (* activation arguments, passed to the action *)
  mutable at_state : trig_state;
  mutable at_collected : (string * Value.t) list;  (* §9 parameter collection *)
  mutable at_provenance : Ode_event.Provenance.t option;  (* when t_witnesses *)
  mutable at_last_witnesses : (string * Value.t) list list;
  mutable at_active : bool;
  mutable at_epoch : int;  (* bumped on (re)activation; stale timers check it *)
}

(* Where an activation's automaton state lives. Detectors whose whole
   level stack carries flat transition tables ([Detector.has_flat] —
   all compilable expressions in practice) pack their fixed state
   vector into the heap's SoA blocks; everything else — automata
   past the flat-cell budget, database-scope activations — keeps its
   own word vector. *)
and trig_state =
  | S_words of Detector.state
  | S_slot of soa_block * int

and obj = {
  o_id : oid;
  o_class : klass;
  o_fields : (string, Value.t) Hashtbl.t;
  o_triggers : (string, active_trigger) Hashtbl.t;
  o_acts : active_trigger option array;
      (* activations by [t_index] — the kernel's candidate rows resolve
         through this dense array instead of the name hashtable *)
  mutable o_n_active : int;  (* activations with [at_active = true] *)
  mutable o_deleted : bool;
  mutable o_lock : Lock.t;
  mutable o_history : History.record list;  (* newest first; see §9 *)
  mutable o_history_len : int;
}

and txn = {
  tx_id : int;
  tx_system : bool;  (* transaction events are not posted for system txns *)
  mutable tx_status : txn_status;
  mutable tx_accessed : oid list;  (* reverse order of first access *)
  tx_seen : (oid, unit) Hashtbl.t;  (* membership mirror of tx_accessed *)
  mutable tx_undo : undo_entry list;  (* newest first *)
  mutable tx_dirty : oid list;
      (* objects whose durable state this txn changed outside the
         access path (trigger (de)activation carries no object access
         semantics, so it must not enter [tx_accessed] and the event
         fan-outs) — unioned into the redo-batch footprint at emission *)
}

and undo_entry =
  | U_field of obj * string * Value.t
  | U_create of obj
  | U_delete of obj
  | U_trigger_state of active_trigger * int array
      (* snapshot of the state words, whatever the representation *)
  | U_trigger_collected of active_trigger * (string * Value.t) list
  | U_trigger_active of obj option * active_trigger * bool
      (* the owning object (None for database scope) so undo can keep
         [o_n_active] exact *)
  | U_trigger_added of obj * string
  | U_timers_cancelled of timer list
      (* timers eagerly cancelled inside the txn (deactivate / delete /
         re-activation epoch bump); undo re-inserts them with their
         original seqs, so an abort restores the exact queue bytes *)
  | U_timers_armed of timer list
      (* timers armed inside the txn; undo cancels them (matched by
         physical equality, so a re-armed equal timer is untouched) *)

and timer = {
  tm_due : int64;
  tm_seq : int;
      (* insertion order among equal due times — the tiebreak that
         keeps delivery order stable (and survives a save/load round
         trip) *)
  tm_oid : oid;
  tm_trigger : string;
  tm_epoch : int;
  tm_spec : Symbol.time_spec;
  tm_anchor : int64;  (* activation time, for Every/After_period *)
}

and firing = {
  f_trigger : string;
  f_class : string;
  f_oid : oid;
  f_at : int64;
  f_txn : int;
}

and subscription = {
  s_id : int;
  s_fn : firing -> unit;
  mutable s_active : bool;
}

exception Tabort
exception Lock_conflict of oid
exception Ode_error of string

let ode_error fmt = Format.kasprintf (fun s -> raise (Ode_error s)) fmt

(* The durability backend installed when nobody chose one: emission is
   free, and save/load point the caller at [Database.create_db
   ?durability] (raw [make_db] users drive [Persist] directly). *)
let noop_durability =
  {
    dur_name = "none";
    dur_attach = (fun _ -> ());
    dur_redo = false;
    dur_commit = (fun _ _ -> ());
    dur_save = (fun _ _ -> ode_error "no durability backend attached");
    dur_load = (fun _ _ -> ode_error "no durability backend attached");
    dur_recover = (fun _ -> ode_error "no durability backend attached");
    dur_sync = (fun _ -> ());
    dur_close = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* The redo footprint                                                  *)
(* ------------------------------------------------------------------ *)

let note_oid db oid =
  let r = db.redo in
  if not (Hashtbl.mem r.rd_seen oid) then begin
    Hashtbl.add r.rd_seen oid ();
    r.rd_oids <- oid :: r.rd_oids
  end

(* A finished transaction's share of the footprint: the objects it
   accessed in first-access order, then those it changed outside the
   access path ([tx_dirty]). Nothing to do when the backend logs
   nothing. *)
let note_txn db tx =
  if db.durability.dur_redo then begin
    List.iter (note_oid db) (List.rev tx.tx_accessed);
    List.iter (note_oid db) (List.rev tx.tx_dirty)
  end

(* Run [f] as one database operation. Operations nest (a commit's
   after-tcommit action may commit or advance the clock); only the
   outermost one emits, on return or exception alike, so the batch
   holds the state the whole operation left behind and a cut log never
   separates a commit from its reactions. *)
let with_operation db f =
  let r = db.redo in
  let finish () =
    r.rd_depth <- r.rd_depth - 1;
    if r.rd_depth = 0 then begin
      let oids = List.rev r.rd_oids in
      r.rd_oids <- [];
      (* a huge footprint (a long advance) must not leave a huge bucket
         array for every later operation's [clear] to sweep *)
      if Hashtbl.length r.rd_seen > 4096 then Hashtbl.reset r.rd_seen
      else Hashtbl.clear r.rd_seen;
      db.durability.dur_commit db oids
    end
  in
  r.rd_depth <- r.rd_depth + 1;
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

(* The wheel's geometry: [wheel_levels] levels of [2^wheel_bits] slots.
   Defined here so [make_db] can build an empty wheel; [Timewheel] owns
   everything else about it. *)
let wheel_bits = 6
let wheel_levels = 8
let wheel_slots = 1 lsl wheel_bits

let make_wheel () =
  {
    tw_slots = Array.init wheel_levels (fun _ -> Array.make wheel_slots None);
    tw_counts = Array.make wheel_levels 0;
    tw_ovf = None;
    tw_ovf_n = 0;
    tw_past = None;
    tw_past_n = 0;
    tw_n = 0;
    tw_peek = None;
    tw_index = Hashtbl.create 64;
  }

(* The composition root: every layer's state record, initialized empty.
   Lives here because only the knot module sees all the sub-records. *)
let make_db ?(start_time = 0L) ?(max_tcomplete_rounds = 1000)
    ?(trace_capacity = 1024) ?(durability = noop_durability) () =
  if max_tcomplete_rounds < 1 then
    ode_error "max_tcomplete_rounds must be >= 1";
  let db =
    {
      schema =
        {
          classes = Hashtbl.create 8;
          functions = Hashtbl.create 8;
          db_trigger_defs = Hashtbl.create 4;
          db_dispatch = Hashtbl.create 8;
        };
      store =
        {
          heap = Hashtbl.create 64;
          next_oid = 1;
          n_live = 0;
          history_limit = 0;
          soa = Hashtbl.create 8;
        };
      txns =
        {
          next_txn_id = 1;
          current = None;
          open_txns = [];
          in_abort = false;
          max_tcomplete_rounds;
        };
      engine =
        {
          db_triggers = Hashtbl.create 4;
          subscribers = [];
          next_sub_id = 1;
          stepper = None;
          scratch = None;
          kind_names = Hashtbl.create 16;
        };
      wheel =
        {
          clock_ms = start_time;
          tq = make_wheel ();
          tq_added = Hashtbl.create 16;
          tq_removed = Hashtbl.create 16;
          tq_full = false;
          tm_next_seq = 0;
        };
      durability;
      redo = { rd_depth = 0; rd_oids = []; rd_seen = Hashtbl.create 16 };
      obs = Ode_obs.Registry.create ~trace_capacity ();
    }
  in
  db

(* Pending timers in the queue, O(1). Lives here (not
   [Timewheel]) so [Store.stats] can count timers without a circular
   dependency. *)
let timerq_count w = w.tq.tw_n

(* ------------------------------------------------------------------ *)
(* Detection-state accessors                                          *)
(*                                                                    *)
(* All reads and writes of [at_state] outside the kernel's inner loop *)
(* go through these, so undo snapshots, persistence images and the    *)
(* public [trigger_state] API are byte-identical whichever            *)
(* representation the activation uses.                                *)
(* ------------------------------------------------------------------ *)

let at_state_copy at =
  match at.at_state with
  | S_words w -> Array.copy w
  | S_slot (b, i) -> Array.sub b.blk_state (i * b.blk_words) b.blk_words

let at_state_restore at w =
  match at.at_state with
  | S_words _ -> at.at_state <- S_words w
  | S_slot (b, i) -> Array.blit w 0 b.blk_state (i * b.blk_words) b.blk_words

let at_state_reset at =
  match at.at_state with
  | S_words _ -> at.at_state <- S_words (Detector.initial at.at_def.t_detector)
  | S_slot (b, i) ->
    Detector.write_initial at.at_def.t_detector b.blk_state (i * b.blk_words)

let at_top_state at =
  match at.at_state with
  | S_words w -> Detector.top_state w
  | S_slot (b, i) -> b.blk_state.(((i + 1) * b.blk_words) - 1)

let at_state_len at =
  match at.at_state with
  | S_words w -> Array.length w
  | S_slot (b, _) -> b.blk_words

(* Single point maintaining the per-object active count next to the
   flag; [obj_opt] is [None] for database-scope activations. *)
let set_trigger_active obj_opt at v =
  if at.at_active <> v then begin
    (match obj_opt with
    | Some o -> o.o_n_active <- o.o_n_active + (if v then 1 else -1)
    | None -> ());
    at.at_active <- v
  end
