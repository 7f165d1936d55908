module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Mask = Ode_event.Mask
module Detector = Ode_event.Detector
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace
open Types

(* ------------------------------------------------------------------ *)
(* Observability probes                                                 *)
(* ------------------------------------------------------------------ *)

(* Every probe below is guarded by the caller on
   [Registry.enabled db.obs]; with observability off the pipeline pays
   one boolean load per probe site (E10-obs-overhead in EXPERIMENTS.md
   keeps this honest). *)

(* Memoized per database: formatting the key with [Format.asprintf] on
   every enabled post would dominate the probe cost. Only the sequential
   posting phases call this, so the table needs no lock. *)
let kind_name db basic =
  match Hashtbl.find_opt db.engine.kind_names basic with
  | Some s -> s
  | None ->
    let s = Format.asprintf "%a" Symbol.pp_basic_key (Symbol.basic_key basic) in
    Hashtbl.add db.engine.kind_names basic s;
    s

(* Database-scope activations only — object scope reads the maintained
   [o_n_active] counter instead of folding the activation table. *)
let count_active triggers =
  Hashtbl.fold (fun _ at n -> if at.at_active then n + 1 else n) triggers 0

(* ------------------------------------------------------------------ *)
(* Test seam                                                           *)
(* ------------------------------------------------------------------ *)

(* The compiled kernel below is the only production classify/step path.
   The equivalence tests install an independent reference stepper here,
   per database, and run the same workload through both. *)
let set_stepper db stepper = db.engine.stepper <- stepper

(* The scratch buffer, built on first kernel post. *)
let ensure_scratch db =
  match db.engine.scratch with
  | Some sc -> sc
  | None ->
    let sc = Store.make_scratch db in
    db.engine.scratch <- Some sc;
    sc

(* Retire a scratch's accumulated counter bumps to the registry: one
   atomic add per counter per post or batch instead of one per
   candidate. *)
let flush_scratch_counters obs sc =
  if sc.sc_classified <> 0 then begin
    Registry.add obs Registry.Classified sc.sc_classified;
    sc.sc_classified <- 0
  end;
  if sc.sc_skipped <> 0 then begin
    Registry.add obs Registry.Index_skipped sc.sc_skipped;
    sc.sc_skipped <- 0
  end;
  if sc.sc_transitions <> 0 then begin
    Registry.add obs Registry.Transitions sc.sc_transitions;
    sc.sc_transitions <- 0
  end;
  if sc.sc_slot_steps <> 0 then begin
    Registry.add obs Registry.Slot_transitions sc.sc_slot_steps;
    sc.sc_slot_steps <- 0
  end;
  if sc.sc_word_steps <> 0 then begin
    Registry.add obs Registry.Word_transitions sc.sc_word_steps;
    sc.sc_word_steps <- 0
  end

(* ------------------------------------------------------------------ *)
(* Database-scope candidate selection                                  *)
(* ------------------------------------------------------------------ *)

(* The active database-scope triggers whose alphabet can react to the
   posted basic, in declaration order (the [db_dispatch] index). *)
let db_candidate_triggers db (basic : Symbol.basic) =
  match Hashtbl.find_opt db.schema.db_dispatch (Symbol.basic_key basic) with
  | None -> []
  | Some defs ->
    List.filter_map
      (fun (d : trigger_def) ->
        match Hashtbl.find_opt db.engine.db_triggers d.t_name with
        | Some at when at.at_active -> Some at
        | Some _ | None -> None)
      defs

(* ------------------------------------------------------------------ *)
(* Firing notification: subscriptions                                  *)
(* ------------------------------------------------------------------ *)

(* The only notification surface. Every firing — object or database
   scope — flows through here to the subscribers in subscription
   order. *)
let notify_firing db (f : firing) =
  let obs = db.obs in
  if Registry.enabled obs then begin
    Registry.incr obs Registry.Firings;
    Registry.span obs
      (Trace.Fired
         {
           scope = (if f.f_class = "<database>" then Trace.Db else Trace.Obj f.f_oid);
           trigger = f.f_trigger;
           txn = f.f_txn;
           at_ms = f.f_at;
         })
  end;
  List.iter (fun s -> if s.s_active then s.s_fn f) db.engine.subscribers

let subscribe_firings db fn =
  let s = { s_id = db.engine.next_sub_id; s_fn = fn; s_active = true } in
  db.engine.next_sub_id <- s.s_id + 1;
  db.engine.subscribers <- db.engine.subscribers @ [ s ];
  s

let unsubscribe db s =
  s.s_active <- false;
  db.engine.subscribers <-
    List.filter (fun x -> not (x == s)) db.engine.subscribers

(* ------------------------------------------------------------------ *)
(* The three pipeline phases                                           *)
(* ------------------------------------------------------------------ *)

(* §5 observes that detection state is one integer per active trigger
   per object, so the pipeline factors into:

     1. {e classify} — map the occurrence to a symbol of each candidate's
        alphabet, once per distinct shared detector. Read-only (guard
        masks may be evaluated; detection state is never touched).
     2. {e step} — advance each candidate activation's automaton and
        collect §9 bindings. Independent per activation.
     3. {e fire} — deactivate one-shots and run fired actions, strictly
        sequential, in batch then declaration order.

   [post] runs all three inline on one occurrence; [post_many] runs
   phases 1+2 over the whole batch, then phase 3 once; the compiled
   kernel below implements phases 1+2 for object scope. *)

let mask_error at msg =
  if at.at_def.t_class = "<database>" then
    ode_error "database trigger %s: mask evaluation failed: %s"
      at.at_def.t_name msg
  else
    ode_error "trigger %s.%s: mask evaluation failed: %s" at.at_def.t_class
      at.at_def.t_name msg

(* ------------------------------------------------------------------ *)
(* The compiled posting kernel                                         *)
(* ------------------------------------------------------------------ *)

(* The per-event path with everything hoisted to registration or
   activation time: candidate resolution is one hashtable probe into the
   class's prebuilt [krow]; classification runs once per distinct shared
   detector, producing a packed int code in the scratch's buffer;
   stepping a mask-free detector is one flat-table load on its SoA
   block. The helpers are top-level and tail-recursive (not closures)
   and the counters accumulate in the scratch, so a steady-state post
   that fires nothing allocates nothing beyond the occurrence and the
   dispatch key.

   Candidates are walked in declaration order. Every candidate is
   classified before any automaton steps: masks are required to be
   side-effect-free (§7), so the hoisting is unobservable, and a mask
   failure aborts the post before any state moved. An irrelevant
   occurrence provably changes neither the automaton state nor the
   collected bindings, so committed-mode undo snapshots are only taken
   for relevant ones. *)

let unclassified = min_int

let rec count_candidates (defs : trigger_def array)
    (o_acts : active_trigger option array) i acc =
  if i >= Array.length defs then acc
  else
    let acc =
      match o_acts.(defs.(i).t_index) with
      | Some at when at.at_active -> acc + 1
      | Some _ | None -> acc
    in
    count_candidates defs o_acts (i + 1) acc

(* Classification pass: walk candidates in declaration order, classify
   each distinct detector on first use. Mask failures are attributed to
   the first candidate using the detector. *)
let rec classify_pass sc (row : krow) (o_acts : active_trigger option array)
    occurrence i =
  if i < Array.length row.kr_defs then begin
    (match o_acts.(row.kr_defs.(i).t_index) with
    | Some at when at.at_active ->
      let j = row.kr_det_of.(i) in
      if sc.sc_codes.(j) = unclassified then
        sc.sc_codes.(j) <-
          (try Detector.classify_code row.kr_dets.(j) ~env:sc.sc_env occurrence
           with Mask.Eval_error msg -> mask_error at msg)
    | Some _ | None -> ());
    classify_pass sc row o_acts occurrence (i + 1)
  end

(* Step pass: advance each active candidate, accumulating the fired
   set in reverse (steady state: no cons). Committed-mode snapshots go
   to [undo], which the caller merges into the transaction log
   afterwards. *)
let rec step_pass db ~undo ~on sc (row : krow) obj occurrence i acc =
  if i >= Array.length row.kr_defs then List.rev acc
  else
    match obj.o_acts.(row.kr_defs.(i).t_index) with
    | Some at when at.at_active ->
      let j = row.kr_det_of.(i) in
      let det = row.kr_dets.(j) in
      let code = sc.sc_codes.(j) in
      let relevant = Detector.code_relevant code in
      let old_top = if on then at_top_state at else 0 in
      let fired_now =
        try
          if relevant && det.Detector.mode = Detector.Committed then begin
            undo := U_trigger_state (at, at_state_copy at) :: !undo;
            undo := U_trigger_collected (at, at.at_collected) :: !undo
          end;
          if relevant then
            (match Detector.collect_code det code occurrence with
            | [] -> ()
            | bindings ->
              List.iter
                (fun (name, v) ->
                  at.at_collected <-
                    (name, v) :: List.remove_assoc name at.at_collected)
                bindings);
          (match at.at_provenance with
          | Some prov ->
            at.at_last_witnesses <-
              Ode_event.Provenance.post prov ~env:sc.sc_env occurrence
          | None -> ());
          match at.at_state with
          | S_slot (blk, slot) ->
            Detector.post_code_slot det blk.blk_state (slot * blk.blk_words)
              ~env:sc.sc_env code
          | S_words w -> Detector.post_code det w ~env:sc.sc_env code
        with Mask.Eval_error msg -> mask_error at msg
      in
      if on && relevant then begin
        sc.sc_transitions <- sc.sc_transitions + 1;
        (match at.at_state with
        | S_slot _ -> sc.sc_slot_steps <- sc.sc_slot_steps + 1
        | S_words _ -> sc.sc_word_steps <- sc.sc_word_steps + 1);
        Registry.span db.obs
          (Trace.Advanced
             { scope = Trace.Obj obj.o_id; trigger = at.at_def.t_name;
               old_state = old_top; new_state = at_top_state at })
      end;
      step_pass db ~undo ~on sc row obj occurrence (i + 1)
        (if fired_now then at :: acc else acc)
    | Some _ | None ->
      step_pass db ~undo ~on sc row obj occurrence (i + 1) acc

(* One occurrence through the kernel. Returns the fired activations in
   declaration order; committed-mode undo snapshots go to [undo];
   counter bumps accumulate in [sc] for the caller to flush once per
   phase. *)
let kernel_post_one db ~undo ~on sc obj (occurrence : Symbol.occurrence) =
  match
    Hashtbl.find_opt obj.o_class.k_rows (Symbol.basic_key occurrence.basic)
  with
  | None ->
    if on then sc.sc_skipped <- sc.sc_skipped + obj.o_n_active;
    []
  | Some row ->
    (* dispatch accounting first — complete before a mask can blow up
       mid-classification *)
    let n_cand = count_candidates row.kr_defs obj.o_acts 0 0 in
    if on then begin
      sc.sc_classified <- sc.sc_classified + n_cand;
      sc.sc_skipped <- sc.sc_skipped + (obj.o_n_active - n_cand)
    end;
    if n_cand = 0 then []
    else begin
      let n_dets = Array.length row.kr_dets in
      if Array.length sc.sc_codes < n_dets then
        sc.sc_codes <- Array.make (max 16 (2 * n_dets)) unclassified
      else Array.fill sc.sc_codes 0 n_dets unclassified;
      (* the ref retains the last posted object until the next post —
         deliberate: re-wrapping per call is the only allocation this
         assignment costs, and clearing it afterwards would need a
         protect closure *)
      sc.sc_obj := Some obj;
      classify_pass sc row obj.o_acts occurrence 0;
      step_pass db ~undo ~on sc row obj occurrence 0 []
    end

(* ------------------------------------------------------------------ *)
(* The firing pipeline                                                 *)
(* ------------------------------------------------------------------ *)

let log_firing db tx (at : active_trigger) obj =
  notify_firing db
    {
      f_trigger = at.at_def.t_name;
      f_class = at.at_def.t_class;
      f_oid = obj.o_id;
      f_at = db.wheel.clock_ms;
      f_txn = tx.tx_id;
    }

(* Run one fired action. The span is emitted whenever observability is
   on; the clock is only read — and the histogram only fed — when
   timing has a consumer ([Registry.timing]), so an enabled registry
   without a sink costs no clock reads here. *)
let run_action db (at : active_trigger) ~scope ctx =
  let obs = db.obs in
  if not (Registry.enabled obs) then at.at_def.t_action db ctx
  else if Registry.timing obs then begin
    let t0 = Registry.now_ns () in
    at.at_def.t_action db ctx;
    let ns = Registry.now_ns () - t0 in
    Registry.record_ns obs Registry.Action ns;
    Registry.span obs
      (Trace.Action_ran { scope; trigger = at.at_def.t_name; ns })
  end
  else begin
    at.at_def.t_action db ctx;
    Registry.span obs
      (Trace.Action_ran { scope; trigger = at.at_def.t_name; ns = 0 })
  end

(* Phase 2 of the pipeline: deactivate one-shot triggers, log and run the
   actions of the set that fired. *)
let post_fired db tx obj occurrence fired =
  List.iter
    (fun at ->
      if not at.at_def.t_perpetual then begin
        if at.at_def.t_detector.Detector.mode = Detector.Committed then
          tx.tx_undo <- U_trigger_active (Some obj, at, at.at_active) :: tx.tx_undo;
        set_trigger_active (Some obj) at false
      end;
      log_firing db tx at obj;
      run_action db at ~scope:(Trace.Obj obj.o_id)
        {
          fc_oid = obj.o_id;
          fc_params = at.at_params;
          fc_occurrence = occurrence;
          fc_collected = at.at_collected;
          fc_witnesses =
            (if at.at_def.t_witnesses then Some at.at_last_witnesses else None);
        })
    fired;
  fired <> []

(* End a step phase: merge its undo snapshots — even when a mask blew up
   mid-walk, so an abort still restores the already-stepped
   committed-mode candidates — and flush its counters. *)
let retire_step tx undo ~on obs sc =
  if !undo <> [] then tx.tx_undo <- !undo @ tx.tx_undo;
  if on then flush_scratch_counters obs sc

(* The §5 monitoring pipeline: advance the automaton of every active
   trigger the occurrence can concern (per the dispatch index), collect
   the set that fired, then execute their actions (order unspecified in
   the paper; we use declaration order). Returns whether anything
   fired. *)
let post db tx obj (basic : Symbol.basic) args =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
  Store.record_history db tx obj occurrence;
  if on then begin
    Registry.incr obs Registry.Posts;
    Registry.incr_kind obs (kind_name db basic);
    Registry.span obs
      (Trace.Posted
         { scope = Trace.Obj obj.o_id; basic = kind_name db basic; txn = tx.tx_id;
           at_ms = occurrence.Symbol.at })
  end;
  let sc = ensure_scratch db in
  let undo = ref [] in
  let fired =
    match
      match db.engine.stepper with
      | None -> kernel_post_one db ~undo ~on sc obj occurrence
      | Some step -> (step db ~undo [| (obj, occurrence) |]).(0)
    with
    | fired ->
      retire_step tx undo ~on obs sc;
      fired
    | exception e ->
      retire_step tx undo ~on obs sc;
      raise e
  in
  let result = post_fired db tx obj occurrence fired in
  if timed then Registry.record_ns obs Registry.Post (Registry.now_ns () - t0);
  result

(* Classify the occurrence at most once per distinct compiled detector:
   triggers declaring the same event share a detector (Detector.make
   ~share) and reuse the cached packed code; a mask failure is
   attributed to the first candidate using the detector. The cache is
   per occurrence; a short assoc list on physical identity beats
   hashing for the handful of candidates a post touches, and the cap
   keeps a post touching many {e distinct} detectors linear. *)
let classify_cache_cap = 16

let classify_code_cached cache detector ~env occurrence =
  let rec find n = function
    | [] -> Error n
    | (d, c) :: rest -> if d == detector then Ok c else find (n + 1) rest
  in
  match find 0 !cache with
  | Ok c -> c
  | Error n ->
    let c = Detector.classify_code detector ~env occurrence in
    if n < classify_cache_cap then cache := (detector, c) :: !cache;
    c

(* Step one database-scope activation from its packed code. Database
   triggers are always Full_history mode, so no undo snapshots are ever
   due; the probes match the kernel's. *)
let step_db_code db (at : active_trigger) ~env code occurrence =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let det = at.at_def.t_detector in
  try
    let relevant = Detector.code_relevant code in
    if relevant then
      (match Detector.collect_code det code occurrence with
      | [] -> ()
      | bindings ->
        List.iter
          (fun (name, v) ->
            at.at_collected <-
              (name, v) :: List.remove_assoc name at.at_collected)
          bindings);
    (match at.at_provenance with
    | Some prov ->
      at.at_last_witnesses <- Ode_event.Provenance.post prov ~env occurrence
    | None -> ());
    let old_top = if on then at_top_state at else 0 in
    let r =
      match at.at_state with
      | S_words w -> Detector.post_code det w ~env code
      | S_slot (blk, slot) ->
        Detector.post_code_slot det blk.blk_state (slot * blk.blk_words) ~env
          code
    in
    if on && relevant then begin
      Registry.incr obs Registry.Transitions;
      Registry.incr obs
        (match at.at_state with
        | S_slot _ -> Registry.Slot_transitions
        | S_words _ -> Registry.Word_transitions);
      Registry.span obs
        (Trace.Advanced
           { scope = Trace.Db; trigger = at.at_def.t_name;
             old_state = old_top; new_state = at_top_state at })
    end;
    r
  with Mask.Eval_error msg -> mask_error at msg

let post_db db (basic : Symbol.basic) args =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let txn_id = match db.txns.current with Some tx -> tx.tx_id | None -> 0 in
  if on then begin
    Registry.incr obs Registry.Db_posts;
    Registry.incr_kind obs (kind_name db basic);
    Registry.span obs
      (Trace.Posted
         { scope = Trace.Db; basic = kind_name db basic; txn = txn_id;
           at_ms = db.wheel.clock_ms })
  end;
  let candidates = db_candidate_triggers db basic in
  if on then begin
    let n = List.length candidates in
    Registry.add obs Registry.Classified n;
    Registry.add obs Registry.Index_skipped
      (max 0 (count_active db.engine.db_triggers - n))
  end;
  match candidates with
  | [] -> ()
  | candidates ->
    let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
    let affected = match args with Value.Oid o :: _ -> o | _ -> 0 in
    (* One packed int code per distinct detector; every candidate is
       classified before any steps, as in the kernel. *)
    let env = Store.db_mask_env db in
    let cache = ref [] in
    let coded =
      List.map
        (fun (at : active_trigger) ->
          let code =
            try classify_code_cached cache at.at_def.t_detector ~env occurrence
            with Mask.Eval_error msg -> mask_error at msg
          in
          (at, code))
        candidates
    in
    let fired =
      List.filter_map
        (fun (at, code) ->
          if step_db_code db at ~env code occurrence then Some at else None)
        coded
    in
    List.iter
      (fun at ->
        if not at.at_def.t_perpetual then set_trigger_active None at false;
        notify_firing db
          {
            f_trigger = at.at_def.t_name;
            f_class = "<database>";
            f_oid = affected;
            f_at = db.wheel.clock_ms;
            f_txn = txn_id;
          };
        run_action db at ~scope:Trace.Db
          {
            fc_oid = affected;
            fc_params = at.at_params;
            fc_occurrence = occurrence;
            fc_collected = at.at_collected;
            fc_witnesses =
              (if at.at_def.t_witnesses then Some at.at_last_witnesses else None);
          })
      fired

(* ------------------------------------------------------------------ *)
(* Database-scope trigger activation (§3)                              *)
(* ------------------------------------------------------------------ *)

let activate_db_trigger db name params =
  match Schema.find_db_trigger db name with
  | None -> ode_error "no database trigger %s" name
  | Some def -> (
    match Hashtbl.find_opt db.engine.db_triggers name with
    | Some at ->
      (* database-scope activations always own their word vector — the
         SoA blocks belong to a heap, and the database scope has none *)
      at.at_state <- S_words (Detector.initial def.t_detector);
      at.at_collected <- [];
      at.at_provenance <-
        (if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event)
         else None);
      at.at_last_witnesses <- [];
      at.at_active <- true;
      at.at_epoch <- at.at_epoch + 1;
      at.at_params <- params
    | None ->
      Hashtbl.add db.engine.db_triggers name
        {
          at_def = def;
          at_params = params;
          at_state = S_words (Detector.initial def.t_detector);
          at_collected = [];
          at_provenance =
            (if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event)
             else None);
          at_last_witnesses = [];
          at_active = true;
          at_epoch = 0;
        })

let deactivate_db_trigger db name =
  match Hashtbl.find_opt db.engine.db_triggers name with
  | Some at -> at.at_active <- false
  | None -> ()

(* Class registration announces itself on the database scope. *)
let register_class db b =
  Schema.register_class db b;
  post_db db
    (Symbol.Method (After, "defclass"))
    [ Value.String (Schema.builder_name b) ]

(* ------------------------------------------------------------------ *)
(* System transactions                                                 *)
(* ------------------------------------------------------------------ *)

(* Post a transaction event to every object the finished transaction
   accessed, inside a fresh system transaction (§5: commit/abort events
   belong to no user transaction). A [Tabort] raised by an action there
   aborts only the system transaction. Runs inside the commit's or
   abort's operation, which already holds the fan-out targets [oids] in
   its redo footprint (they are the finished transaction's accessed
   set); the system transaction adds what it touched — [Txn.abort] does
   that on the failure paths. *)
let system_post db oids basic =
  let sys = Txn.begin_system db in
  let saved_current = db.txns.current in
  db.txns.current <- Some sys;
  let finish () =
    db.txns.current <- saved_current;
    (* [Txn.detach] would reset current; restore by hand afterwards *)
    db.txns.open_txns <- List.filter (fun t -> not (t == sys)) db.txns.open_txns
  in
  match
    List.iter
      (fun oid ->
        match Store.live_obj_opt db oid with
        | Some obj -> ignore (post db sys obj basic [])
        | None -> ())
      oids
  with
  | () ->
    sys.tx_status <- Committed;
    Txn.release_locks db sys;
    finish ();
    note_txn db sys
  | exception Tabort ->
    Txn.abort db sys;
    finish ()
  | exception e ->
    Txn.abort db sys;
    finish ();
    raise e

(* Deliver one time-event occurrence to an object, inside a system
   transaction so fired actions can mutate objects transactionally.
   Runs inside [Timewheel.advance_to]'s operation: the target (whose
   automaton advanced without an access) and the system transaction's
   footprint join the advance's one redo batch. Like [system_post], any
   other exception aborts the system transaction and restores the
   caller's before it propagates. *)
let deliver_time_event db oid spec =
  match Store.live_obj_opt db oid with
  | Some obj ->
    let sys = Txn.begin_system db in
    let saved = db.txns.current in
    db.txns.current <- Some sys;
    let finish () =
      db.txns.open_txns <- List.filter (fun t -> not (t == sys)) db.txns.open_txns;
      db.txns.current <- saved;
      if db.durability.dur_redo then note_oid db oid
    in
    (match ignore (post db sys obj (Symbol.Time spec) []) with
    | () ->
      sys.tx_status <- Committed;
      Txn.release_locks db sys;
      note_txn db sys
    | exception Tabort -> Txn.abort db sys
    | exception e ->
      Txn.abort db sys;
      finish ();
      raise e);
    finish ()
  | None -> ()

(* Wire the upward calls: Txn's commit/abort and Timewheel's delivery
   post through the pipeline defined above. *)
let () =
  Txn.set_post_hook post;
  Txn.set_system_post_hook system_post;
  Timewheel.set_deliver_hook deliver_time_event

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

(* Lazy [after tbegin]: posted to an object immediately before the
   transaction's first access to it (§3.1(4)). *)
(* First-touch test via the [tx_seen] hash mirror: O(1) per access where
   the old [List.mem tx.tx_accessed] walk made a transaction touching n
   objects quadratic. [tx_accessed] itself is kept (and stays the only
   ordered record) for the commit fixpoint, lock release and the
   transaction-event fan-outs, which all need deterministic first-access
   order. *)
let touch db tx obj =
  if not (Hashtbl.mem tx.tx_seen obj.o_id) then begin
    Hashtbl.add tx.tx_seen obj.o_id ();
    tx.tx_accessed <- obj.o_id :: tx.tx_accessed;
    if not tx.tx_system then ignore (post db tx obj Symbol.Tbegin [])
  end

(* ------------------------------------------------------------------ *)
(* Batch posting                                                       *)
(* ------------------------------------------------------------------ *)

(* Post a batch of basic events in one sweep of the three-phase
   pipeline, every phase sequential in {e batch order}.

   Batch semantics: every event in the batch is classified and stepped
   against the detection state {e as of the start of the batch's step
   phase}; fired actions all run after the whole batch has stepped.
   Events addressed to the same object step in batch order. Dead or
   missing oids are skipped, like [system_post]. Returns the number of
   firings. *)
let post_many_nonempty db items =
  let tx = Txn.require_txn db in
  let obs = db.obs in
  let on = Registry.enabled obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let sc = ensure_scratch db in
  (* Phase 0: resolve targets, first-touch [after tbegin], write locks,
     §9 history, Posted probes. *)
  let resolved =
    List.filter_map
      (fun (oid, basic, args) ->
        match Store.live_obj_opt db oid with
        | None -> None
        | Some obj ->
          touch db tx obj;
          (* a transaction re-posting to an object it already holds
             exclusively skips the acquire round-trip *)
          (match obj.o_lock with
          | Lock.Exclusive holder when holder = tx.tx_id -> ()
          | Lock.Free | Lock.Shared _ | Lock.Exclusive _ ->
            Txn.acquire db tx obj Lock.Write);
          let occurrence = { Symbol.basic; args; at = db.wheel.clock_ms } in
          Store.record_history db tx obj occurrence;
          if on then begin
            Registry.incr obs Registry.Posts;
            Registry.incr_kind obs (kind_name db basic);
            Registry.span obs
              (Trace.Posted
                 { scope = Trace.Obj obj.o_id; basic = kind_name db basic;
                   txn = tx.tx_id; at_ms = occurrence.Symbol.at })
          end;
          Some (obj, occurrence))
      items
  in
  let resolved = Array.of_list resolved in
  let n = Array.length resolved in
  (* Phases 1+2: fired sets land in a per-item slot, committed-mode undo
     snapshots in one list. [Fun.protect] merges the snapshots even when
     a mask blows up mid-batch, so an abort restores every automaton
     that already stepped. *)
  let undo = ref [] in
  let fired =
    Fun.protect
      ~finally:(fun () -> retire_step tx undo ~on obs sc)
      (fun () ->
        match db.engine.stepper with
        | Some step -> step db ~undo resolved
        | None ->
          let fired = Array.make n [] in
          for i = 0 to n - 1 do
            let obj, occurrence = resolved.(i) in
            fired.(i) <- kernel_post_one db ~undo ~on sc obj occurrence
          done;
          fired)
  in
  (* Phase 3: firing, batch order, declaration order within one event. *)
  let count = ref 0 in
  for i = 0 to n - 1 do
    match fired.(i) with
    | [] -> ()
    | ats ->
      let obj, occurrence = resolved.(i) in
      count := !count + List.length ats;
      ignore (post_fired db tx obj occurrence ats)
  done;
  if timed then Registry.record_ns obs Registry.Post (Registry.now_ns () - t0);
  !count

(* An empty batch is a true no-op past the open-transaction check: no
   scratch, no probes — and, for callers batching
   at a durability boundary, nothing marks the transaction dirty, so a
   barrier-only wire flush emits no WAL record. *)
let post_many db items =
  if items = [] then begin
    ignore (Txn.require_txn db);
    0
  end
  else post_many_nonempty db items

let create db cname args =
  let tx = Txn.require_txn db in
  let k =
    match Schema.find_class db cname with
    | Some k -> k
    | None -> ode_error "no such class %s" cname
  in
  let oid = Store.alloc_oid db in
  let obj = Store.new_obj k oid in
  Store.add_obj db obj;
  tx.tx_undo <- U_create obj :: tx.tx_undo;
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  (match k.k_constructor with None -> () | Some body -> body db oid args);
  ignore (post db tx obj Symbol.Create args);
  post_db db Symbol.Create [ Value.Oid oid; Value.String cname ];
  oid

let delete db oid =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  ignore (post db tx obj Symbol.Delete []);
  post_db db Symbol.Delete [ Value.Oid oid; Value.String obj.o_class.k_name ];
  Store.mark_deleted db obj;
  tx.tx_undo <- U_delete obj :: tx.tx_undo;
  (* eager cancellation: a deleted object's timers leave the queue now,
     not at their due instant (the [timer_alive] check stays as the
     delivery-time backstop for e.g. firing-path auto-deactivation) *)
  (match Timewheel.cancel_object db oid with
  | [] -> ()
  | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo)

let set_field db oid name v =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  touch db tx obj;
  Txn.acquire db tx obj Lock.Write;
  match Hashtbl.find_opt obj.o_fields name with
  | None -> ode_error "class %s has no field %s" obj.o_class.k_name name
  | Some prev ->
    tx.tx_undo <- U_field (obj, name, prev) :: tx.tx_undo;
    Hashtbl.replace obj.o_fields name v

let call db oid mname args =
  let obs = db.obs in
  let timed = Registry.timing obs in
  let t0 = if timed then Registry.now_ns () else 0 in
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  let meth =
    match Hashtbl.find_opt obj.o_class.k_methods mname with
    | Some m -> m
    | None -> ode_error "class %s has no method %s" obj.o_class.k_name mname
  in
  (match meth.m_arity with
  | Some a when a <> List.length args ->
    ode_error "%s.%s expects %d arguments, got %d" obj.o_class.k_name mname a
      (List.length args)
  | Some _ | None -> ());
  touch db tx obj;
  let request, rw_event =
    match meth.m_kind with
    | Read_only -> (Lock.Read, fun q -> Symbol.Read q)
    | Updating -> (Lock.Write, fun q -> Symbol.Update q)
  in
  Txn.acquire db tx obj request;
  ignore (post db tx obj (Symbol.Access Before) []);
  ignore (post db tx obj (rw_event Symbol.Before) []);
  ignore (post db tx obj (Symbol.Method (Before, mname)) args);
  let result = meth.m_impl db oid args in
  ignore (post db tx obj (Symbol.Method (After, mname)) args);
  ignore (post db tx obj (rw_event Symbol.After) []);
  ignore (post db tx obj (Symbol.Access After) []);
  if timed then Registry.record_ns obs Registry.Call (Registry.now_ns () - t0);
  result

let has_method db oid mname =
  let obj = Store.live_obj db oid in
  Hashtbl.mem obj.o_class.k_methods mname

let apply_fun db name args =
  match Schema.find_fun db name with
  | Some f -> f db args
  | None -> ode_error "unknown database function %s" name

(* ------------------------------------------------------------------ *)
(* Trigger activation                                                  *)
(* ------------------------------------------------------------------ *)

let activate db oid tname params =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  let def =
    match Hashtbl.find_opt obj.o_class.k_triggers tname with
    | Some d -> d
    | None -> ode_error "class %s has no trigger %s" obj.o_class.k_name tname
  in
  (* durable state changes below, but activation is not an object
     access (no [after tbegin], no event fan-out membership) — record
     the oid for the redo-batch footprint only *)
  tx.tx_dirty <- oid :: tx.tx_dirty;
  (match Hashtbl.find_opt obj.o_triggers tname with
  | Some at ->
    (* Re-activation re-arms the trigger: fresh automaton state, in
       place — an SoA slot keeps its slot, a word vector is replaced. *)
    tx.tx_undo <-
      U_trigger_state (at, at_state_copy at)
      :: U_trigger_active (Some obj, at, at.at_active)
      :: tx.tx_undo;
    at_state_reset at;
    at.at_collected <- [];
    at.at_provenance <-
      (if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event) else None);
    at.at_last_witnesses <- [];
    set_trigger_active (Some obj) at true;
    at.at_epoch <- at.at_epoch + 1;
    (* the epoch bump orphans the previous incarnation's timers: cancel
       them now instead of letting them ride to their due instant *)
    (match Timewheel.cancel_trigger db oid tname with
    | [] -> ()
    | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo);
    at.at_params <- params;
    (match Timewheel.schedule_trigger_timers db obj at with
    | [] -> ()
    | armed -> tx.tx_undo <- U_timers_armed armed :: tx.tx_undo)
  | None ->
    let at =
      {
        at_def = def;
        at_params = params;
        at_state = Store.fresh_at_state db def.t_detector;
        at_collected = [];
        at_provenance =
          (if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event)
           else None);
        at_last_witnesses = [];
        at_active = true;
        at_epoch = 0;
      }
    in
    obj.o_n_active <- obj.o_n_active + 1;
    Hashtbl.add obj.o_triggers tname at;
    if def.t_index >= 0 then obj.o_acts.(def.t_index) <- Some at;
    tx.tx_undo <- U_trigger_added (obj, tname) :: tx.tx_undo;
    match Timewheel.schedule_trigger_timers db obj at with
    | [] -> ()
    | armed -> tx.tx_undo <- U_timers_armed armed :: tx.tx_undo);
  ()

let deactivate db oid tname =
  let tx = Txn.require_txn db in
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | None -> ()
  | Some at ->
    tx.tx_dirty <- oid :: tx.tx_dirty;
    tx.tx_undo <- U_trigger_active (Some obj, at, at.at_active) :: tx.tx_undo;
    set_trigger_active (Some obj) at false;
    (* eager cancellation: the deactivated trigger's pending timers
       leave the queue now (undo re-inserts them, seqs intact) *)
    (match Timewheel.cancel_trigger db oid tname with
    | [] -> ()
    | cancelled -> tx.tx_undo <- U_timers_cancelled cancelled :: tx.tx_undo)

let is_active db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at.at_active
  | None -> false

let trigger_state_words db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at_state_len at
  | None -> ode_error "trigger %s not activated on @%d" tname oid

let trigger_state db oid tname =
  let obj = Store.live_obj db oid in
  match Hashtbl.find_opt obj.o_triggers tname with
  | Some at -> at_state_copy at
  | None -> ode_error "trigger %s not activated on @%d" tname oid
