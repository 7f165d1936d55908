module Value = Ode_base.Value
module Mask = Ode_event.Mask
open Types

(* ------------------------------------------------------------------ *)
(* Heap operations on the database                                     *)
(* ------------------------------------------------------------------ *)

let alloc_oid db =
  let oid = db.store.next_oid in
  db.store.next_oid <- oid + 1;
  oid

let new_obj k oid =
  let obj =
    {
      o_id = oid;
      o_class = k;
      o_fields = Hashtbl.create 8;
      o_triggers = Hashtbl.create 4;
      o_acts = Array.make k.k_n_triggers None;
      o_n_active = 0;
      o_deleted = false;
      o_lock = Lock.Free;
      o_history = [];
      o_history_len = 0;
    }
  in
  List.iter (fun (name, v) -> Hashtbl.replace obj.o_fields name v) k.k_fields;
  obj

(* ------------------------------------------------------------------ *)
(* Structure-of-arrays detection-state blocks                          *)
(* ------------------------------------------------------------------ *)

(* Activations of flat-table detectors on heap objects keep their
   automaton state vector — one word per level, one word total for
   mask-free expressions — in a block shared by all activations of the
   same detector — the paper's "one integer per active trigger per
   object", laid out so [post_many]'s step loop sweeps a contiguous int
   array. Slots are allocated at activation and released at undo and
   object removal. *)

let soa_slot db (det : Ode_event.Detector.t) =
  let tbl = db.store.soa in
  let w = Ode_event.Detector.n_state_words det in
  let blk =
    match Hashtbl.find_opt tbl det.uid with
    | Some b -> b
    | None ->
      let b =
        { blk_words = w; blk_state = Array.make (16 * w) 0; blk_n = 0;
          blk_free = [] }
      in
      Hashtbl.add tbl det.uid b;
      b
  in
  let slot =
    match blk.blk_free with
    | s :: rest ->
      blk.blk_free <- rest;
      s
    | [] ->
      let s = blk.blk_n in
      blk.blk_n <- s + 1;
      if (s + 1) * w > Array.length blk.blk_state then begin
        let grown = Array.make (2 * Array.length blk.blk_state) 0 in
        Array.blit blk.blk_state 0 grown 0 (Array.length blk.blk_state);
        blk.blk_state <- grown
      end;
      s
  in
  Ode_event.Detector.write_initial det blk.blk_state (slot * w);
  S_slot (blk, slot)

(* Fresh detection state for an activation of [det]:
   packed into the heap's SoA block when the detector qualifies, a
   private word vector otherwise. *)
let fresh_at_state db (det : Ode_event.Detector.t) =
  if Ode_event.Detector.has_flat det then soa_slot db det
  else S_words (Ode_event.Detector.initial det)

let free_at_state at =
  match at.at_state with
  | S_words _ -> ()
  | S_slot (blk, slot) -> blk.blk_free <- slot :: blk.blk_free

let free_obj_slots obj = Hashtbl.iter (fun _ at -> free_at_state at) obj.o_triggers

(* The live-object count is maintained at the four mutation points
   (add, remove, delete-mark, undelete-mark) so [stats] and [cardinal
   ~live:true] are O(1) instead of a heap scan. *)
let add_obj db obj =
  Hashtbl.add db.store.heap obj.o_id obj;
  if not obj.o_deleted then db.store.n_live <- db.store.n_live + 1

let remove_obj db oid =
  match Hashtbl.find_opt db.store.heap oid with
  | None -> ()
  | Some o ->
    if not o.o_deleted then db.store.n_live <- db.store.n_live - 1;
    free_obj_slots o;
    Hashtbl.remove db.store.heap oid

let mark_deleted db obj =
  if not obj.o_deleted then begin
    obj.o_deleted <- true;
    db.store.n_live <- db.store.n_live - 1
  end

let unmark_deleted db obj =
  if obj.o_deleted then begin
    obj.o_deleted <- false;
    db.store.n_live <- db.store.n_live + 1
  end

let reset_heap db =
  Hashtbl.reset db.store.heap;
  Hashtbl.reset db.store.soa;
  db.store.n_live <- 0

let find_obj db oid = Hashtbl.find_opt db.store.heap oid
let mem db oid = Hashtbl.mem db.store.heap oid

let cardinal ?(live = false) db =
  if live then db.store.n_live else Hashtbl.length db.store.heap

let live_obj db oid =
  match find_obj db oid with
  | Some o when not o.o_deleted -> o
  | Some _ -> ode_error "object @%d has been deleted" oid
  | None -> ode_error "no such object @%d" oid

let live_obj_opt db oid =
  match find_obj db oid with
  | Some o when not o.o_deleted -> Some o
  | Some _ | None -> None

let exists db oid =
  match find_obj db oid with Some o -> not o.o_deleted | None -> false

let class_of db oid = (live_obj db oid).o_class.k_name

let fold_objects f db init =
  Hashtbl.fold (fun _ o acc -> f o acc) db.store.heap init

let iter_objects f db = Hashtbl.iter (fun _ o -> f o) db.store.heap

(* Enumeration contract: ascending oid. Folding a hashtable enumerates
   in hash order, which must never leak — commit/abort fan-out and
   persist snapshots would otherwise depend on the table's history. *)
let objects db =
  fold_objects (fun o acc -> if o.o_deleted then acc else o.o_id :: acc) db []
  |> List.sort compare

let objects_of_class db cname =
  fold_objects
    (fun o acc ->
      if (not o.o_deleted) && o.o_class.k_name = cname then o.o_id :: acc
      else acc)
    db []
  |> List.sort compare

let live_objects db =
  fold_objects (fun o acc -> if o.o_deleted then acc else o :: acc) db []
  |> List.sort (fun a b -> compare a.o_id b.o_id)

let get_field db oid name =
  let obj = live_obj db oid in
  match Hashtbl.find_opt obj.o_fields name with
  | Some v -> v
  | None -> ode_error "class %s has no field %s" obj.o_class.k_name name

(* ------------------------------------------------------------------ *)
(* Mask-evaluation environments                                        *)
(* ------------------------------------------------------------------ *)

let mask_env db obj : Mask.env =
  {
    var = (fun name -> Hashtbl.find_opt obj.o_fields name);
    deref =
      (fun oid fieldname ->
        match live_obj_opt db oid with
        | Some o -> Hashtbl.find_opt o.o_fields fieldname
        | None -> None);
    call =
      (fun name args ->
        match Hashtbl.find_opt db.schema.functions name with
        | Some f -> f db args
        | None -> raise (Mask.Eval_error ("unknown database function " ^ name)));
  }

(* A reusable posting-kernel scratch: same bindings as {!mask_env}, but
   the object is indirected through a ref cell so one environment (and
   its three closures) serves every post instead of being rebuilt — and
   reallocated — per event. *)
let make_scratch db =
  let sc_obj = ref None in
  let sc_env : Mask.env =
    {
      var =
        (fun name ->
          match !sc_obj with
          | Some o -> Hashtbl.find_opt o.o_fields name
          | None -> None);
      deref =
        (fun oid fieldname ->
          match live_obj_opt db oid with
          | Some o -> Hashtbl.find_opt o.o_fields fieldname
          | None -> None);
      call =
        (fun name args ->
          match Hashtbl.find_opt db.schema.functions name with
          | Some f -> f db args
          | None -> raise (Mask.Eval_error ("unknown database function " ^ name)));
    }
  in
  { sc_obj; sc_env; sc_codes = Array.make 16 (-1); sc_classified = 0;
    sc_skipped = 0; sc_transitions = 0; sc_slot_steps = 0; sc_word_steps = 0 }

let db_mask_env db : Mask.env =
  {
    var = (fun _ -> None);
    deref =
      (fun oid fieldname ->
        match live_obj_opt db oid with
        | Some o -> Hashtbl.find_opt o.o_fields fieldname
        | None -> None);
    call =
      (fun name args ->
        match Hashtbl.find_opt db.schema.functions name with
        | Some f -> f db args
        | None -> raise (Mask.Eval_error ("unknown database function " ^ name)));
  }

(* ------------------------------------------------------------------ *)
(* Event histories (§9)                                                *)
(* ------------------------------------------------------------------ *)

let enable_history db ~limit =
  if limit < 0 then ode_error "history limit must be >= 0";
  db.store.history_limit <- limit

let record_history db tx obj occurrence =
  if db.store.history_limit > 0 then begin
    obj.o_history <-
      { History.h_occurrence = occurrence; h_txn = tx.tx_id } :: obj.o_history;
    obj.o_history_len <- obj.o_history_len + 1;
    if obj.o_history_len > 2 * db.store.history_limit then begin
      obj.o_history <- History.truncate db.store.history_limit obj.o_history;
      obj.o_history_len <- db.store.history_limit
    end
  end

let object_history db oid =
  let obj = live_obj db oid in
  List.rev (History.truncate db.store.history_limit obj.o_history)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  n_objects : int;
  n_classes : int;
  n_active_triggers : int;
  n_timers : int;
  state_bytes : int;
}

(* Approximate heap cost of one collected §9 binding: a list cell plus a
   pair (3 words) and the formal's name; the bound value itself is shared
   with the posting arguments and not charged here. *)
let binding_bytes bindings =
  List.fold_left (fun acc (name, _) -> acc + 24 + String.length name) 0 bindings

let activation_bytes at =
  (8 * at_state_len at) + binding_bytes at.at_collected

(* Flat estimate of one pending timer's heap cost: the record's seven
   fields plus headers and the spec payload — close enough for the
   state-accounting purpose ([stats.state_bytes] counts pending timers
   so a leak shows up as monotone growth, see store.mli). *)
let timer_bytes = 144

(* Shadow copies a committed-mode trigger keeps alive through an open
   transaction's undo log (the §6 "state is part of the object"
   option doubles the state while a transaction is in flight). *)
let undo_state_bytes db =
  List.fold_left
    (fun acc tx ->
      List.fold_left
        (fun acc entry ->
          match entry with
          | U_trigger_state (_, copy) -> acc + (8 * Array.length copy)
          | U_trigger_collected (_, bindings) -> acc + binding_bytes bindings
          | U_timers_cancelled tms | U_timers_armed tms ->
            acc + (timer_bytes * List.length tms)
          | U_field _ | U_create _ | U_delete _ | U_trigger_active _
          | U_trigger_added _ -> acc)
        acc tx.tx_undo)
    0 db.txns.open_txns

let stats db =
  let n_active = ref 0 in
  let state_bytes = ref 0 in
  iter_objects
    (fun obj ->
      if not obj.o_deleted then
        Hashtbl.iter
          (fun _ at ->
            if at.at_active then incr n_active;
            state_bytes := !state_bytes + activation_bytes at)
          obj.o_triggers)
    db;
  let n_timers = Types.timerq_count db.wheel in
  Hashtbl.iter
    (fun _ at -> state_bytes := !state_bytes + activation_bytes at)
    db.engine.db_triggers;
  {
    n_objects = cardinal ~live:true db;
    n_classes = Hashtbl.length db.schema.classes;
    n_active_triggers = !n_active;
    n_timers;
    state_bytes = !state_bytes + (timer_bytes * n_timers) + undo_state_bytes db;
  }
