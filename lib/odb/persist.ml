module Value = Ode_base.Value
module Codec = Ode_base.Codec
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector
open Types

let magic = "ODE1"

let write_time_spec w (spec : Symbol.time_spec) =
  let write_pattern (p : Symbol.time_pattern) =
    let opt v = Codec.write_option w Codec.write_int v in
    opt p.year; opt p.mon; opt p.day; opt p.hr; opt p.min; opt p.sec; opt p.ms
  in
  match spec with
  | At p ->
    Codec.write_int w 0;
    write_pattern p
  | Every ms ->
    Codec.write_int w 1;
    Codec.write_int w (Int64.to_int ms)
  | After_period ms ->
    Codec.write_int w 2;
    Codec.write_int w (Int64.to_int ms)

let read_time_spec r : Symbol.time_spec =
  let read_pattern () : Symbol.time_pattern =
    let opt () = Codec.read_option r Codec.read_int in
    let year = opt () in
    let mon = opt () in
    let day = opt () in
    let hr = opt () in
    let min = opt () in
    let sec = opt () in
    let ms = opt () in
    { year; mon; day; hr; min; sec; ms }
  in
  match Codec.read_int r with
  | 0 -> At (read_pattern ())
  | 1 -> Every (Int64.of_int (Codec.read_int r))
  | 2 -> After_period (Int64.of_int (Codec.read_int r))
  | t -> raise (Codec.Corrupt (Printf.sprintf "bad time spec tag %d" t))

(* ------------------------------------------------------------------ *)
(* Object and timer framing                                            *)
(*                                                                     *)
(* One writer/reader pair per entity, shared verbatim by the full      *)
(* image below and by [Wal]'s redo records — there is exactly one      *)
(* codec path, so a WAL snapshot and a [save] of the same state are    *)
(* bit-identical by construction.                                      *)
(* ------------------------------------------------------------------ *)

let write_obj w obj =
  Codec.write_int w obj.o_id;
  Codec.write_string w obj.o_class.k_name;
  Codec.write_list w
    (fun w (name, v) ->
      Codec.write_string w name;
      Codec.write_value w v)
    (Hashtbl.fold (fun name v acc -> (name, v) :: acc) obj.o_fields []
    |> List.sort compare);
  Codec.write_list w
    (fun w (name, (at : active_trigger)) ->
      Codec.write_string w name;
      Codec.write_list w Codec.write_value at.at_params;
      (* [at_state_copy] reads whichever representation the
         activation uses, so SoA-packed and word-vector states
         serialize to identical bytes *)
      Codec.write_array w Codec.write_int (at_state_copy at);
      Codec.write_list w
        (fun w (name, v) ->
          Codec.write_string w name;
          Codec.write_value w v)
        at.at_collected;
      Codec.write_bool w at.at_active;
      Codec.write_int w at.at_epoch)
    (Hashtbl.fold (fun name at acc -> (name, at) :: acc) obj.o_triggers []
    |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Schema-free parse of one serialized object — also what [odec
   wal-dump] decodes without a database at hand. *)
let read_obj_raw r =
  let oid = Codec.read_int r in
  let cname = Codec.read_string r in
  let fields =
    Codec.read_list r (fun r ->
        let name = Codec.read_string r in
        let v = Codec.read_value r in
        (name, v))
  in
  let triggers =
    Codec.read_list r (fun r ->
        let name = Codec.read_string r in
        let params = Codec.read_list r Codec.read_value in
        let state = Codec.read_array r Codec.read_int in
        let collected =
          Codec.read_list r (fun r ->
              let name = Codec.read_string r in
              let v = Codec.read_value r in
              (name, v))
        in
        let active = Codec.read_bool r in
        let epoch = Codec.read_int r in
        (name, params, state, collected, active, epoch))
  in
  (oid, cname, fields, triggers)

(* Materialize a parsed object into the heap: class re-resolved by
   name, activations rebuilt with fresh detection-state representations
   (SoA slot or word vector) then overwritten with the saved words. *)
let install_obj db (oid, cname, fields, triggers) =
  let k =
    match Schema.find_class db cname with
    | Some k -> k
    | None -> raise (Codec.Corrupt ("image references unregistered class " ^ cname))
  in
  let obj = Store.new_obj k oid in
  (* saved field values override the class defaults installed by
     [Store.new_obj] *)
  List.iter (fun (name, v) -> Hashtbl.replace obj.o_fields name v) fields;
  List.iter
    (fun (name, params, state, collected, active, epoch) ->
      match Hashtbl.find_opt k.k_triggers name with
      | None -> raise (Codec.Corrupt ("image references unknown trigger " ^ name))
      | Some def ->
        if Array.length state <> Detector.n_state_words def.t_detector then
          raise (Codec.Corrupt "trigger state size mismatch (schema changed?)");
        let at =
          {
            at_def = def;
            at_params = params;
            (* fresh representation (SoA slot or word vector), then
               overwrite with the saved words *)
            at_state = Store.fresh_at_state db def.t_detector;
            at_collected = collected;
            (* provenance instances are volatile: rebuilt empty after a
               load (documented in save) *)
            at_provenance =
              (if def.t_witnesses then Some (Ode_event.Provenance.make def.t_event)
               else None);
            at_last_witnesses = [];
            at_active = active;
            at_epoch = epoch;
          }
        in
        at_state_restore at state;
        if active then obj.o_n_active <- obj.o_n_active + 1;
        Hashtbl.add obj.o_triggers name at;
        if def.t_index >= 0 then obj.o_acts.(def.t_index) <- Some at)
    triggers;
  Store.add_obj db obj

let write_timer w (tm : timer) =
  Codec.write_int w (Int64.to_int tm.tm_due);
  (* the insertion stamp is part of the image: a reload restores the
     exact delivery order among equal-due timers *)
  Codec.write_int w tm.tm_seq;
  Codec.write_int w tm.tm_oid;
  Codec.write_string w tm.tm_trigger;
  Codec.write_int w tm.tm_epoch;
  write_time_spec w tm.tm_spec;
  Codec.write_int w (Int64.to_int tm.tm_anchor)

let read_timer r =
  let due = Int64.of_int (Codec.read_int r) in
  let seq = Codec.read_int r in
  let oid = Codec.read_int r in
  let tname = Codec.read_string r in
  let epoch = Codec.read_int r in
  let spec = read_time_spec r in
  let anchor = Int64.of_int (Codec.read_int r) in
  { tm_due = due; tm_seq = seq; tm_oid = oid; tm_trigger = tname;
    tm_epoch = epoch; tm_spec = spec; tm_anchor = anchor }

(* ------------------------------------------------------------------ *)
(* Full images                                                         *)
(* ------------------------------------------------------------------ *)

let image_bytes db =
  let w = Codec.writer () in
  Codec.write_string w magic;
  Codec.write_int w db.store.next_oid;
  Codec.write_int w db.txns.next_txn_id;
  Codec.write_int w (Int64.to_int db.wheel.clock_ms);
  (* [live_objects] sorts to ascending oid per the Store ordering
     contract, so images do not depend on hash order *)
  Codec.write_list w write_obj (Store.live_objects db);
  (* [Timewheel.pending] emits (due, seq) order, whatever the wheel's
     internal placement *)
  Codec.write_list w write_timer (Timewheel.pending db);
  Codec.contents w

let save db path =
  if db.txns.open_txns <> [] then ode_error "cannot save with open transactions";
  Codec.to_file path (image_bytes db)

(* Restored timers keep their saved insertion stamps; the counter must
   resume past them so later arms sort after. It only moves forward. *)
let bump_seq_counter db timers =
  List.iter
    (fun tm ->
      if tm.tm_seq >= db.wheel.tm_next_seq then
        db.wheel.tm_next_seq <- tm.tm_seq + 1)
    timers

let load_image db data =
  let r = Codec.reader data in
  if Codec.read_string r <> magic then raise (Codec.Corrupt "not an Ode image");
  let next_oid = Codec.read_int r in
  let next_txn_id = Codec.read_int r in
  let clock_ms = Int64.of_int (Codec.read_int r) in
  (* parse everything before touching the heap, so a corrupt image does
     not leave a half-installed database behind *)
  let objs = Codec.read_list r read_obj_raw in
  let timers = Codec.read_list r read_timer in
  Store.reset_heap db;
  Timewheel.clear db;
  db.store.next_oid <- next_oid;
  db.txns.next_txn_id <- next_txn_id;
  db.wheel.clock_ms <- clock_ms;
  List.iter (install_obj db) objs;
  List.iter (Timewheel.insert_timer db) timers;
  bump_seq_counter db timers

let load db path =
  if db.txns.open_txns <> [] then ode_error "cannot load with open transactions";
  load_image db (Codec.of_file path)

(* ------------------------------------------------------------------ *)
(* The full-image durability backend                                   *)
(* ------------------------------------------------------------------ *)

(* [save]/[load] as a [durability_backend]: no incremental log, commits
   emit nothing, recovery has nothing to replay from. This is the
   PR-6-and-earlier behaviour, packaged. *)
let image_backend () =
  {
    dur_name = "image";
    dur_attach = (fun _ -> ());
    dur_redo = false;
    dur_commit = (fun _ _ -> ());
    dur_save = save;
    dur_load = load;
    dur_recover =
      (fun _ -> ode_error "image durability keeps no log to recover from");
    dur_sync = (fun _ -> ());
    dur_close = (fun _ -> ());
  }
