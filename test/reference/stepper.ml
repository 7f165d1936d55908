open Ode_odb
open Types
module Symbol = Ode_event.Symbol
module Detector = Ode_event.Detector
module Mask = Ode_event.Mask
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace

type mode = Index | Scan

let mask_error at msg =
  ode_error "trigger %s.%s: mask evaluation failed: %s" at.at_def.t_class
    at.at_def.t_name msg

(* Active activations the occurrence can concern, in declaration order.
   [Index] resolves the dispatch row's definitions through the name
   table (not the kernel's dense [o_acts] slots); [Scan] takes every
   active activation, walking the dense slots so it needs no sort. *)
let candidates mode obj (basic : Symbol.basic) =
  match mode with
  | Index -> (
    match Hashtbl.find_opt obj.o_class.k_rows (Symbol.basic_key basic) with
    | None -> []
    | Some row ->
      List.filter_map
        (fun (d : trigger_def) ->
          match Hashtbl.find_opt obj.o_triggers d.t_name with
          | Some at when at.at_active -> Some at
          | Some _ | None -> None)
        (Array.to_list row.kr_defs))
  | Scan ->
    Array.fold_right
      (fun slot acc ->
        match slot with
        | Some at when at.at_active -> at :: acc
        | Some _ | None -> acc)
      obj.o_acts []

(* Classify once per distinct shared detector, per occurrence. The
   cache is capped so a scan over many distinct detectors stays linear
   instead of walking an ever-longer list. *)
let classify_cache_cap = 16

let classify_cached cache detector ~env occurrence =
  let rec find n = function
    | [] -> Error n
    | (d, c) :: rest -> if d == detector then Ok c else find (n + 1) rest
  in
  match find 0 !cache with
  | Ok c -> c
  | Error n ->
    let c = Detector.classify detector ~env occurrence in
    if n < classify_cache_cap then cache := (detector, c) :: !cache;
    c

(* Step one classified activation. An irrelevant occurrence changes
   neither the automaton state nor the bindings, so committed-mode undo
   snapshots are only taken for relevant ones. *)
let step_activation db ~undo obj (at : active_trigger) ~env c occurrence =
  let obs = db.obs in
  let on = Registry.enabled obs in
  let detector = at.at_def.t_detector in
  try
    let relevant = Detector.is_relevant c in
    if relevant && detector.Detector.mode = Detector.Committed then begin
      undo := U_trigger_state (at, at_state_copy at) :: !undo;
      undo := U_trigger_collected (at, at.at_collected) :: !undo
    end;
    if relevant then
      List.iter
        (fun (name, v) ->
          at.at_collected <- (name, v) :: List.remove_assoc name at.at_collected)
        (Detector.collect_classified detector c occurrence);
    (match at.at_provenance with
    | Some prov ->
      at.at_last_witnesses <- Ode_event.Provenance.post prov ~env occurrence
    | None -> ());
    let old_top = if on then at_top_state at else 0 in
    let fired =
      match at.at_state with
      | S_words w -> Detector.post_classified detector w ~env c
      | S_slot (blk, slot) ->
        Detector.post_classified_slot detector blk.blk_state
          (slot * blk.blk_words) ~env c
    in
    if on && relevant then begin
      Registry.incr obs Registry.Transitions;
      Registry.incr obs
        (match at.at_state with
        | S_slot _ -> Registry.Slot_transitions
        | S_words _ -> Registry.Word_transitions);
      Registry.span obs
        (Trace.Advanced
           { scope = Trace.Obj obj.o_id; trigger = at.at_def.t_name;
             old_state = old_top; new_state = at_top_state at })
    end;
    fired
  with Mask.Eval_error msg -> mask_error at msg

let step mode db ~undo obj (occurrence : Symbol.occurrence) =
  let obs = db.obs in
  let cands = candidates mode obj occurrence.basic in
  if Registry.enabled obs then begin
    let n = List.length cands in
    Registry.add obs Registry.Classified n;
    if mode = Index then
      Registry.add obs Registry.Index_skipped (obj.o_n_active - n)
  end;
  match cands with
  | [] -> []
  | cands ->
    let env = Store.mask_env db obj in
    (* classify every candidate before stepping any *)
    let cache = ref [] in
    let classified =
      List.map
        (fun (at : active_trigger) ->
          let c =
            try classify_cached cache at.at_def.t_detector ~env occurrence
            with Mask.Eval_error msg -> mask_error at msg
          in
          (at, c))
        cands
    in
    List.filter_map
      (fun (at, c) ->
        if step_activation db ~undo obj at ~env c occurrence then Some at
        else None)
      classified

(* The batch loop is the stepper's own, independent of [post_many]'s. *)
let install db mode =
  Engine.set_stepper db
    (Some
       (fun db ~undo items ->
         Array.map (fun (obj, occurrence) -> step mode db ~undo obj occurrence)
           items))
let uninstall db = Engine.set_stepper db None
