(* The posting kernel against its oracle.

   Posting runs the compiled kernel: per-class candidate rows from the
   dispatch index, packed classification codes, flat-table stepping
   over the SoA detection state. The reference stepper
   ([Ode_reference.Stepper], installed through [Engine.set_stepper])
   re-implements classify/step independently, in two modes: [Index]
   resolves candidates through the same dispatch rows, [Scan]
   classifies {e every} active trigger on the object. All three must be
   observably identical: same firings, same collected §9 bindings, same
   witnesses, same automaton states, same activation flags — on random
   schemas (masked composite events, one-shot/perpetual,
   committed-mode, witness-tracking triggers) under random transaction
   scripts with commits and aborts. The stepper covers object scope;
   [index_rows_complete] pins the database-scope index (and the class
   rows) directly: a trigger the index leaves out of a row must be a
   no-op on that row's occurrences.

   [kernel_codes_match_semantics] additionally pins the kernel's
   classify/step primitives ([Detector.classify_code] / [post_code] /
   [post_code_slot]) directly against the §4 denotational semantics, so
   the engine-level property cannot pass by both paths sharing a broken
   detector. *)

open Ode_odb
open Ode_event
module D = Database
module Value = Ode_base.Value
module Stepper = Ode_reference.Stepper

type op =
  | Call_f
  | Call_g0
  | Call_g1 of int
  | Set_cm of int * bool
  | Reactivate of int
  | New_obj

type script = { ops : op list; commit : bool }

type case = {
  (* event, perpetual, committed-mode, witnesses *)
  triggers : (Expr.t * bool * bool * bool) list;
  scripts : script list;
}

let trigger_names case = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.triggers

(* Build the schema, run every script, and summarise everything the
   posting paths could disagree on. [stepper]: [None] runs the kernel,
   [Some mode] the reference stepper. *)
let run ?stepper case =
  let log = ref [] in
  let db = D.create_db () in
  Option.iter (Stepper.install db) stepper;
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
  (* one database-scope trigger so [post_db]'s index is exercised too *)
  D.db_trigger_str db ~perpetual:true "census" ~event:"choose 2 (after create)"
    ~action:(fun _ ctx -> log := ("census", [ ("oid", Value.Int ctx.D.fc_oid) ], None) :: !log);
  D.activate_db_trigger db "census" [];
  let names = trigger_names case in
  let b = D.define_class "c" in
  let b = D.field b "cm0" (Value.Bool true) in
  let b = D.field b "cm1" (Value.Bool true) in
  let b = D.field b "cm2" (Value.Bool true) in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b =
    List.fold_left2
      (fun b name (event, perpetual, committed, witnesses) ->
        let mode = if committed then Detector.Committed else Detector.Full_history in
        D.trigger b ~perpetual ~mode ~witnesses name ~event ~action:(fun _ ctx ->
            log :=
              (name, List.sort compare ctx.D.fc_collected, ctx.D.fc_witnesses)
              :: !log))
      b names case.triggers
  in
  D.register_class db b;
  let oid =
    match
      D.with_txn db (fun _ ->
          let oid = D.create db "c" [] in
          List.iter (fun n -> D.activate db oid n []) names;
          oid)
    with
    | Ok oid -> oid
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  List.iter
    (fun s ->
      let tx = D.begin_txn db in
      List.iter
        (fun op ->
          match op with
          | Call_f -> ignore (D.call db oid "f" [])
          | Call_g0 -> ignore (D.call db oid "g" [])
          | Call_g1 x -> ignore (D.call db oid "g" [ Value.Int x ])
          | Set_cm (i, v) ->
            D.set_field db oid (Printf.sprintf "cm%d" (i mod 3)) (Value.Bool v)
          | Reactivate i ->
            D.activate db oid (List.nth names (i mod List.length names)) []
          | New_obj -> ignore (D.create db "c" []))
        s.ops;
      if s.commit then ignore (D.commit db tx) else D.abort db tx)
    case.scripts;
  let firings =
    List.map
      (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_oid, f.D.f_txn))
      (List.rev !firings_log)
  in
  let states =
    List.map (fun n -> (n, D.trigger_state db oid n, D.is_active db oid n)) names
  in
  (firings, List.rev !log, states)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_trigger =
  let open QCheck.Gen in
  let* e = Gen.gen_surface_masked ~max_size:6 () in
  let* perpetual = bool in
  let* committed = bool in
  let* witnesses = bool in
  return (e, perpetual, committed, witnesses)

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (3, return Call_f);
      (2, return Call_g0);
      (4, map (fun x -> Call_g1 x) (int_range (-2) 10));
      (1, map2 (fun i v -> Set_cm (i, v)) (int_bound 2) bool);
      (1, map (fun i -> Reactivate i) (int_bound 7));
      (1, return New_obj);
    ]

let gen_script =
  let open QCheck.Gen in
  map2 (fun ops commit -> { ops; commit }) (list_size (int_range 1 6) gen_op) bool

let gen_case =
  let open QCheck.Gen in
  map2
    (fun triggers scripts -> { triggers; scripts })
    (list_size (int_range 1 4) gen_trigger)
    (list_size (int_range 1 6) gen_script)

let pp_op ppf = function
  | Call_f -> Fmt.pf ppf "f()"
  | Call_g0 -> Fmt.pf ppf "g()"
  | Call_g1 x -> Fmt.pf ppf "g(%d)" x
  | Set_cm (i, v) -> Fmt.pf ppf "cm%d := %b" (i mod 3) v
  | Reactivate i -> Fmt.pf ppf "reactivate %d" i
  | New_obj -> Fmt.pf ppf "new"

let print_case case =
  Fmt.str "@[<v>%a@,%a@]"
    Fmt.(
      list (fun ppf (e, p, c, w) ->
          Fmt.pf ppf "trigger%s%s%s: %a"
            (if p then " perpetual" else "")
            (if c then " committed" else "")
            (if w then " witnesses" else "")
            Expr.pp e))
    case.triggers
    Fmt.(
      list (fun ppf s ->
          Fmt.pf ppf "%s [%a]"
            (if s.commit then "commit" else "abort")
            (list ~sep:(any "; ") pp_op) s.ops))
    case.scripts

(* ------------------------------------------------------------------ *)
(* Properties and directed tests                                       *)
(* ------------------------------------------------------------------ *)

let compiles (e, _, committed, _) =
  let mode = if committed then Detector.Committed else Detector.Full_history in
  match Detector.make ~mode e with
  | exception Invalid_argument _ -> false (* state-limit blowup: skip *)
  | _ -> true

(* The indexed path against the brute-force scan: pruning candidates by
   the dispatch rows must not change a single observable. *)
let index_equals_scan =
  QCheck.Test.make ~count:80 ~name:"dispatch index = brute-force scan"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      run case = run ~stepper:Stepper.Scan case)

(* Three-way: the compiled kernel and both modes of the reference
   stepper must agree on every observable, firing order included. *)
let kernel_equals_legacy_equals_scan =
  QCheck.Test.make ~count:80 ~name:"posting kernel = legacy index = scan"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      let k = run case in
      k = run ~stepper:Stepper.Index case && k = run ~stepper:Stepper.Scan case)

(* Index completeness, object and database scope. For a random trigger
   set and random occurrences, every trigger absent from the class's
   [k_rows] row (or the database's [db_dispatch] bucket) for the
   occurrence's basic key must be a no-op on it: classified irrelevant,
   no bindings collected, and stepping — from whatever state a random
   prefix left — changes no state word. This is what lets the kernel
   skip those triggers, and what the scan mode above checks end to end
   for object scope only. *)
let index_rows_complete =
  QCheck.Test.make ~count:200 ~name:"dispatch rows omit only no-op triggers"
    (QCheck.make
       ~print:(fun (triggers, occs, _) ->
         Fmt.str "%a on %d occurrences"
           Fmt.(list ~sep:(any "; ") (fun ppf (e, _) -> Expr.pp ppf e))
           triggers (List.length occs))
       QCheck.Gen.(
         let* triggers =
           list_size (int_range 1 4) (pair (Gen.gen_surface_masked ~max_size:6 ()) bool)
         in
         let* occs = list_size (int_range 1 20) Gen.gen_occurrence in
         let* flags = list_repeat (List.length occs) (array_size (return 3) bool) in
         return (triggers, occs, flags)))
    (fun (triggers, occs, flags) ->
      QCheck.assume
        (List.for_all
           (fun (e, committed) ->
             compiles (e, false, committed, false) && compiles (e, false, false, false))
           triggers);
      let db = Types.make_db () in
      let b =
        List.fold_left
          (fun b (i, (event, committed)) ->
            let mode = if committed then Detector.Committed else Detector.Full_history in
            Schema.trigger b ~mode (Printf.sprintf "t%d" i) ~event ~action:(fun _ _ -> ()))
          (Schema.define_class "c")
          (List.mapi (fun i t -> (i, t)) triggers)
      in
      Schema.register_class db b;
      List.iteri
        (fun i (event, _) ->
          Schema.db_trigger db (Printf.sprintf "d%d" i) ~event ~action:(fun _ _ -> ()))
        triggers;
      let k = Option.get (Schema.find_class db "c") in
      let class_defs = Hashtbl.fold (fun _ d acc -> d :: acc) k.Types.k_triggers [] in
      let db_defs =
        Hashtbl.fold (fun _ d acc -> d :: acc) db.Types.schema.Types.db_trigger_defs []
      in
      let row_of scope key =
        match scope with
        | `Class -> (
          match Hashtbl.find_opt k.Types.k_rows key with
          | Some r -> Array.to_list r.Types.kr_defs
          | None -> [])
        | `Db ->
          Option.value ~default:[]
            (Hashtbl.find_opt db.Types.schema.Types.db_dispatch key)
      in
      let current = ref [| true; true; true |] in
      let env =
        {
          Ode_event.Mask.empty_env with
          var =
            (fun n ->
              match n with
              | "cm0" -> Some (Value.Bool !current.(0))
              | "cm1" -> Some (Value.Bool !current.(1))
              | "cm2" -> Some (Value.Bool !current.(2))
              | _ -> None);
        }
      in
      (* every definition walks the whole stream, so the omitted ones
         are checked from the states the earlier occurrences left *)
      let states =
        List.map
          (fun (d : Types.trigger_def) -> (d, Detector.initial d.t_detector))
          (class_defs @ db_defs)
      in
      List.iter2
        (fun (occ : Symbol.occurrence) fl ->
          current := fl;
          let key = Symbol.basic_key occ.basic in
          List.iter
            (fun ((d : Types.trigger_def), st) ->
              let scope = if d.t_index < 0 then `Db else `Class in
              let det = d.t_detector in
              let c = Detector.classify det ~env occ in
              if List.memq d (row_of scope key) then
                ignore (Detector.post_classified det st ~env c)
              else begin
                let name = d.t_name in
                if Detector.is_relevant c then
                  QCheck.Test.fail_reportf "%s: omitted from the row, yet relevant" name;
                if Detector.code_relevant (Detector.classify_code det ~env occ) then
                  QCheck.Test.fail_reportf "%s: omitted, yet its code is relevant" name;
                if Detector.collect_classified det c occ <> [] then
                  QCheck.Test.fail_reportf "%s: omitted, yet collects bindings" name;
                let before = Array.copy st in
                ignore (Detector.post_classified det st ~env c);
                if st <> before then
                  QCheck.Test.fail_reportf "%s: omitted, yet stepping moved its state" name
              end)
            states)
        occs flags;
      true)

(* The kernel's own primitives against the §4 reference semantics: for a
   random surface expression and occurrence stream, classify each
   occurrence to a packed code, step the detector by code (both the
   word-vector variant and — when the detector has a flat table — the
   one-word SoA slot variant), and compare the accept stream with
   [Semantics.eval] over the classified, filtered symbol history. Mirrors
   [test_pipeline]'s detector property but through the kernel entry
   points, so a discrepancy between [post] and [post_code]/[post_code_slot]
   cannot hide behind a shared implementation. *)
let kernel_codes_match_semantics =
  let env = Ode_event.Mask.empty_env in
  QCheck.Test.make ~count:300 ~name:"kernel classify/step codes = semantics"
    (QCheck.make
       ~print:(fun (e, occs) ->
         Fmt.str "%a on %d occurrences" Expr.pp e (List.length occs))
       QCheck.Gen.(
         let* e = Gen.gen_surface_expr ~max_size:8 () in
         let* occs = list_size (int_bound 30) Gen.gen_occurrence in
         return (e, occs)))
    (fun (e, occs) ->
      match Detector.make e with
      | exception Invalid_argument _ -> true (* state-limit: skip *)
      | det ->
        let codes = List.map (Detector.classify_code det ~env) occs in
        let state = Detector.initial det in
        let fired = List.map (Detector.post_code det state ~env) codes in
        (if Detector.has_flat det then begin
           let w = Detector.n_state_words det in
           let cells = Array.make (w + 2) 0 in
           Detector.write_initial det cells 1;
           let slot_fired =
             List.map (Detector.post_code_slot det cells 1 ~env) codes
           in
           if slot_fired <> fired then
             QCheck.Test.fail_report "SoA slot stepping diverged from word vector";
           if Array.sub cells 1 w <> state then
             QCheck.Test.fail_report
               "slot state diverged from word-vector state";
           if cells.(0) <> 0 || cells.(w + 1) <> 0 then
             QCheck.Test.fail_report "slot stepping clobbered neighbouring cells"
         end);
        (* reference: classify, drop non-events, evaluate denotationally *)
        let alphabet, lowered, _ = Rewrite.build e in
        let classified =
          List.map (fun occ -> Rewrite.classify alphabet ~env occ) occs
        in
        let kept =
          List.filter (fun s -> s <> Rewrite.other alphabet) classified
        in
        let labels = Semantics.eval lowered (Array.of_list kept) in
        let expected = ref [] in
        let j = ref 0 in
        List.iter
          (fun s ->
            if s = Rewrite.other alphabet then expected := false :: !expected
            else begin
              expected := labels.(!j) :: !expected;
              incr j
            end)
          classified;
        fired = List.rev !expected)

(* Multi-level automata through the flat tables: wrap random
   subexpressions in composite masks (each mask a [cm<i> = true] lookup
   the environment answers differently at different positions of the
   stream), then step the same code stream through the word-vector path
   and the SoA slot path. Both must agree on every firing and end in
   identical state words — and every such expression must be
   kernel-eligible, masks, counting and nesting included. *)
let masked_slots_match_words =
  QCheck.Test.make ~count:300
    ~name:"multi-level slot stepping = word stepping under varying masks"
    (QCheck.make
       ~print:(fun (e, steps) ->
         Fmt.str "%a on %d occurrences" Expr.pp e (List.length steps))
       QCheck.Gen.(
         let* e = Gen.gen_surface_masked ~max_size:8 () in
         let* occs = list_size (int_bound 30) Gen.gen_occurrence in
         let* flags = list_repeat (List.length occs) (array_size (return 3) bool) in
         return (e, List.combine occs flags)))
    (fun (e, steps) ->
      match Detector.make e with
      | exception Invalid_argument _ -> true (* state-limit: skip *)
      | det ->
        if not (Detector.has_flat det) then
          QCheck.Test.fail_report "masked expression missed the flat tables";
        let current = ref [| true; true; true |] in
        let env =
          {
            Ode_event.Mask.empty_env with
            var =
              (fun n ->
                match n with
                | "cm0" -> Some (Value.Bool !current.(0))
                | "cm1" -> Some (Value.Bool !current.(1))
                | "cm2" -> Some (Value.Bool !current.(2))
                | _ -> None);
          }
        in
        let state = Detector.initial det in
        let w = Detector.n_state_words det in
        let cells = Array.make (w + 2) 0 in
        Detector.write_initial det cells 1;
        let agree =
          List.for_all
            (fun (occ, flags) ->
              current := flags;
              let code = Detector.classify_code det ~env occ in
              let word_fired = Detector.post_code det state ~env code in
              let slot_fired = Detector.post_code_slot det cells 1 ~env code in
              word_fired = slot_fired)
            steps
        in
        if not agree then
          QCheck.Test.fail_report "slot and word paths fired differently";
        if Array.sub cells 1 w <> state then
          QCheck.Test.fail_report "slot state diverged from word-vector state";
        cells.(0) = 0 && cells.(w + 1) = 0)

(* A directed case through the kernel, so the properties above cannot
   pass vacuously with every path broken the same way:
   check actual firing, §9 collection and one-shot deactivation. *)
let test_indexed_firing () =
  let db = D.create_db () in
  let fired = ref [] in
  let _sub = D.subscribe_firings db (fun f -> fired := f :: !fired) in
  let collected = ref [] in
  let event =
    Expr.sequence
      [
        Expr.after "f";
        Expr.after
          ~formals:[ { Expr.f_ty = None; f_name = "x" } ]
          ~mask:Mask.(var "x" >% v_int 3)
          "g";
      ]
  in
  let b = D.define_class "c" in
  let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
  let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger b "t" ~event ~action:(fun _ ctx -> collected := ctx.D.fc_collected)
  in
  D.register_class db b;
  (match
     D.with_txn db (fun _ ->
         let oid = D.create db "c" [] in
         D.activate db oid "t" [];
         ignore (D.call db oid "g" [ Value.Int 9 ]);
         (* g without a preceding f: must not fire *)
         ignore (D.call db oid "f" []);
         ignore (D.call db oid "g" [ Value.Int 2 ]);
         (* guard x > 3 fails: must not fire *)
         ignore (D.call db oid "f" []);
         ignore (D.call db oid "g" [ Value.Int 7 ]);
         oid)
   with
  | Ok oid ->
    Alcotest.(check (list string))
      "fired exactly once"
      [ "t" ]
      (List.map (fun (f : D.firing) -> f.D.f_trigger) (List.rev !fired));
    Alcotest.(check bool) "one-shot deactivated" false (D.is_active db oid "t")
  | Error `Aborted -> Alcotest.fail "transaction aborted");
  match !collected with
  | [ ("x", Value.Int 7) ] -> ()
  | other ->
    Alcotest.failf "collected %a"
      Fmt.(Dump.list (Dump.pair string (fun ppf v -> Value.pp ppf v)))
      other

let suite =
  Alcotest.test_case "indexed firing + collection" `Quick test_indexed_firing
  :: List.map QCheck_alcotest.to_alcotest
       [
         index_equals_scan;
         kernel_equals_legacy_equals_scan;
         index_rows_complete;
         kernel_codes_match_semantics;
         masked_slots_match_words;
       ]
