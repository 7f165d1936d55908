(* Kernel equivalence over whole workloads: the compiled posting kernel
   must be observably identical to the reference stepper
   ([Ode_reference.Stepper], in its [Index] and brute-force [Scan]
   modes) — same firings in the same order, same action log, same
   automaton states, same object listings, same statistics and
   byte-identical ODE1 persist images — on random schemas under random
   transaction scripts with commits, aborts, deletes and simulated-time
   advances. Likewise for [post_many] batches, exact observability
   counters included: the stepper steps a batch with its own loop, so
   the kernel's batch loop is pinned too.

   Directed tests below cover the Store surface: [cardinal]/[mem], the
   ascending-oid enumeration contract and delete/abort bookkeeping. *)

open Ode_odb
open Ode_event
module D = Database
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module P = Ode_lang.Parser
module Stepper = Ode_reference.Stepper

(* ------------------------------------------------------------------ *)
(* Random scripts over several objects                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Call_f of int
  | Call_g of int * int
  | Set_cm of int * int * bool
  | Reactivate of int * int
  | New_obj
  | Del of int

type script = { ops : op list; commit : bool; advance : int }

type case = {
  (* event, perpetual, committed-mode, witnesses *)
  triggers : (Expr.t * bool * bool * bool) list;
  scripts : script list;
}

let n_objects = 5
let trigger_names case = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.triggers

(* Build the schema, run every script, and summarise everything two
   posting paths could disagree on. Nothing is sorted: the {e order} of
   firings and logged actions is part of the contract. *)
(* [stepper]: [None] runs the posting kernel, [Some mode] the reference
   stepper ([Ode_reference.Stepper]) in that mode. *)
let run ?stepper case =
  let log = ref [] in
  let db = D.create_db () in
  Option.iter (Stepper.install db) stepper;
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
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
    D.trigger b ~perpetual:true "tick"
      ~event:(P.parse_event "every time(MS=100)")
      ~action:(fun _ ctx -> log := ("tick", [ ("oid", Value.Int ctx.D.fc_oid) ], None) :: !log)
  in
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
  let oids =
    match
      D.with_txn db (fun _ ->
          List.init n_objects (fun _ ->
              let oid = D.create db "c" [] in
              List.iter (fun n -> D.activate db oid n []) ("tick" :: names);
              oid))
    with
    | Ok oids -> oids
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  let pick i = List.nth oids (i mod n_objects) in
  List.iter
    (fun s ->
      let tx = D.begin_txn db in
      List.iter
        (fun op ->
          match op with
          | Call_f i ->
            if D.exists db (pick i) then ignore (D.call db (pick i) "f" [])
          | Call_g (i, x) ->
            if D.exists db (pick i) then
              ignore (D.call db (pick i) "g" [ Value.Int x ])
          | Set_cm (i, j, v) ->
            if D.exists db (pick i) then
              D.set_field db (pick i) (Printf.sprintf "cm%d" (j mod 3)) (Value.Bool v)
          | Reactivate (i, j) ->
            if D.exists db (pick i) then
              D.activate db (pick i) (List.nth names (j mod List.length names)) []
          | New_obj -> ignore (D.create db "c" [])
          | Del i -> if D.exists db (pick i) then D.delete db (pick i))
        s.ops;
      if s.commit then ignore (D.commit db tx) else D.abort db tx;
      if s.advance > 0 then D.advance_clock db (Int64.of_int s.advance))
    case.scripts;
  let firings =
    List.map
      (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_class, f.D.f_oid, f.D.f_txn))
      (List.rev !firings_log)
  in
  let states =
    List.concat_map
      (fun oid ->
        List.map
          (fun n ->
            let st = try Some (D.trigger_state db oid n) with D.Ode_error _ -> None in
            (oid, n, st, try D.is_active db oid n with D.Ode_error _ -> false))
          ("tick" :: names))
      (List.filter (D.exists db) oids)
  in
  let image =
    let tmp = Filename.temp_file "ode_shard" ".img" in
    D.save db tmp;
    let ic = open_in_bin tmp in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    Sys.remove tmp;
    bytes
  in
  ( firings,
    List.rev !log,
    states,
    D.objects db,
    D.objects_of_class db "c",
    D.stats db,
    image )

(* ------------------------------------------------------------------ *)
(* post_many batches                                                   *)
(* ------------------------------------------------------------------ *)

type batch_case = {
  btriggers : (Expr.t * bool * bool * bool) list;
  batch1 : (int * bool * int) list;  (* object index, f-or-g, g's argument *)
  batch2 : (int * bool * int) list;  (* posted in a second, aborted txn *)
}

let n_batch_objects = 8

(* Run both batches through [post_many] — the second in a transaction
   that aborts, exercising the batch's committed-mode undo snapshots —
   and summarise every observable, the exact counters included. *)
let run_batch ?stepper case =
  let log = ref [] in
  let db = D.create_db () in
  Option.iter (Stepper.install db) stepper;
  D.set_observability db true;
  let firings_log = ref [] in
  let _sub = D.subscribe_firings db (fun f -> firings_log := f :: !firings_log) in
  let names = List.mapi (fun i _ -> Printf.sprintf "t%d" i) case.btriggers in
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
              (name, ctx.D.fc_oid, List.sort compare ctx.D.fc_collected)
              :: !log))
      b names case.btriggers
  in
  D.register_class db b;
  let oids =
    match
      D.with_txn db (fun _ ->
          List.init n_batch_objects (fun _ ->
              let oid = D.create db "c" [] in
              List.iter (fun n -> D.activate db oid n []) names;
              oid))
    with
    | Ok oids -> oids
    | Error `Aborted -> Alcotest.fail "setup transaction aborted"
  in
  let to_events batch =
    List.map
      (fun (i, use_f, x) ->
        let oid = List.nth oids (i mod n_batch_objects) in
        if use_f then (oid, Symbol.Method (Symbol.After, "f"), [])
        else (oid, Symbol.Method (Symbol.After, "g"), [ Value.Int x ]))
      batch
  in
  let n1 = ref 0 and n2 = ref 0 in
  (match
     D.with_txn db (fun _ -> n1 := D.post_many db (to_events case.batch1))
   with
  | Ok () -> ()
  | Error `Aborted -> Alcotest.fail "batch transaction aborted");
  let tx = D.begin_txn db in
  n2 := D.post_many db (to_events case.batch2);
  D.abort db tx;
  let states =
    List.concat_map
      (fun oid ->
        List.map (fun n -> (oid, n, D.trigger_state db oid n, D.is_active db oid n)) names)
      oids
  in
  let obs = D.observe db in
  let counters =
    List.map
      (fun c -> (Ode_obs.Registry.counter_name c, Ode_obs.Registry.get obs c))
      Ode_obs.Registry.all_counters
  in
  let firings =
    List.map
      (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_oid, f.D.f_txn))
      (List.rev !firings_log)
  in
  (* the persist image pins the exact post-batch state words: a path
     switch that corrupted even one automaton cell would
     change the bytes *)
  let image =
    let tmp = Filename.temp_file "ode_shard" ".img" in
    D.save db tmp;
    let ic = open_in_bin tmp in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    Sys.remove tmp;
    bytes
  in
  ( !n1, !n2, firings, List.rev !log, states, counters,
    Ode_obs.Registry.posts_by_kind obs, image )

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
      (3, map (fun i -> Call_f i) (int_bound (n_objects - 1)));
      (4, map2 (fun i x -> Call_g (i, x)) (int_bound (n_objects - 1)) (int_range (-2) 10));
      (1, map3 (fun i j v -> Set_cm (i, j, v)) (int_bound (n_objects - 1)) (int_bound 2) bool);
      (1, map2 (fun i j -> Reactivate (i, j)) (int_bound (n_objects - 1)) (int_bound 7));
      (1, return New_obj);
      (1, map (fun i -> Del i) (int_bound (n_objects - 1)));
    ]

let gen_script =
  let open QCheck.Gen in
  let* ops = list_size (int_range 1 6) gen_op in
  let* commit = bool in
  let* advance = frequency [ (3, return 0); (1, int_range 1 350) ] in
  return { ops; commit; advance }

let gen_case =
  let open QCheck.Gen in
  map2
    (fun triggers scripts -> { triggers; scripts })
    (list_size (int_range 1 3) gen_trigger)
    (list_size (int_range 1 5) gen_script)

let gen_batch_item =
  let open QCheck.Gen in
  map3
    (fun i use_f x -> (i, use_f, x))
    (int_bound (n_batch_objects - 1))
    bool (int_range (-2) 10)

let gen_batch_case =
  let open QCheck.Gen in
  map3
    (fun btriggers batch1 batch2 -> { btriggers; batch1; batch2 })
    (list_size (int_range 1 3) gen_trigger)
    (list_size (int_range 1 16) gen_batch_item)
    (list_size (int_range 0 12) gen_batch_item)

let pp_trigger ppf (e, p, c, w) =
  Fmt.pf ppf "trigger%s%s%s: %a"
    (if p then " perpetual" else "")
    (if c then " committed" else "")
    (if w then " witnesses" else "")
    Expr.pp e

let pp_op ppf = function
  | Call_f i -> Fmt.pf ppf "o%d.f()" i
  | Call_g (i, x) -> Fmt.pf ppf "o%d.g(%d)" i x
  | Set_cm (i, j, v) -> Fmt.pf ppf "o%d.cm%d := %b" i (j mod 3) v
  | Reactivate (i, j) -> Fmt.pf ppf "o%d reactivate %d" i j
  | New_obj -> Fmt.pf ppf "new"
  | Del i -> Fmt.pf ppf "delete o%d" i

let print_case case =
  Fmt.str "@[<v>%a@,%a@]"
    Fmt.(list pp_trigger)
    case.triggers
    Fmt.(
      list (fun ppf s ->
          Fmt.pf ppf "%s +%dms [%a]"
            (if s.commit then "commit" else "abort")
            s.advance
            (list ~sep:(any "; ") pp_op) s.ops))
    case.scripts

let print_batch_case case =
  Fmt.str "@[<v>%a@,batch1 %a@,batch2 %a@]"
    Fmt.(list pp_trigger)
    case.btriggers
    Fmt.(
      Dump.list (fun ppf (i, f, x) ->
          if f then Fmt.pf ppf "o%d.f" i else Fmt.pf ppf "o%d.g(%d)" i x))
    case.batch1
    Fmt.(
      Dump.list (fun ppf (i, f, x) ->
          if f then Fmt.pf ppf "o%d.f" i else Fmt.pf ppf "o%d.g(%d)" i x))
    case.batch2

let compiles (e, _, committed, _) =
  let mode = if committed then Detector.Committed else Detector.Full_history in
  match Detector.make ~mode e with
  | exception Invalid_argument _ -> false (* state-limit blowup: skip *)
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The posting kernel against the reference stepper: same firings in
   the same order, same states, same object listings, same
   byte-identical persist image — in the stepper's [Index] mode and in
   its brute-force [Scan] mode. The state representation (SoA slots) is
   shared by all paths, so the image comparison pins the kernel's
   in-place stepping to the exact words the stepper computes. *)
let kernel_equals_prekernel =
  QCheck.Test.make ~count:30
    ~name:"posting kernel = pre-kernel path (index and scan modes, persist bytes)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      let k = run case in
      k = run ~stepper:Stepper.Index case && k = run ~stepper:Stepper.Scan case)

(* Likewise for the batch pipeline, exact observability counters
   included: the kernel's scratch accumulators must flush to the same
   totals the stepper records one event at a time. The [Scan] mode
   classifies every active trigger by design, so only its two dispatch
   counters may differ. *)
let kernel_equals_prekernel_batches =
  let without_dispatch (n1, n2, firings, log, states, counters, kinds, image) =
    let counters =
      List.filter
        (fun (name, _) -> name <> "classified" && name <> "index_skipped")
        counters
    in
    (n1, n2, firings, log, states, counters, kinds, image)
  in
  QCheck.Test.make ~count:30
    ~name:"post_many: kernel = pre-kernel (index and scan modes, counters)"
    (QCheck.make ~print:print_batch_case gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.btriggers);
      let k = run_batch case in
      k = run_batch ~stepper:Stepper.Index case
      && without_dispatch k
         = without_dispatch (run_batch ~stepper:Stepper.Scan case))

(* Kernel coverage, detector level: every expression the generators can
   produce — composite masks, [choose]/[every] counting, nesting — must
   compile to the flat-table representation in both history modes. The
   multi-level tables made the full algebra kernel-eligible; this pins
   that no compilable expression silently falls back to the boxed
   interpreter. *)
let all_expressions_flat =
  QCheck.Test.make ~count:300 ~name:"kernel coverage: every compilable expression has flat tables"
    (QCheck.make
       ~print:(Fmt.str "%a" Expr.pp)
       (Gen.gen_surface_masked ~max_size:8 ()))
    (fun e ->
      List.for_all
        (fun mode ->
          match Detector.make ~mode e with
          | exception Invalid_argument _ -> true (* state-limit: skip *)
          | det -> Detector.has_flat det)
        [ Detector.Full_history; Detector.Committed ])

(* Kernel coverage, pipeline level: with every object-scope detector
   flat-eligible and no database-scope triggers in the batch schema,
   every automaton advance must go through a SoA slot — the boxed
   word-vector counter stays at zero. *)
let batch_steps_all_slots =
  QCheck.Test.make ~count:30
    ~name:"post_many: object-scope advances are all flat-table slots"
    (QCheck.make ~print:print_batch_case gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.btriggers);
      let _, _, _, _, _, counters, _, _ = run_batch case in
      let get n = List.assoc n counters in
      get "word_transitions" = 0
      && get "slot_transitions" = get "transitions")

(* ------------------------------------------------------------------ *)
(* Directed tests                                                      *)
(* ------------------------------------------------------------------ *)

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let simple_class () =
  D.define_class "c" |> fun b -> D.field b "x" (Value.Int 0)

(* same class built at the Schema layer, for the Store-level tests that
   need a raw [Types.db] *)
let simple_schema_class () =
  Schema.field (Schema.define_class "c") "x" (Value.Int 0)

(* [cardinal]/[mem]/enumeration through the facade, after a batch of
   creates and after a delete: committed deletes keep the record (mem
   true, default cardinal counts it) but leave the live count and
   listings. *)
let test_store_primitives () =
  let db = D.create_db ~config:D.Config.default () in
  D.register_class db (simple_class ());
  let oids =
    expect_ok
      (D.with_txn db (fun _ -> List.init 10 (fun _ -> D.create db "c" [])))
  in
  Alcotest.(check (list int)) "ascending enumeration" oids (D.objects db);
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 3)));
  let s = D.stats db in
  Alcotest.(check int) "live count after delete" 9 s.D.n_objects;
  Alcotest.(check (list int))
    "listing skips deleted"
    (List.filter (fun o -> o <> List.nth oids 3) oids)
    (D.objects db);
  Alcotest.(check bool) "exists false" false (D.exists db (List.nth oids 3))

let test_store_layer_cardinal_mem () =
  let db = Types.make_db () in
  Schema.register_class db (simple_schema_class ());
  let oids =
    expect_ok
      (Txn.with_txn db (fun _ -> List.init 10 (fun _ -> Engine.create db "c" [])))
  in
  Alcotest.(check int) "cardinal" 10 (Store.cardinal db);
  Alcotest.(check int) "cardinal ~live" 10 (Store.cardinal ~live:true db);
  Alcotest.(check bool) "mem" true (Store.mem db (List.hd oids));
  Alcotest.(check bool) "not mem" false (Store.mem db 424242);
  expect_ok (Txn.with_txn db (fun _ -> Engine.delete db (List.nth oids 0)));
  Alcotest.(check int) "cardinal keeps tombstone" 10 (Store.cardinal db);
  Alcotest.(check int) "live cardinal drops" 9 (Store.cardinal ~live:true db);
  Alcotest.(check bool) "tombstone mem" true (Store.mem db (List.nth oids 0));
  (* an aborted delete restores the live count *)
  let tx = Txn.begin_txn db in
  Engine.delete db (List.nth oids 1);
  Alcotest.(check int) "mid-txn live" 8 (Store.cardinal ~live:true db);
  Txn.abort db tx;
  Alcotest.(check int) "abort restores live" 9 (Store.cardinal ~live:true db);
  (* an aborted create removes the record entirely *)
  let tx = Txn.begin_txn db in
  let noid = Engine.create db "c" [] in
  Txn.abort db tx;
  Alcotest.(check bool) "aborted create not mem" false (Store.mem db noid);
  Alcotest.(check int) "aborted create cardinal" 10 (Store.cardinal db)

let suite =
  [
    Alcotest.test_case "store primitives on both batch creates and deletes"
      `Quick test_store_primitives;
    Alcotest.test_case "cardinal and mem" `Quick test_store_layer_cardinal_mem;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        kernel_equals_prekernel;
        kernel_equals_prekernel_batches;
        all_expressions_flat;
        batch_steps_all_slots;
      ]
