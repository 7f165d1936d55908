(* Backend equivalence: the Heap and Sharded store backends must be
   observably identical — same firings in the same order, same action
   log, same automaton states, same object listings, same statistics and
   byte-identical ODE1 persist images — on random schemas under random
   transaction scripts with commits, aborts, deletes and simulated-time
   advances. Likewise [post_many] must be bit-identical across domain
   counts: the parallel step phase (one task per shard) may not change a
   single observable, firing order and observability counters included.

   Directed tests below cover the new Store surface: [cardinal]/[mem]
   on both backends, the ascending-oid enumeration contract, oid
   round-robin over shards, and the [ODE_STORE_BACKEND] selector. *)

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

(* Build the schema on the given backend, run every script, and
   summarise everything the backends could disagree on. Nothing is
   sorted: the {e order} of firings and logged actions is part of the
   contract. *)
(* [partitions]: [None] follows the environment (the default, like
   every other test); [Some n] pins an n-member engine group — the
   partition-equivalence properties in test_partition.ml run this same
   workload at several counts and compare. Pinning also pins [`Image]
   durability: partitioning is transparent to every logical observable,
   but {e how many} WAL batches a commit emits is per-member layout. *)
let create_db ?partitions ~backend () =
  match partitions with
  | None -> D.create_db ~backend ()
  | Some n ->
    D.create_db
      ~config:
        {
          (D.Config.of_env ()) with
          D.Config.backend;
          partitions = n;
          durability = `Image;
        }
      ()

(* [stepper]: [None] runs the posting kernel, [Some mode] the reference
   stepper ([Ode_reference.Stepper]) in that mode. *)
let run ?stepper ?partitions ~backend case =
  let log = ref [] in
  let db = create_db ?partitions ~backend () in
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
(* post_many across domain counts                                      *)
(* ------------------------------------------------------------------ *)

type batch_case = {
  btriggers : (Expr.t * bool * bool * bool) list;
  batch1 : (int * bool * int) list;  (* object index, f-or-g, g's argument *)
  batch2 : (int * bool * int) list;  (* posted in a second, aborted txn *)
}

let n_batch_objects = 8

(* Run both batches through [post_many] — the second in a transaction
   that aborts, exercising the merged per-shard undo segments — and
   summarise every observable, the exact counters included. *)
let run_batch ?stepper ?partitions ~backend ~domains case =
  let log = ref [] in
  let db = create_db ?partitions ~backend () in
  Option.iter (Stepper.install db) stepper;
  D.set_post_domains db domains;
  (* make the domain count real even on a small box: no core-count
     clamp, no sequential fallback for small batches — these
     properties exist to drive the parallel machinery *)
  D.set_domain_clamp db false;
  D.set_parallel_threshold db 0;
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
  (* the persist image pins the exact post-batch state words: a domain
     count or path switch that corrupted even one automaton cell would
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
  D.shutdown_pool db;
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

let heap_equals_sharded =
  QCheck.Test.make ~count:40 ~name:"Heap = Sharded (firings, states, persist bytes)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      let h = run ~backend:`Heap case in
      h = run ~backend:(`Sharded 4) case && h = run ~backend:(`Sharded 3) case)

let post_many_domains_equal =
  QCheck.Test.make ~count:40 ~name:"post_many: 1 domain = 4 domains = Heap"
    (QCheck.make ~print:print_batch_case gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.btriggers);
      let d1 = run_batch ~backend:(`Sharded 8) ~domains:1 case in
      d1 = run_batch ~backend:(`Sharded 8) ~domains:4 case
      && d1 = run_batch ~backend:`Heap ~domains:4 case)

(* The posting kernel against the reference stepper, on both backends:
   same firings in the same order, same states, same object listings,
   same byte-identical persist image — in the stepper's [Index] mode
   and in its brute-force [Scan] mode. The state representation (SoA
   slots) is shared by all paths, so the image comparison pins the
   kernel's in-place stepping to the exact words the stepper computes. *)
let kernel_equals_prekernel_backends =
  QCheck.Test.make ~count:30
    ~name:"posting kernel = pre-kernel path (both backends, persist bytes)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.triggers);
      let k = run ~backend:(`Sharded 4) case in
      k = run ~stepper:Stepper.Index ~backend:(`Sharded 4) case
      && k = run ~stepper:Stepper.Index ~backend:`Heap case
      && k = run ~stepper:Stepper.Scan ~backend:(`Sharded 4) case)

(* Likewise for the batch pipeline, exact observability counters
   included, across 1/4-domain step phases: the kernel's per-shard
   scratch accumulators must flush to the same totals the stepper
   records one event at a time. The [Scan] mode classifies every active
   trigger by design, so only its two dispatch counters may differ. *)
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
    ~name:"post_many: kernel = pre-kernel (1/4 domains, counters)"
    (QCheck.make ~print:print_batch_case gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all compiles case.btriggers);
      let k = run_batch ~backend:(`Sharded 8) ~domains:1 case in
      let index = run_batch ~stepper:Stepper.Index ~backend:(`Sharded 8) in
      k = index ~domains:1 case
      && k = index ~domains:4 case
      && k = run_batch ~stepper:Stepper.Index ~backend:`Heap ~domains:1 case
      && without_dispatch k
         = without_dispatch
             (run_batch ~stepper:Stepper.Scan ~backend:(`Sharded 8) ~domains:4 case))

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
      let _, _, _, _, _, counters, _, _ =
        run_batch ~backend:(`Sharded 8) ~domains:2 case
      in
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

let test_backend_name () =
  let db = D.create_db ~backend:`Heap () in
  Alcotest.(check string) "heap" "heap" (D.backend_name db);
  let db = D.create_db ~backend:(`Sharded 4) () in
  Alcotest.(check string) "sharded" "sharded:4" (D.backend_name db)

(* [cardinal]/[mem]/enumeration at the Store layer, on both backends:
   committed deletes keep the record (mem true, default cardinal counts
   it) but leave the live count and listings. *)
let test_store_primitives () =
  List.iter
    (fun spec ->
      let db = D.create_db ~backend:spec () in
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
      Alcotest.(check bool) "exists false" false (D.exists db (List.nth oids 3)))
    [ `Heap; `Sharded 4 ]

let test_store_layer_cardinal_mem () =
  List.iter
    (fun spec ->
      let db = Types.make_db ~backend:(Store.backend_of spec) () in
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
      Alcotest.(check int) "aborted create cardinal" 10 (Store.cardinal db))
    [ `Heap; `Sharded 4 ]

let test_shard_partition () =
  let db = Types.make_db ~backend:(Store.backend_of (`Sharded 4)) () in
  Schema.register_class db (simple_schema_class ());
  Alcotest.(check int) "shards" 4 (Store.shards db);
  let oids =
    expect_ok
      (Txn.with_txn db (fun _ -> List.init 8 (fun _ -> Engine.create db "c" [])))
  in
  (* a monotone oid stream round-robins the shards *)
  let shard_counts = Array.make 4 0 in
  List.iter
    (fun oid ->
      let s = Store.shard_of db oid in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
      shard_counts.(s) <- shard_counts.(s) + 1)
    oids;
  Array.iter (fun n -> Alcotest.(check int) "balanced" 2 n) shard_counts;
  let db_heap = Types.make_db ~backend:(Store.backend_of `Heap) () in
  Alcotest.(check int) "heap is one shard" 1 (Store.shards db_heap);
  Alcotest.(check int) "heap shard_of" 0 (Store.shard_of db_heap 17)

let test_env_selector () =
  let with_env v f =
    let old = Sys.getenv_opt "ODE_STORE_BACKEND" in
    Unix.putenv "ODE_STORE_BACKEND" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "ODE_STORE_BACKEND" (Option.value ~default:"" old))
      f
  in
  with_env "heap" (fun () ->
      Alcotest.(check bool) "heap" true (Store.default_spec () = `Heap));
  with_env "sharded" (fun () ->
      Alcotest.(check bool)
        "sharded default" true
        (Store.default_spec () = `Sharded Store.default_shards));
  with_env "sharded:3" (fun () ->
      Alcotest.(check bool) "sharded:3" true (Store.default_spec () = `Sharded 3));
  with_env "bogus" (fun () ->
      Alcotest.check_raises "bogus rejected"
        (Types.Ode_error "ODE_STORE_BACKEND: unknown backend \"bogus\"")
        (fun () -> ignore (Store.default_spec ())));
  with_env "sharded:0" (fun () ->
      Alcotest.check_raises "zero shards rejected"
        (Types.Ode_error "ODE_STORE_BACKEND: bad shard count in \"sharded:0\"")
        (fun () -> ignore (Store.default_spec ())))

(* The pool itself: every task runs exactly once, failures propagate
   after the join, shutdown is idempotent. *)
let test_pool () =
  let p = Pool.create ~size:4 in
  Alcotest.(check int) "size" 4 (Pool.size p);
  let hits = Array.make 64 0 in
  Pool.run p ~tasks:64 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iter (fun n -> Alcotest.(check int) "each task once" 1 n) hits;
  (* reuse across batches *)
  let total = Atomic.make 0 in
  Pool.run p ~tasks:10 (fun _ -> Atomic.incr total);
  Alcotest.(check int) "second batch" 10 (Atomic.get total);
  (* a failing task does not lose the others, and the exception surfaces *)
  let ran = Atomic.make 0 in
  (match
     Pool.run p ~tasks:8 (fun i ->
         Atomic.incr ran;
         if i = 3 then failwith "task 3 failed")
   with
  | () -> Alcotest.fail "expected the task failure to propagate"
  | exception Failure msg -> Alcotest.(check string) "message" "task 3 failed" msg);
  Alcotest.(check int) "all tasks still ran" 8 (Atomic.get ran);
  (* static distribution: same run-once contract on a task count that is
     not a multiple of the pool size *)
  let shits = Array.make 13 0 in
  Pool.run_static p ~tasks:13 (fun i -> shits.(i) <- shits.(i) + 1);
  Array.iter (fun n -> Alcotest.(check int) "static task once" 1 n) shits;
  let sran = Atomic.make 0 in
  (match
     Pool.run_static p ~tasks:8 (fun i ->
         Atomic.incr sran;
         if i = 5 then failwith "static task 5 failed")
   with
  | () -> Alcotest.fail "expected the static task failure to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "static message" "static task 5 failed" msg);
  Alcotest.(check int) "static siblings still ran" 8 (Atomic.get sran);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

(* Persist round-trip across backends: an image saved from one backend
   loads into the other and detection picks up mid-sequence. *)
let test_cross_backend_image () =
  let fired = ref 0 in
  let mk backend =
    let db = D.create_db ~backend () in
    let b = D.define_class "c" in
    let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b "t" ~event:"after f ; after g" ~action:(fun _ _ -> incr fired)
    in
    D.register_class db b;
    db
  in
  let db = mk (`Sharded 4) in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "c" [] in
           D.activate db oid "t" [];
           ignore (D.call db oid "f" []);
           oid))
  in
  let tmp = Filename.temp_file "ode_shard" ".img" in
  D.save db tmp;
  let db2 = mk `Heap in
  D.load db2 tmp;
  Sys.remove tmp;
  expect_ok (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "g" [])));
  Alcotest.(check int) "sequence completed after reload" 1 !fired

let suite =
  [
    Alcotest.test_case "backend names" `Quick test_backend_name;
    Alcotest.test_case "store primitives on both backends" `Quick test_store_primitives;
    Alcotest.test_case "cardinal and mem" `Quick test_store_layer_cardinal_mem;
    Alcotest.test_case "shard partition" `Quick test_shard_partition;
    Alcotest.test_case "ODE_STORE_BACKEND selector" `Quick test_env_selector;
    Alcotest.test_case "domain pool" `Quick test_pool;
    Alcotest.test_case "cross-backend image" `Quick test_cross_backend_image;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        heap_equals_sharded;
        post_many_domains_equal;
        kernel_equals_prekernel_backends;
        kernel_equals_prekernel_batches;
        all_expressions_flat;
        batch_steps_all_slots;
      ]
