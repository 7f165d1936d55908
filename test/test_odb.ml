(* The Ode substrate: transactions, locking, undo, trigger firing,
   transaction events, time events, persistence. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module P = Ode_lang.Parser

let counter_class ?(triggers = fun b -> b) () =
  D.define_class "counter"
    ~constructor:(fun db oid _args -> D.set_field db oid "n" (Value.Int 0))
  |> (fun b -> D.field b "n" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "incr" (fun db oid _ ->
           let n = Value.to_int (D.get_field db oid "n") + 1 in
           D.set_field db oid "n" (Value.Int n);
           Value.Int n))
  |> (fun b ->
       D.method_ b ~kind:D.Read_only "get" (fun db oid _ -> D.get_field db oid "n"))
  |> triggers

let fresh_db ?triggers () =
  let db = D.create_db () in
  D.register_class db (counter_class ?triggers ());
  db

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let test_basics () =
  let db = fresh_db () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           Alcotest.(check bool) "exists" true (D.exists db oid);
           Alcotest.(check string) "class" "counter" (D.class_of db oid);
           ignore (D.call db oid "incr" []);
           ignore (D.call db oid "incr" []);
           Alcotest.(check bool)
             "value" true
             (Value.equal (D.call db oid "get" []) (Value.Int 2));
           oid))
  in
  (* committed state survives into the next transaction *)
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool)
           "persisted" true
           (Value.equal (D.get_field db oid "n") (Value.Int 2))))

let test_errors () =
  let db = fresh_db () in
  Alcotest.check_raises "no txn"
    (D.Ode_error "this operation requires an active transaction") (fun () ->
      ignore (D.create db "counter" []));
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.check_raises "unknown class" (D.Ode_error "no such class nope")
           (fun () -> ignore (D.create db "nope" []));
         let oid = D.create db "counter" [] in
         Alcotest.check_raises "unknown method"
           (D.Ode_error "class counter has no method nope") (fun () ->
             ignore (D.call db oid "nope" []));
         Alcotest.check_raises "unknown field"
           (D.Ode_error "class counter has no field nope") (fun () ->
             ignore (D.get_field db oid "nope"))))

let test_abort_rolls_back () =
  let db = fresh_db () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           ignore (D.call db oid "incr" []);
           oid))
  in
  (* an explicit abort undoes the increments *)
  let tx = D.begin_txn db in
  ignore (D.call db oid "incr" []);
  ignore (D.call db oid "incr" []);
  Alcotest.(check bool) "visible inside" true (Value.equal (D.get_field db oid "n") (Value.Int 3));
  D.abort db tx;
  Alcotest.(check bool) "rolled back" true (Value.equal (D.get_field db oid "n") (Value.Int 1))

let test_abort_removes_created () =
  let db = fresh_db () in
  let tx = D.begin_txn db in
  let oid = D.create db "counter" [] in
  D.abort db tx;
  Alcotest.(check bool) "creation undone" false (D.exists db oid)

let test_abort_restores_deleted () =
  let db = fresh_db () in
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "counter" [])) in
  let tx = D.begin_txn db in
  D.delete db oid;
  Alcotest.(check bool) "deleted inside" false (D.exists db oid);
  D.abort db tx;
  Alcotest.(check bool) "restored" true (D.exists db oid);
  expect_ok (D.with_txn db (fun _ -> D.delete db oid));
  Alcotest.(check bool) "really deleted" false (D.exists db oid)

let test_tabort_exception () =
  let db = fresh_db () in
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "counter" [])) in
  let result =
    D.with_txn db (fun _ ->
        ignore (D.call db oid "incr" []);
        raise D.Tabort)
  in
  Alcotest.(check bool) "aborted" true (result = Error `Aborted);
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool)
           "rolled back" true
           (Value.equal (D.get_field db oid "n") (Value.Int 0))))

let test_lock_conflict () =
  let db = fresh_db () in
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "counter" [])) in
  let tx1 = D.begin_txn db in
  ignore (D.call db oid "incr" []);
  let tx2 = D.begin_txn db in
  (* tx2 is now current; an updating call must hit tx1's exclusive lock *)
  Alcotest.check_raises "write-write conflict" (D.Lock_conflict oid) (fun () ->
      ignore (D.call db oid "incr" []));
  D.abort db tx2;
  D.switch_txn db tx1;
  ignore (D.call db oid "incr" []);
  expect_ok (D.commit db tx1);
  (* shared readers coexist *)
  let tx3 = D.begin_txn db in
  ignore (D.call db oid "get" []);
  let tx4 = D.begin_txn db in
  ignore (D.call db oid "get" []);
  (* but a writer cannot upgrade past another reader *)
  Alcotest.check_raises "read-write conflict" (D.Lock_conflict oid) (fun () ->
      ignore (D.call db oid "incr" []));
  D.abort db tx4;
  D.switch_txn db tx3;
  ignore (D.call db oid "incr" []) (* sole reader upgrades *);
  expect_ok (D.commit db tx3)

let test_simple_trigger () =
  let fired = ref 0 in
  let triggers b =
    D.trigger b ~perpetual:true "T" ~event:(Ode_event.Expr.after "incr")
      ~action:(fun _ _ -> incr fired)
  in
  let db = fresh_db ~triggers () in
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "counter" [] in
         D.activate db oid "T" [];
         ignore (D.call db oid "incr" []);
         ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "fired per call" 2 !fired

let test_once_trigger_and_reactivation () =
  let fired = ref 0 in
  let triggers b =
    D.trigger b "T" ~event:(Ode_event.Expr.after "incr") ~action:(fun _ _ -> incr fired)
  in
  let db = fresh_db ~triggers () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "T" [];
           ignore (D.call db oid "incr" []);
           ignore (D.call db oid "incr" []);
           oid))
  in
  Alcotest.(check int) "ordinary trigger fires once" 1 !fired;
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool) "deactivated" false (D.is_active db oid "T");
         D.activate db oid "T" [];
         ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "reactivated fires again" 2 !fired

let test_trigger_state_words () =
  let triggers b =
    D.trigger b "T"
      ~event:(P.parse_event "after tbegin; before update; after update; before tcomplete")
      ~action:(fun _ _ -> ())
  in
  let db = fresh_db ~triggers () in
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "counter" [] in
         D.activate db oid "T" [];
         Alcotest.(check int)
           "one word per active trigger per object (§5)" 1
           (D.trigger_state_words db oid "T")))

let test_transaction_events () =
  (* the paper's §3.4 example: a transaction that begins, performs exactly
     one (update) access, and completes *)
  let fired = ref [] in
  let triggers b =
    D.trigger b ~perpetual:true "minimal"
      ~event:
        (P.parse_event
           "after tbegin; before access; before update; before incr; after incr; \
            after update; after access; before tcomplete")
      ~action:(fun db ctx -> fired := (ctx.D.fc_oid, D.now db) :: !fired)
  in
  let db = fresh_db ~triggers () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "minimal" [];
           oid))
  in
  (* a transaction doing exactly one incr fires it *)
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "minimal txn detected" 1 (List.length !fired);
  (* two incrs break the adjacency *)
  expect_ok
    (D.with_txn db (fun _ ->
         ignore (D.call db oid "incr" []);
         ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "busier txn not detected" 1 (List.length !fired)

let test_committed_mode_rollback () =
  (* choose 2 (after incr) in committed mode: an aborted incr must not
     consume the count. *)
  let fired = ref 0 in
  let triggers b =
    D.trigger b ~perpetual:true ~mode:Ode_event.Detector.Committed "second"
      ~event:(Ode_event.Expr.choose 2 (Ode_event.Expr.after "incr"))
      ~action:(fun _ _ -> incr fired)
  in
  let db = fresh_db ~triggers () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "second" [];
           ignore (D.call db oid "incr" []);
           oid))
  in
  (* aborted second incr: fires inside the doomed transaction but the
     detection state rolls back *)
  let tx = D.begin_txn db in
  ignore (D.call db oid "incr" []);
  D.abort db tx;
  Alcotest.(check int) "fired optimistically" 1 !fired;
  (* the next committed incr is (again) the second: fires once more *)
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "fired after rollback" 2 !fired;
  (* and in full-history mode the aborted incr would have consumed it: *)
  let fired_full = ref 0 in
  let db2 =
    let t b =
      D.trigger b ~perpetual:true "second"
        ~event:(Ode_event.Expr.choose 2 (Ode_event.Expr.after "incr"))
        ~action:(fun _ _ -> incr fired_full)
    in
    fresh_db ~triggers:t ()
  in
  let oid2 =
    expect_ok
      (D.with_txn db2 (fun _ ->
           let o = D.create db2 "counter" [] in
           D.activate db2 o "second" [];
           ignore (D.call db2 o "incr" []);
           o))
  in
  let tx2 = D.begin_txn db2 in
  ignore (D.call db2 oid2 "incr" []);
  D.abort db2 tx2;
  expect_ok (D.with_txn db2 (fun _ -> ignore (D.call db2 oid2 "incr" [])));
  Alcotest.(check int) "full history counts the aborted incr" 1 !fired_full

let test_tabort_from_action () =
  (* T1-style: an unauthorized update aborts the transaction. *)
  let triggers b =
    D.trigger b ~perpetual:true "guard"
      ~event:
        (Ode_event.Expr.before
           ~mask:Ode_event.Mask.(Not (Call ("authorized", [])))
           "incr")
      ~action:(fun _ _ -> raise D.Tabort)
  in
  let db = fresh_db ~triggers () in
  let allowed = ref true in
  D.register_fun db "authorized" (fun _ _ -> Value.Bool !allowed);
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "guard" [];
           ignore (D.call db oid "incr" []);
           oid))
  in
  allowed := false;
  let result = D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])) in
  Alcotest.(check bool) "aborted by trigger" true (result = Error `Aborted);
  allowed := true;
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool)
           "only the authorized incr persisted" true
           (Value.equal (D.get_field db oid "n") (Value.Int 1))))

let test_tcomplete_cascade () =
  (* A deferred trigger whose action performs another update: the next
     before-tcomplete round sees it; the rounds terminate. *)
  let triggers b =
    D.trigger b "flush"
      ~event:(P.parse_event "fa(after incr, before tcomplete, after tbegin)")
      ~action:(fun db ctx ->
        ignore (D.call db ctx.D.fc_oid "incr" []))
  in
  let db = fresh_db ~triggers () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "flush" [];
           ignore (D.call db oid "incr" []);
           oid))
  in
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool)
           "deferred action ran before commit" true
           (Value.equal (D.get_field db oid "n") (Value.Int 2))))

let test_firings_log () =
  let triggers b =
    D.trigger b ~perpetual:true "T" ~event:(Ode_event.Expr.after "incr")
      ~action:(fun _ _ -> ())
  in
  let db = fresh_db ~triggers () in
  let seen = ref [] in
  let sub = D.subscribe_firings db (fun f -> seen := f :: !seen) in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "T" [];
           ignore (D.call db oid "incr" []);
           oid))
  in
  (match !seen with
  | [ f ] ->
    Alcotest.(check string) "trigger name" "T" f.D.f_trigger;
    Alcotest.(check string) "class" "counter" f.D.f_class
  | fs -> Alcotest.failf "expected one firing, got %d" (List.length fs));
  D.unsubscribe db sub;
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "unsubscribed: no further deliveries" 1
    (List.length !seen)

let test_parameter_collection () =
  (* §9: arguments carried by constituent events are collected and handed
     to the action when the composite fires. *)
  let seen = ref [] in
  let db = D.create_db () in
  D.register_class db
    (D.define_class "ledger"
    |> (fun b -> D.method_ b ~kind:D.Updating "credit" (fun _ _ _ -> Value.Unit))
    |> (fun b -> D.method_ b ~kind:D.Updating "debit" (fun _ _ _ -> Value.Unit))
    |> fun b ->
    D.trigger b ~perpetual:true "transfer"
      ~event:(P.parse_event "after credit(dst, q1); after debit(src, q2)")
      ~action:(fun _ ctx -> seen := ctx.D.fc_collected :: !seen));
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "ledger" [] in
         D.activate db oid "transfer" [];
         ignore (D.call db oid "credit" [ Value.Oid 7; Value.Int 100 ]);
         ignore (D.call db oid "debit" [ Value.Oid 9; Value.Int 100 ])));
  match !seen with
  | [ collected ] ->
    let get name = List.assoc name collected in
    Alcotest.(check bool) "dst" true (Value.equal (get "dst") (Value.Oid 7));
    Alcotest.(check bool) "q1" true (Value.equal (get "q1") (Value.Int 100));
    Alcotest.(check bool) "src" true (Value.equal (get "src") (Value.Oid 9));
    Alcotest.(check bool) "q2" true (Value.equal (get "q2") (Value.Int 100))
  | fs -> Alcotest.failf "expected one firing, got %d" (List.length fs)

let test_collection_latest_wins () =
  let seen = ref [] in
  let db = D.create_db () in
  D.register_class db
    (D.define_class "c"
    |> (fun b -> D.method_ b ~kind:D.Updating "put" (fun _ _ _ -> Value.Unit))
    |> fun b ->
    D.trigger b ~perpetual:true "third"
      ~event:(P.parse_event "choose 3 (after put(x))")
      ~action:(fun _ ctx -> seen := List.assoc "x" ctx.D.fc_collected :: !seen));
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "c" [] in
         D.activate db oid "third" [];
         List.iter
           (fun v -> ignore (D.call db oid "put" [ Value.Int v ]))
           [ 10; 20; 30 ]));
  Alcotest.(check bool)
    "the completing occurrence's value" true
    (!seen = [ Value.Int 30 ])

let test_action_exception_propagates () =
  (* a non-Tabort exception from an action aborts the transaction and
     re-raises to the caller *)
  let triggers b =
    D.trigger b ~perpetual:true "boom" ~event:(Ode_event.Expr.after "incr")
      ~action:(fun _ _ -> failwith "action crashed")
  in
  let db = fresh_db ~triggers () in
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           ignore (D.call db oid "incr" []);
           D.activate db oid "boom" [];
           oid))
  in
  (match D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])) with
  | _ -> Alcotest.fail "exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "propagated" "action crashed" msg);
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check bool)
           "transaction was rolled back" true
           (Value.equal (D.get_field db oid "n") (Value.Int 1))))

let test_mask_eval_failure () =
  (* a mask calling an unregistered function surfaces as Ode_error *)
  let triggers b =
    D.trigger b ~perpetual:true "bad"
      ~event:
        (Ode_event.Expr.before
           ~mask:(Ode_event.Mask.Call ("no_such_function", []))
           "incr")
      ~action:(fun _ _ -> ())
  in
  let db = fresh_db ~triggers () in
  let raised =
    match
      D.with_txn db (fun _ ->
          let oid = D.create db "counter" [] in
          D.activate db oid "bad" [];
          ignore (D.call db oid "incr" []))
    with
    | _ -> false
    | exception D.Ode_error _ -> true
  in
  Alcotest.(check bool) "mask failure reported" true raised

let test_interleaved_committed_rollback () =
  (* two interleaved transactions on different objects, each advancing a
     Committed-mode counter; aborting one must roll back only its own
     object's detection state *)
  let fired = ref [] in
  let triggers b =
    D.trigger b ~perpetual:true ~mode:Ode_event.Detector.Committed "second"
      ~event:(Ode_event.Expr.choose 2 (Ode_event.Expr.after "incr"))
      ~action:(fun _ ctx -> fired := ctx.D.fc_oid :: !fired)
  in
  let db = fresh_db ~triggers () in
  let mk () =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "counter" [] in
           D.activate db oid "second" [];
           oid))
  in
  let a = mk () and b = mk () in
  let tx1 = D.begin_txn db in
  ignore (D.call db a "incr" []);
  let tx2 = D.begin_txn db in
  ignore (D.call db b "incr" []);
  (* abort tx1: a's count rolls back to 0; commit tx2: b keeps 1 *)
  D.abort db tx1;
  D.switch_txn db tx2;
  expect_ok (D.commit db tx2);
  expect_ok
    (D.with_txn db (fun _ ->
         ignore (D.call db a "incr" []);
         ignore (D.call db b "incr" [])));
  (* b reached its 2nd committed incr; a only its 1st *)
  Alcotest.(check (list int)) "only b fired" [ b ] !fired;
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db a "incr" [])));
  Alcotest.(check (list int)) "then a fires on its true 2nd" [ a; b ] !fired

let test_read_events () =
  (* read-only methods post read events, updating ones post update events *)
  let reads = ref 0 and updates = ref 0 in
  let triggers b =
    D.trigger b ~perpetual:true "r" ~event:(P.parse_event "after read")
      ~action:(fun _ _ -> incr reads)
    |> fun b ->
    D.trigger b ~perpetual:true "u" ~event:(P.parse_event "after update")
      ~action:(fun _ _ -> incr updates)
  in
  let db = fresh_db ~triggers () in
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "counter" [] in
         D.activate db oid "r" [];
         D.activate db oid "u" [];
         ignore (D.call db oid "get" []);
         ignore (D.call db oid "get" []);
         ignore (D.call db oid "incr" [])));
  Alcotest.(check int) "reads" 2 !reads;
  Alcotest.(check int) "updates" 1 !updates

let test_state_event_trigger () =
  (* the paper's pre-composite Ode trigger form: a bare boolean over the
     object state, i.e. (after update | after create) && balance < 500 *)
  let alerts = ref 0 in
  let db = D.create_db () in
  D.register_class db
    (D.define_class "account"
       ~constructor:(fun db oid _ -> D.activate db oid "low" [])
    |> (fun b -> D.field b "balance" (Value.Int 1000))
    |> (fun b ->
         D.method_ b ~arity:1 ~kind:D.Updating "set" (fun db oid args ->
             D.set_field db oid "balance" (List.hd args);
             Value.Unit))
    |> fun b ->
    D.trigger_str b ~perpetual:true "low" ~event:"balance < 500"
      ~action:(fun _ _ -> incr alerts));
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "account" [])) in
  Alcotest.(check int) "created above the bar" 0 !alerts;
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "set" [ Value.Int 700 ])));
  Alcotest.(check int) "still above" 0 !alerts;
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "set" [ Value.Int 300 ])));
  Alcotest.(check int) "below fires" 1 !alerts;
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "set" [ Value.Int 100 ])));
  Alcotest.(check int) "fires per qualifying update" 2 !alerts;
  (* creating an account already below the bar fires via after create *)
  let db2 = D.create_db () in
  let alerts2 = ref 0 in
  D.register_class db2
    (D.define_class "account"
       ~constructor:(fun db oid _ ->
         D.set_field db oid "balance" (Value.Int 100);
         D.activate db oid "low" [])
    |> (fun b -> D.field b "balance" (Value.Int 1000))
    |> fun b ->
    D.trigger_str b ~perpetual:true "low" ~event:"balance < 500"
      ~action:(fun _ _ -> incr alerts2));
  ignore (expect_ok (D.with_txn db2 (fun _ -> D.create db2 "account" [])));
  Alcotest.(check int) "after create sees the state" 1 !alerts2

let test_witness_trigger () =
  (* ~witnesses:true: the action receives one binding environment per way
     the composite matched — both pending transfers complete on the debit *)
  let seen = ref [] in
  let db = D.create_db () in
  D.register_class db
    (D.define_class "ledger"
    |> (fun b -> D.method_ b ~kind:D.Updating "credit" (fun _ _ _ -> Value.Unit))
    |> (fun b -> D.method_ b ~kind:D.Updating "debit" (fun _ _ _ -> Value.Unit))
    |> fun b ->
    D.trigger b ~perpetual:true ~witnesses:true "transfer"
      ~event:(P.parse_event "relative(after credit(dst, q), after debit(src, p))")
      ~action:(fun _ ctx ->
        match ctx.D.fc_witnesses with
        | Some ws -> seen := ws :: !seen
        | None -> Alcotest.fail "witnesses missing"));
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "ledger" [] in
         D.activate db oid "transfer" [];
         ignore (D.call db oid "credit" [ Value.Oid 7; Value.Int 10 ]);
         ignore (D.call db oid "credit" [ Value.Oid 9; Value.Int 20 ]);
         ignore (D.call db oid "debit" [ Value.Oid 3; Value.Int 30 ])));
  match !seen with
  | [ ws ] ->
    Alcotest.(check int) "two witnesses" 2 (List.length ws);
    let dsts = List.sort compare (List.map (fun b -> List.assoc "dst" b) ws) in
    Alcotest.(check bool) "both credits witnessed" true
      (dsts = [ Value.Oid 7; Value.Oid 9 ])
  | firings -> Alcotest.failf "expected one firing, got %d" (List.length firings)

let test_stats () =
  let triggers b =
    D.trigger b ~perpetual:true "T" ~event:(Ode_event.Expr.after "incr")
      ~action:(fun _ _ -> ())
  in
  let db = fresh_db ~triggers () in
  expect_ok
    (D.with_txn db (fun _ ->
         for _ = 1 to 5 do
           let oid = D.create db "counter" [] in
           D.activate db oid "T" []
         done));
  let s = D.stats db in
  Alcotest.(check int) "objects" 5 s.D.n_objects;
  Alcotest.(check int) "activations" 5 s.D.n_active_triggers;
  Alcotest.(check int) "8 bytes per activation" 40 s.D.state_bytes

(* An empty batch is a no-op at the engine layer: it still requires a
   transaction, but posts nothing, fires nothing and, under WAL
   durability, logs nothing. *)
let test_empty_post_many () =
  let dir = Filename.temp_file "ode_odb" "" in
  Sys.remove dir;
  let wal = Ode_odb.Wal.config ~flush_ms:0 ~sync_on_flush:false dir in
  let db = D.create_db ~config:{ D.Config.default with D.Config.durability = `Wal wal } () in
  D.register_class db (counter_class ());
  D.set_observability db true;
  (match D.post_many db [] with
  | _ -> Alcotest.fail "expected Ode_error outside a transaction"
  | exception D.Ode_error _ -> ());
  let get c = Ode_obs.Registry.get (D.observe db) c in
  expect_ok
    (D.with_txn db (fun _ ->
         let posts = get Ode_obs.Registry.Posts in
         let batches = get Ode_obs.Registry.Wal_batches in
         Alcotest.(check int) "no-op batch" 0 (D.post_many db []);
         Alcotest.(check int) "posts nothing" posts (get Ode_obs.Registry.Posts);
         Alcotest.(check int) "logs nothing" batches
           (get Ode_obs.Registry.Wal_batches)));
  D.close_durability db

let suite =
  [
    Alcotest.test_case "create/call/commit" `Quick test_basics;
    Alcotest.test_case "schema errors" `Quick test_errors;
    Alcotest.test_case "abort rolls back fields" `Quick test_abort_rolls_back;
    Alcotest.test_case "abort removes created objects" `Quick test_abort_removes_created;
    Alcotest.test_case "abort restores deleted objects" `Quick test_abort_restores_deleted;
    Alcotest.test_case "tabort aborts via with_txn" `Quick test_tabort_exception;
    Alcotest.test_case "object-level locking" `Quick test_lock_conflict;
    Alcotest.test_case "simple trigger" `Quick test_simple_trigger;
    Alcotest.test_case "once-trigger and reactivation" `Quick test_once_trigger_and_reactivation;
    Alcotest.test_case "one word of state (§5)" `Quick test_trigger_state_words;
    Alcotest.test_case "transaction events (§3.4)" `Quick test_transaction_events;
    Alcotest.test_case "committed mode rollback (§6)" `Quick test_committed_mode_rollback;
    Alcotest.test_case "tabort from trigger action" `Quick test_tabort_from_action;
    Alcotest.test_case "tcomplete cascade (§6)" `Quick test_tcomplete_cascade;
    Alcotest.test_case "firing log" `Quick test_firings_log;
    Alcotest.test_case "parameter collection (§9)" `Quick test_parameter_collection;
    Alcotest.test_case "collection keeps latest" `Quick test_collection_latest_wins;
    Alcotest.test_case "action exceptions propagate" `Quick test_action_exception_propagates;
    Alcotest.test_case "mask evaluation failure" `Quick test_mask_eval_failure;
    Alcotest.test_case "interleaved committed rollback" `Quick test_interleaved_committed_rollback;
    Alcotest.test_case "read/update event kinds" `Quick test_read_events;
    Alcotest.test_case "state events (bare boolean)" `Quick test_state_event_trigger;
    Alcotest.test_case "witness triggers (§9 provenance)" `Quick test_witness_trigger;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "empty post_many" `Quick test_empty_post_many;
  ]
