(* §3 "events have a scope": database-scope triggers, and the §9 recorded
   event histories with their query combinators. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module P = Ode_lang.Parser

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let widget_class name =
  D.define_class name
  |> (fun b -> D.field b "n" (Value.Int 0))
  |> fun b ->
  D.method_ b ~kind:D.Updating "poke" (fun _ _ _ -> Value.Unit)

let test_schema_events () =
  let db = D.create_db () in
  let defined = ref [] in
  D.db_trigger_str db ~perpetual:true "schema_watch" ~event:"after defclass"
    ~action:(fun _ ctx ->
      match ctx.D.fc_occurrence.args with
      | [ Value.String name ] -> defined := name :: !defined
      | _ -> ());
  D.activate_db_trigger db "schema_watch" [];
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  Alcotest.(check (list string)) "classes announced" [ "b"; "a" ] !defined

let test_creation_census () =
  (* the 3rd object created anywhere in the database *)
  let db = D.create_db () in
  let hits = ref [] in
  D.db_trigger_str db ~perpetual:true "third_object" ~event:"choose 3 (after create)"
    ~action:(fun _ ctx -> hits := ctx.D.fc_oid :: !hits);
  D.activate_db_trigger db "third_object" [];
  D.register_class db (widget_class "w");
  let oids =
    expect_ok
      (D.with_txn db (fun _ -> List.init 4 (fun _ -> D.create db "w" [])))
  in
  (match oids with
  | [ _; _; third; _ ] -> Alcotest.(check (list int)) "third object" [ third ] !hits
  | _ -> Alcotest.fail "expected 4 oids");
  (* deletion is observed too *)
  let deleted = ref 0 in
  D.db_trigger_str db ~perpetual:true "grave" ~event:"before delete"
    ~action:(fun _ _ -> incr deleted);
  D.activate_db_trigger db "grave" [];
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.hd oids)));
  Alcotest.(check int) "delete observed" 1 !deleted

(* Two database-scope automata stepped by object events: a [sequence]
   (a creation, then a deletion — of any objects) and [choose 3]
   (every third creation, the perpetual trigger re-arming after each
   firing). The exact (trigger, oid) firing list is pinned, in order. *)
let test_db_sequence_and_choose () =
  let db = D.create_db () in
  let fired = ref [] in
  D.register_class db (widget_class "w");
  D.db_trigger_str db ~perpetual:true "seq" ~event:"after create ; before delete"
    ~action:(fun _ ctx -> fired := ("seq", ctx.D.fc_oid) :: !fired);
  D.activate_db_trigger db "seq" [];
  D.db_trigger_str db ~perpetual:true "third" ~event:"choose 3 (after create)"
    ~action:(fun _ ctx -> fired := ("third", ctx.D.fc_oid) :: !fired);
  D.activate_db_trigger db "third" [];
  let oids =
    expect_ok (D.with_txn db (fun _ -> List.init 4 (fun _ -> D.create db "w" [])))
  in
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 1)));
  expect_ok (D.with_txn db (fun _ -> ignore (D.create db "w" [])));
  expect_ok (D.with_txn db (fun _ -> ignore (D.create db "w" [])));
  expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 3)));
  (* choose 3 denotes the third creation of the whole history only; the
     sequence re-arms on the creations after its first firing *)
  Alcotest.(check (list (pair string int)))
    "firings, in order"
    [ ("third", List.nth oids 2); ("seq", List.nth oids 1); ("seq", List.nth oids 3) ]
    (List.rev !fired)

let test_db_trigger_masks () =
  (* the mask filters by class name through the occurrence argument *)
  let db = D.create_db () in
  let hits = ref 0 in
  D.db_trigger_str db ~perpetual:true "only_b" ~event:"after create(o, cls) && cls == \"b\""
    ~action:(fun _ _ -> incr hits);
  D.activate_db_trigger db "only_b" [];
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  expect_ok
    (D.with_txn db (fun _ ->
         ignore (D.create db "a" []);
         ignore (D.create db "b" []);
         ignore (D.create db "a" [])));
  Alcotest.(check int) "only class b counted" 1 !hits

(* --- database-scope witness tracking (§9 provenance at db scope) --- *)

let test_db_witnesses () =
  let db = D.create_db () in
  let seen = ref [] in
  D.db_trigger_str db ~witnesses:true "pairs"
    ~event:"after create(o, cls); after create"
    ~action:(fun _ ctx ->
      match ctx.D.fc_witnesses with
      | Some ws -> seen := ws :: !seen
      | None -> Alcotest.fail "witnesses missing on db-scope trigger");
  (* control: without ~witnesses the context must carry None *)
  D.db_trigger_str db ~perpetual:true "no_wit" ~event:"after create"
    ~action:(fun _ ctx ->
      match ctx.D.fc_witnesses with
      | None -> ()
      | Some _ -> Alcotest.fail "witnesses present without ~witnesses");
  D.activate_db_trigger db "pairs" [];
  D.activate_db_trigger db "no_wit" [];
  D.register_class db (widget_class "w");
  let oids =
    expect_ok (D.with_txn db (fun _ -> List.init 2 (fun _ -> D.create db "w" [])))
  in
  match (!seen, oids) with
  | [ ws ], [ first; _ ] ->
    Alcotest.(check bool) "at least one witness" true (ws <> []);
    Alcotest.(check bool) "first create witnessed" true
      (List.exists
         (fun b ->
           List.assoc_opt "o" b = Some (Value.Oid first)
           && List.assoc_opt "cls" b = Some (Value.String "w"))
         ws)
  | seen, _ -> Alcotest.failf "expected one firing, got %d" (List.length seen)

(* Parity: the [fc_witnesses] a db-scope trigger hands its action must
   equal a reference [Provenance] engine fed the same occurrence stream
   the engine posts ([Oid oid; String cls] arguments, §3 scope events).
   The trigger fires on {e every} relevant occurrence (top-level [|]),
   so each firing exposes the provenance state at that point. *)

type scope_op = Create_a | Create_b | Delete_nth of int

let gen_scope_ops =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (3, return Create_a);
           (3, return Create_b);
           (2, map (fun i -> Delete_nth i) (int_bound 11));
         ]))

let null_env : Ode_event.Mask.env =
  {
    var = (fun _ -> None);
    deref = (fun _ _ -> None);
    call = (fun _ _ -> raise (Ode_event.Mask.Eval_error "no functions"));
  }

let db_witness_parity =
  QCheck.Test.make ~count:60 ~name:"db-scope witnesses = reference provenance"
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | Create_a -> "create a"
                | Create_b -> "create b"
                | Delete_nth i -> Printf.sprintf "delete #%d" i)
              ops))
       gen_scope_ops)
    (fun ops ->
      let event = "after create(o, cls) | before delete(o2, cls2)" in
      let db = D.create_db () in
      let got = ref [] in
      D.db_trigger_str db ~perpetual:true ~witnesses:true "watch" ~event
        ~action:(fun _ ctx ->
          match ctx.D.fc_witnesses with
          | Some ws -> got := ws :: !got
          | None -> Alcotest.fail "witnesses missing");
      D.activate_db_trigger db "watch" [];
      D.register_class db (widget_class "a");
      D.register_class db (widget_class "b");
      (* the engine's stream, replayed for the reference *)
      let stream = ref [] in
      let live = ref [] in  (* oids in creation order, still live *)
      expect_ok
        (D.with_txn db (fun _ ->
             List.iter
               (fun op ->
                 match op with
                 | Create_a | Create_b ->
                   let cls = if op = Create_a then "a" else "b" in
                   let oid = D.create db cls [] in
                   live := !live @ [ (oid, cls) ];
                   stream :=
                     (Ode_event.Symbol.Create,
                      [ Value.Oid oid; Value.String cls ])
                     :: !stream
                 | Delete_nth i -> (
                   match List.nth_opt !live i with
                   | None -> ()
                   | Some (oid, cls) ->
                     live := List.filter (fun (o, _) -> o <> oid) !live;
                     D.delete db oid;
                     stream :=
                       (Ode_event.Symbol.Delete,
                        [ Value.Oid oid; Value.String cls ])
                       :: !stream))
               ops));
      let expr =
        match Ode_lang.Parser.event_of_string event with
        | Ok e -> e
        | Error msg -> Alcotest.failf "parse: %s" msg
      in
      let prov = Ode_event.Provenance.make expr in
      let expected =
        List.filter_map
          (fun (basic, args) ->
            match
              Ode_event.Provenance.post prov ~env:null_env
                { Ode_event.Symbol.basic; args; at = 0L }
            with
            | [] -> None
            | ws -> Some ws)
          (List.rev !stream)
      in
      List.rev !got = expected)

let test_history_recording () =
  let db = D.create_db ~start_time:1000L () in
  D.enable_history db ~limit:100;
  D.register_class db (widget_class "w");
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "w" [] in
           ignore (D.call db oid "poke" []);
           oid))
  in
  let h = D.object_history db oid in
  (* tbegin, create, baccess, bupdate, bpoke, apoke, aupdate, aaccess,
     btcomplete, then tcommit from the system txn *)
  Alcotest.(check int) "all events recorded" 10 (List.length h);
  Alcotest.(check int) "one poke pair" 2 (List.length (History.methods_named "poke" h));
  Alcotest.(check int) "transactional events" 3 (List.length (History.transactional h));
  (match History.last (fun _ -> true) h with
  | Some r ->
    Alcotest.(check bool)
      "last is tcommit" true
      (r.History.h_occurrence.Ode_event.Symbol.basic = Ode_event.Symbol.Tcommit)
  | None -> Alcotest.fail "history is empty");
  (* aborted work stays in the true history (§6) *)
  let tx = D.begin_txn db in
  ignore (D.call db oid "poke" []);
  D.abort db tx;
  let h2 = D.object_history db oid in
  Alcotest.(check bool)
    "aborted poke recorded" true
    (List.length (History.methods_named "poke" h2) = 4);
  Alcotest.(check int)
    "abort events recorded" 2
    (History.count
       (fun r ->
         match r.History.h_occurrence.Ode_event.Symbol.basic with
         | Ode_event.Symbol.Tabort _ -> true
         | _ -> false)
       h2)

let test_history_limit () =
  let db = D.create_db () in
  D.enable_history db ~limit:5;
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  for _ = 1 to 10 do
    expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "poke" [])))
  done;
  Alcotest.(check int) "bounded" 5 (List.length (D.object_history db oid))

let test_history_off_by_default () =
  let db = D.create_db () in
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  Alcotest.(check int) "no recording" 0 (List.length (D.object_history db oid))

let test_object_listing () =
  let db = D.create_db () in
  D.register_class db (widget_class "a");
  D.register_class db (widget_class "b");
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           let x = D.create db "a" [] in
           let y = D.create db "b" [] in
           let z = D.create db "a" [] in
           [ x; y; z ]))
  in
  (match oids with
  | [ x; y; z ] ->
    Alcotest.(check (list int)) "all objects" [ x; y; z ] (D.objects db);
    Alcotest.(check (list int)) "by class" [ x; z ] (D.objects_of_class db "a");
    expect_ok (D.with_txn db (fun _ -> D.delete db y));
    Alcotest.(check (list int)) "deleted objects drop out" [ x; z ] (D.objects db)
  | _ -> Alcotest.fail "expected 3 oids")

let test_history_queries () =
  let db = D.create_db ~start_time:100L () in
  D.enable_history db ~limit:100;
  D.register_class db (widget_class "w");
  let oid = expect_ok (D.with_txn db (fun _ -> D.create db "w" [])) in
  D.advance_clock db 900L;
  let tx = D.begin_txn db in
  let id = D.txn_id tx in
  ignore (D.call db oid "poke" []);
  (match D.commit db tx with Ok () -> () | Error `Aborted -> Alcotest.fail "abort");
  let h = D.object_history db oid in
  Alcotest.(check bool) "in_txn selects the poke txn" true
    (List.length (History.in_txn id h) > 0);
  Alcotest.(check int) "between selects by timestamp"
    (List.length (History.in_txn id h) + 1 (* + the system tcommit at t=1000 *))
    (List.length (History.between ~since:1000L ~until:2000L h));
  let total = History.fold (fun acc _ -> acc + 1) 0 h in
  Alcotest.(check int) "fold covers everything" (List.length h) total

let suite =
  [
    Alcotest.test_case "schema events" `Quick test_schema_events;
    Alcotest.test_case "creation census" `Quick test_creation_census;
    Alcotest.test_case "db-scope masks" `Quick test_db_trigger_masks;
    Alcotest.test_case "db-scope sequence and choose-n" `Quick
      test_db_sequence_and_choose;
    Alcotest.test_case "db-scope witnesses" `Quick test_db_witnesses;
    QCheck_alcotest.to_alcotest db_witness_parity;
    Alcotest.test_case "history recording (§9)" `Quick test_history_recording;
    Alcotest.test_case "history limit" `Quick test_history_limit;
    Alcotest.test_case "history off by default" `Quick test_history_off_by_default;
    Alcotest.test_case "object listings" `Quick test_object_listing;
    Alcotest.test_case "history queries" `Quick test_history_queries;
  ]
