(* Facade compatibility: one end-to-end scenario exercised purely
   through the public [Database] API, pinning the facade's behaviour
   across the Schema/Store/Txn/Engine/Timewheel/Persist layering —
   create class -> activate trigger -> transaction with method calls ->
   commit -> firing subscription -> save/load round-trip. Also covers
   the two configuration knobs the refactor introduced: the
   per-database dispatch-index switch and [?max_tcomplete_rounds]. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Buffer firings through the subscription surface; [drain] returns the
   firings since the last drain, oldest first. *)
let collect_firings db =
  let buf = ref [] in
  ignore (D.subscribe_firings db (fun f -> buf := f :: !buf));
  fun () ->
    let fs = List.rev !buf in
    buf := [];
    fs

(* An account whose audit trigger wants two deposits, collecting the
   amount of the most recent one (§9). *)
let schema () =
  D.define_class "account"
  |> (fun b -> D.field b "balance" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "deposit" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "balance"
               (Value.add (D.get_field db oid "balance") q);
             Value.Unit
           | _ -> Value.Unit))
  |> fun b ->
  D.trigger_str b "audit" ~event:"after deposit(int x); after deposit"
    ~action:(fun _ _ -> ())

let tmp = Filename.temp_file "ode_facade" ".img"

let test_end_to_end () =
  let db = D.create_db () in
  let drain = collect_firings db in
  D.register_class db (schema ());
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "account" [] in
           D.activate db oid "audit" [];
           ignore (D.call db oid "deposit" [ Value.Int 30 ]);
           ignore (D.call db oid "deposit" [ Value.Int 12 ]);
           oid))
  in
  Alcotest.(check bool) "balance updated" true
    (D.get_field db oid "balance" = Value.Int 42);
  (match drain () with
  | [ f ] ->
    Alcotest.(check string) "trigger" "audit" f.D.f_trigger;
    Alcotest.(check string) "class" "account" f.D.f_class;
    Alcotest.(check int) "oid" oid f.D.f_oid
  | fs -> Alcotest.failf "expected one firing, got %d" (List.length fs));
  Alcotest.(check bool) "one-shot deactivated" false (D.is_active db oid "audit");

  (* Re-arm, make one deposit so the automaton sits mid-sequence, and
     round-trip that state through save/load. *)
  expect_ok
    (D.with_txn db (fun _ ->
         D.activate db oid "audit" [];
         ignore (D.call db oid "deposit" [ Value.Int 5 ])));
  ignore (drain ());
  D.save db tmp;

  let db2 = D.create_db () in
  let drain2 = collect_firings db2 in
  D.register_class db2 (schema ());
  D.load db2 tmp;
  Alcotest.(check (list int)) "objects survive" [ oid ] (D.objects db2);
  Alcotest.(check bool) "field survives" true
    (D.get_field db2 oid "balance" = Value.Int 47);
  Alcotest.(check bool) "activation survives" true (D.is_active db2 oid "audit");
  Alcotest.(check bool) "automaton state survives" true
    (D.trigger_state db oid "audit" = D.trigger_state db2 oid "audit");
  (* one more deposit completes the sequence in the restored database *)
  expect_ok
    (D.with_txn db2 (fun _ -> ignore (D.call db2 oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check (list string))
    "mid-sequence state fires after reload" [ "audit" ]
    (List.map (fun (f : D.firing) -> f.D.f_trigger) (drain2 ()))

(* The posting path is chosen per database through the [Engine] test
   seam alone: a reference stepper installed on one database leaves its
   neighbour on the kernel, and both see the same firings. *)
let test_per_db_dispatch_switch () =
  let run ~stepper =
    let db = D.create_db () in
    let drain = collect_firings db in
    D.register_class db (schema ());
    Option.iter (Ode_reference.Stepper.install db) stepper;
    let oid =
      expect_ok
        (D.with_txn db (fun _ ->
             let oid = D.create db "account" [] in
             D.activate db oid "audit" [];
             ignore (D.call db oid "deposit" [ Value.Int 1 ]);
             ignore (D.call db oid "deposit" [ Value.Int 2 ]);
             oid))
    in
    (List.map (fun (f : D.firing) -> (f.D.f_trigger, f.D.f_oid)) (drain ()), oid)
  in
  let fired_on, oid_on = run ~stepper:None in
  let fired_off, oid_off = run ~stepper:(Some Ode_reference.Stepper.Scan) in
  Alcotest.(check bool) "same oid" true (oid_on = oid_off);
  Alcotest.(check bool) "same firings either path" true (fired_on = fired_off);
  Alcotest.(check (list string))
    "audit fired" [ "audit" ]
    (List.map fst fired_on)

let test_tcomplete_livelock_bound () =
  let db = D.create_db ~max_tcomplete_rounds:3 () in
  let b = D.define_class "spin" in
  let b =
    D.trigger_str b ~perpetual:true "forever" ~event:"before tcomplete"
      ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let tx = D.begin_txn db in
  let oid = D.create db "spin" [] in
  D.activate db oid "forever" [];
  (match D.commit db tx with
  | exception D.Ode_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message names the bound: %s" msg)
      true
      (contains msg "3" && contains msg "livelock")
  | Ok () | Error `Aborted -> Alcotest.fail "commit should hit the round bound");
  Alcotest.(check bool) "bound must be positive" true
    (match D.create_db ~max_tcomplete_rounds:0 () with
    | exception D.Ode_error _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "end-to-end through the public facade" `Quick
      test_end_to_end;
    Alcotest.test_case "per-database dispatch switch" `Quick
      test_per_db_dispatch_switch;
    Alcotest.test_case "tcomplete livelock bound" `Quick
      test_tcomplete_livelock_bound;
  ]
