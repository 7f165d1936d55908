(* Full-provenance detection (§9): the boolean shadow must agree with the
   automaton detector, and each match must carry its own bindings. *)

open Ode_event
module Value = Ode_base.Value

let env = Mask.empty_env

let occ name args : Symbol.occurrence =
  { Symbol.basic = Symbol.Method (After, name); args; at = 0L }

let boolean_shadow =
  QCheck.Test.make ~count:300 ~name:"provenance non-empty iff the detector fires"
    (QCheck.make
       ~print:(fun (e, occs) ->
         Fmt.str "%a on %d occurrences" Expr.pp e (List.length occs))
       QCheck.Gen.(
         let* e = Gen.gen_surface_expr ~max_size:7 () in
         let* occs = list_size (int_bound 20) Gen.gen_occurrence in
         return (e, occs)))
    (fun (e, occs) ->
      QCheck.assume (Gen.growth_depth (let _, l, _ = Rewrite.build e in l) <= 3);
      match Detector.make e with
      | exception Invalid_argument _ -> true
      | det ->
        let state = Detector.initial det in
        let prov = Provenance.make ~max_matches:4096 e in
        List.for_all
          (fun o ->
            let fired = Detector.post det state ~env o in
            let matches = Provenance.post prov ~env o in
            fired = (matches <> []))
          occs)

(* A case the property once found (seed 739286270): the chains of
   [relative+] filled the 4096 cap and evicted the standing base link,
   so no new chain could start while the detector kept firing. *)
let test_cap_keeps_base_link () =
  let g = Expr.after "g" in
  let e = Expr.relative_plus Expr.(prior_n 3 g &: relative_n 2 g) in
  let det = Detector.make e in
  let state = Detector.initial det in
  let prov = Provenance.make ~max_matches:4096 e in
  let g = occ "g" [] and f = occ "f" [] in
  let bf = { f with Symbol.basic = Symbol.Method (Before, "f") } in
  let occs = [ g; g; g; g; g; f; g; g; g; bf; g; f; g; f; g; g; g ] in
  List.iteri
    (fun k o ->
      let fired = Detector.post det state ~env o in
      let matches = Provenance.post prov ~env o in
      Alcotest.(check bool) (Printf.sprintf "occurrence %d" (k + 1)) fired (matches <> []))
    occs

let formals names =
  List.map (fun n -> { Expr.f_ty = None; f_name = n }) names

let test_multiple_witnesses () =
  (* two credits before a debit: relative(credit, debit) has two
     witnesses, each carrying its own dst — beyond latest-wins *)
  let e =
    Expr.relative
      [ Expr.after ~formals:(formals [ "dst"; "q" ]) "credit";
        Expr.after ~formals:(formals [ "src"; "p" ]) "debit" ]
  in
  let prov = Provenance.make e in
  let post o = Provenance.post prov ~env o in
  Alcotest.(check int) "credit 1" 0 (List.length (post (occ "credit" [ Value.Oid 7; Value.Int 10 ])));
  Alcotest.(check int) "credit 2" 0 (List.length (post (occ "credit" [ Value.Oid 9; Value.Int 20 ])));
  let matches = post (occ "debit" [ Value.Oid 3; Value.Int 5 ]) in
  Alcotest.(check int) "two witnesses" 2 (List.length matches);
  let dsts = List.sort compare (List.map (fun b -> List.assoc "dst" b) matches) in
  Alcotest.(check bool) "distinct dst bindings" true
    (dsts = [ Value.Oid 7; Value.Oid 9 ]);
  List.iter
    (fun b ->
      Alcotest.(check bool) "src in every witness" true
        (List.assoc "src" b = Value.Oid 3))
    matches

let test_chain_accumulates () =
  (* relative+ accumulates bindings along the chain; the latest link
     shadows earlier ones for the repeated name *)
  let e = Expr.relative_plus (Expr.after ~formals:(formals [ "x" ]) "step") in
  let prov = Provenance.make e in
  let post v = Provenance.post prov ~env (occ "step" [ Value.Int v ]) in
  (match post 1 with
  | [ b ] -> Alcotest.(check bool) "first link" true (List.assoc "x" b = Value.Int 1)
  | ms -> Alcotest.failf "expected 1 match, got %d" (List.length ms));
  (* the second step matches as the 2nd link of the chain from step 1 AND
     as a fresh 1-link chain: two witnesses, both with x = 2 (shadowed) *)
  let matches = post 2 in
  Alcotest.(check int) "two chain witnesses" 2 (List.length matches);
  List.iter
    (fun b ->
      Alcotest.(check bool) "latest x shadows" true (List.assoc "x" b = Value.Int 2))
    matches

let test_fa_window_bindings () =
  let e =
    Expr.fa
      (Expr.after ~formals:(formals [ "session" ]) "open_")
      (Expr.after ~formals:(formals [ "amount" ]) "trade")
      (Expr.after "review")
  in
  let prov = Provenance.make e in
  let post o = Provenance.post prov ~env o in
  ignore (post (occ "open_" [ Value.Int 42 ]));
  (match post (occ "trade" [ Value.Int 900 ]) with
  | [ b ] ->
    Alcotest.(check bool) "window binding" true (List.assoc "session" b = Value.Int 42);
    Alcotest.(check bool) "completing binding" true (List.assoc "amount" b = Value.Int 900)
  | ms -> Alcotest.failf "expected 1 match, got %d" (List.length ms));
  (* the window is dead after its first match *)
  Alcotest.(check int) "first only" 0 (List.length (post (occ "trade" [ Value.Int 1 ])))

let test_cap_bounds_state () =
  let e =
    Expr.relative
      [ Expr.after ~formals:(formals [ "a" ]) "f"; Expr.after "g" ]
  in
  let prov = Provenance.make ~max_matches:8 e in
  for i = 1 to 100 do
    ignore (Provenance.post prov ~env (occ "f" [ Value.Int i ]))
  done;
  Alcotest.(check bool) "instances capped" true (Provenance.instance_count prov <= 32)

let test_consumption_contexts () =
  let e =
    Expr.relative
      [ Expr.after ~formals:(formals [ "dst" ]) "credit";
        Expr.after ~formals:(formals [ "src" ]) "debit" ]
  in
  let run context =
    let prov = Provenance.make ~context e in
    ignore (Provenance.post prov ~env (occ "credit" [ Value.Oid 7 ]));
    ignore (Provenance.post prov ~env (occ "credit" [ Value.Oid 9 ]));
    let first = Provenance.post prov ~env (occ "debit" [ Value.Oid 1 ]) in
    let second = Provenance.post prov ~env (occ "debit" [ Value.Oid 2 ]) in
    (List.map (fun b -> List.assoc "dst" b) first,
     List.map (fun b -> List.assoc "dst" b) second)
  in
  (* unrestricted (the paper's set semantics): both credits witness both
     debits *)
  let f, s = run Provenance.Unrestricted in
  Alcotest.(check int) "unrestricted: both witness 1st debit" 2 (List.length f);
  Alcotest.(check int) "unrestricted: both witness 2nd debit" 2 (List.length s);
  (* recent (Snoop): only the newest credit initiates, and it stays *)
  let f, s = run Provenance.Recent in
  Alcotest.(check bool) "recent: newest credit only" true (f = [ Value.Oid 9 ]);
  Alcotest.(check bool) "recent: stays for the next debit" true (s = [ Value.Oid 9 ]);
  (* chronicle (Snoop): FIFO pairing, each credit consumed once *)
  let f, s = run Provenance.Chronicle in
  Alcotest.(check bool) "chronicle: oldest credit pairs first" true (f = [ Value.Oid 7 ]);
  Alcotest.(check bool) "chronicle: then the next oldest" true (s = [ Value.Oid 9 ])

let test_chronicle_fa () =
  let e =
    Expr.fa
      (Expr.after ~formals:(formals [ "w" ]) "open_")
      (Expr.after "hit")
      (Expr.after "close")
  in
  let prov = Provenance.make ~context:Provenance.Chronicle e in
  ignore (Provenance.post prov ~env (occ "open_" [ Value.Int 1 ]));
  ignore (Provenance.post prov ~env (occ "open_" [ Value.Int 2 ]));
  (match Provenance.post prov ~env (occ "hit" []) with
  | [ b ] ->
    Alcotest.(check bool) "oldest window reported" true (List.assoc "w" b = Value.Int 1)
  | ms -> Alcotest.failf "expected 1 chronicle match, got %d" (List.length ms));
  (* fa windows are first-match: both died at the hit *)
  Alcotest.(check int) "windows dead" 0 (List.length (Provenance.post prov ~env (occ "hit" [])))

let suite =
  List.map QCheck_alcotest.to_alcotest [ boolean_shadow ]
  @ [
      Alcotest.test_case "multiple witnesses" `Quick test_multiple_witnesses;
      Alcotest.test_case "chains accumulate bindings" `Quick test_chain_accumulates;
      Alcotest.test_case "fa window bindings" `Quick test_fa_window_bindings;
      Alcotest.test_case "cap bounds state" `Quick test_cap_bounds_state;
      Alcotest.test_case "cap keeps the chain base link" `Quick test_cap_keeps_base_link;
      Alcotest.test_case "consumption contexts (Snoop)" `Quick test_consumption_contexts;
      Alcotest.test_case "chronicle fa pairing" `Quick test_chronicle_fa;
    ]
