(* Benchmark harness regenerating the paper's evaluation claims.

   The paper (SIGMOD '92) has no numeric tables or figures; its evaluation
   is a set of efficiency claims about automaton-based composite-event
   detection. Each experiment E1–E8 below measures one claim; the mapping
   is recorded in DESIGN.md §6 and the results commentary in
   EXPERIMENTS.md. The harness prints shape tables first, then runs one
   Bechamel micro-benchmark per experiment. *)

open Ode_event
module P = Ode_lang.Parser
module Value = Ode_base.Value

let pf = Fmt.pr
let section title = pf "@.=== %s ===@." title

(* simple wall-clock measurement: ns per call, batched *)
let measure_ns ?(min_time = 0.05) f =
  (* warm up *)
  f ();
  let rec calibrate batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then dt /. float_of_int batch *. 1e9
    else calibrate (batch * 4)
  in
  calibrate 1

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e9)

let seeded_history ~m ~len seed =
  Array.init len (fun i -> (seed + (i * 7919) + (i * i * 31)) mod m)

(* ------------------------------------------------------------------ *)
(* E1: per-event detection cost vs history length                      *)
(* ------------------------------------------------------------------ *)

let e1_expr =
  (* a T8-style adjacency plus an unbounded-window relative: exercises
     both the O(1) automaton and the growing instance tree *)
  "after deposit; before withdraw; after withdraw \
   | relative(after audit, after withdraw)"

let e1_alphabet_m = ref 0

let e1_lowered () =
  let expr = P.parse_event e1_expr in
  let alphabet, lowered, _ = Rewrite.build expr in
  e1_alphabet_m := Rewrite.n_symbols alphabet;
  lowered

let e1 () =
  section "E1: per-event detection cost vs history length (§5 claim: O(1) for automata)";
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let mask _ = true in
  pf "expr: %s@." e1_expr;
  pf "(re-evaluation is O(history) per event and is skipped past 3000)@.";
  pf "%8s %14s %14s %14s %12s@." "history" "dfa ns/ev" "tree ns/ev" "reeval ns/ev"
    "tree insts";
  let rows =
    List.map
      (fun n ->
        let h = seeded_history ~m ~len:n 42 in
        let state = Compile.initial compiled in
        Array.iter (fun sym -> ignore (Compile.step compiled state sym ~mask)) h;
        let i = ref 0 in
        let dfa_ns =
          measure_ns (fun () ->
              ignore (Compile.step compiled state h.(!i mod n) ~mask);
              incr i)
        in
        (* stateful baselines grow with every post: time a fixed batch of
           200 further events at length n rather than letting a
           calibration loop inflate the history *)
        let batch = 200 in
        let tree = Ode_baseline.Incr.make lowered in
        Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
        let insts = Ode_baseline.Incr.instance_count tree in
        let (), tree_total =
          time_once (fun () ->
              for j = 0 to batch - 1 do
                ignore (Ode_baseline.Incr.post tree ~mask h.(j mod n))
              done)
        in
        let tree_ns = tree_total /. float_of_int batch in
        let reeval_ns =
          if n > 3000 then None
          else begin
            let re = Ode_baseline.Reeval.make lowered in
            Array.iter (fun sym -> ignore (Ode_baseline.Reeval.post re ~mask sym)) h;
            let small_batch = 20 in
            let (), total =
              time_once (fun () ->
                  for k = 0 to small_batch - 1 do
                    ignore (Ode_baseline.Reeval.post re ~mask h.(k mod n))
                  done)
            in
            Some (total /. float_of_int small_batch)
          end
        in
        pf "%8d %14.0f %14.0f %14s %12d@." n dfa_ns tree_ns
          (match reeval_ns with Some ns -> Fmt.str "%.0f" ns | None -> "-")
          insts;
        (n, dfa_ns, tree_ns, reeval_ns))
      [ 100; 300; 1000; 3000; 10_000 ]
  in
  match rows, List.rev rows with
  | (_, d0, t0, _) :: _, (_, d1, t1, _) :: _ ->
    pf "shape: dfa cost %.1fx from n=100 to n=10000; tree cost %.1fx@." (d1 /. d0)
      (t1 /. t0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* E2: compiled automaton size and compile time vs expression size     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: automaton size / compile time vs expression size (§4-5)";
  let families =
    [
      ("sequence chain", fun d ->
        "sequence(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("relative chain", fun d ->
        "relative(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("prior chain", fun d ->
        "prior(" ^ String.concat ", " (List.init d (fun i -> Printf.sprintf "after m%d" i)) ^ ")");
      ("alternation", fun d ->
        String.concat " | " (List.init d (fun i -> Printf.sprintf "after m%d; after n%d" i i)));
      ("negation tower", fun d ->
        let rec build i = if i = 0 then "after base" else "!(" ^ build (i - 1) ^ " & after m" ^ string_of_int i ^ ")" in
        build d);
    ]
  in
  pf "%-16s %6s %10s %12s %14s@." "family" "depth" "leaves" "dfa states" "compile ns";
  List.iter
    (fun (name, make) ->
      List.iter
        (fun d ->
          let src = make d in
          let expr = P.parse_event src in
          let states = ref 0 in
          let leaves = List.length (Expr.logical_events expr) in
          let ns =
            measure_ns ~min_time:0.02 (fun () ->
                let alphabet, lowered, _ = Rewrite.build expr in
                let c = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
                states := Compile.total_dfa_states c)
          in
          let states, leaves = ((!states, leaves)) in
          let states, leaves = (states, leaves) in
          pf "%-16s %6d %10d %12d %14.0f@." name d leaves states ns)
        [ 1; 2; 4; 6; 8 ])
    families

(* ------------------------------------------------------------------ *)
(* E3: detection-state memory per object                               *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3: detection state per object (§5 claim: one word per active trigger)";
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let n_objects = 1000 in
  pf "%d objects, one active trigger each, after n events per object:@." n_objects;
  pf "%8s %18s %18s %18s@." "n" "dfa bytes/obj" "tree bytes/obj" "reeval bytes/obj";
  List.iter
    (fun n ->
      let h = seeded_history ~m ~len:n 7 in
      let mask _ = true in
      (* automaton state: one int array per object *)
      let dfa_bytes = 8 * Compile.n_state_words compiled in
      let tree = Ode_baseline.Incr.make lowered in
      Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
      let re = Ode_baseline.Reeval.make lowered in
      Array.iter (fun sym -> ignore (Ode_baseline.Reeval.post re ~mask sym)) h;
      pf "%8d %18d %18d %18d@." n dfa_bytes
        (Ode_baseline.Incr.state_bytes tree)
        (Ode_baseline.Reeval.state_bytes re))
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* E4: the committed-history lift (§6)                                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: committed-history lift A -> A' (§6 claim: <= |A|^2 states, same speed class)";
  (* alphabet: 0 tbegin, 1 tcommit, 2 tabort, 3.. ordinary *)
  let m = 6 in
  let tb s = s = 0 and tc s = s = 1 and ta s = s = 2 in
  let exprs =
    [
      ("choose 3 (update)", Lowered.Choose (3, Atom [| false; false; false; true; false; false |]));
      ("seq(u,v)", Lowered.Sequence (Atom [| false; false; false; true; false; false |],
                                     Atom [| false; false; false; false; true; false |]));
      ("rel(u, prior(v,w))",
       Lowered.Relative
         ( Atom [| false; false; false; true; false; false |],
           Lowered.Prior
             ( Atom [| false; false; false; false; true; false |],
               Atom [| false; false; false; false; false; true |] ) ));
    ]
  in
  (* well-formed history: txn blocks with 30% aborts *)
  let gen_h len =
    let out = ref [] in
    let i = ref 0 in
    while List.length !out < len do
      let body = 1 + (!i mod 3) in
      out := !out @ [ 0 ];
      for k = 1 to body do
        out := !out @ [ 3 + ((!i + k) mod 3) ]
      done;
      out := !out @ [ (if !i mod 10 < 3 then 2 else 1) ];
      incr i
    done;
    Array.of_list !out
  in
  let h = gen_h 3000 in
  pf "%-22s %8s %8s %10s %14s %14s@." "expr" "|A|" "|A'|" "bound" "A ns/ev" "A' ns/ev";
  List.iter
    (fun (name, e) ->
      let a = Compile.compile_pure ~m e in
      let a' = Committed.lift a ~tbegin:tb ~tcommit:tc ~tabort:ta in
      let bench d =
        let s = ref d.Dfa.start in
        let i = ref 0 in
        measure_ns (fun () ->
            s := Dfa.step d !s h.(!i mod Array.length h);
            incr i)
      in
      pf "%-22s %8d %8d %10d %14.0f %14.0f@." name (Dfa.n_states a) (Dfa.n_states a')
        (Dfa.n_states a * Dfa.n_states a)
        (bench a) (bench a'))
    exprs

(* ------------------------------------------------------------------ *)
(* E5: mask-disjointness rewriting blowup (§5)                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: overlapping-mask rewriting (§5 claim: 2^k atoms, acceptable in practice)";
  pf "%4s %8s %12s %14s %16s@." "k" "atoms" "dfa states" "build ns" "classify ns/ev";
  List.iter
    (fun k ->
      let leaves =
        List.init k (fun i -> Printf.sprintf "before log && x%d > 0" i)
      in
      let src = String.concat " | " leaves in
      let expr = P.parse_event src in
      let (alphabet, det), build_ns =
        time_once (fun () ->
            let alphabet, _, _ = Rewrite.build expr in
            (alphabet, Detector.make expr))
      in
      let env =
        {
          Mask.empty_env with
          var =
            (fun name ->
              let i = int_of_string (String.sub name 1 (String.length name - 1)) in
              Some (Value.Int (if i mod 2 = 0 then 1 else 0)));
        }
      in
      let occ = { Symbol.basic = Symbol.Method (Before, "log"); args = []; at = 0L } in
      let state = Detector.initial det in
      let classify_ns = measure_ns (fun () -> ignore (Detector.post det state ~env occ)) in
      pf "%4d %8d %12d %14.0f %16.0f@." k
        (Array.length alphabet.Rewrite.atoms)
        (Compile.total_dfa_states det.Detector.compiled)
        build_ns classify_ns)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* E6: coupling modes (§7)                                             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: the nine coupling modes as event expressions (§7)";
  let cond = Mask.Call ("cond", []) in
  let event = Expr.after "edit" in
  (* a plausible transaction stream at the automaton level *)
  pf "%-24s %10s %12s %14s@." "mode" "states" "state words" "detect ns/ev";
  List.iter
    (fun mode ->
      let expr = Coupling.expression mode ~event ~cond in
      let det = Detector.make expr in
      let env =
        { Mask.empty_env with var = (fun _ -> None) }
      in
      let env = { env with Mask.call = (fun _ _ -> Value.Bool true) } in
      let stream =
        [
          Symbol.Tbegin; Symbol.Access Before; Symbol.Method (Before, "edit");
          Symbol.Method (After, "edit"); Symbol.Access After; Symbol.Tcomplete;
          Symbol.Tcommit;
        ]
      in
      let occs = List.map (fun b -> { Symbol.basic = b; args = []; at = 0L }) stream in
      let state = Detector.initial det in
      let i = ref 0 in
      let occs = Array.of_list occs in
      let ns =
        measure_ns (fun () ->
            ignore (Detector.post det state ~env occs.(!i mod Array.length occs));
            incr i)
      in
      pf "%-24s %10d %12d %14.0f@." (Coupling.name mode)
        (Compile.total_dfa_states det.Detector.compiled)
        (Detector.n_state_words det) ns)
    Coupling.all

(* ------------------------------------------------------------------ *)
(* E7: end-to-end stockroom throughput                                 *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: stockroom transaction throughput vs active triggers (§3.5/§5)";
  let module S = Ode_scenarios.Stockroom in
  let module D = Ode_odb.Database in
  let run k_triggers =
    let s = S.setup ~activate:false () in
    let names = [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8" ] in
    let to_activate = List.filteri (fun i _ -> i < k_triggers) names in
    (match
       D.with_txn s.S.db (fun _ ->
           List.iter (fun n -> D.activate s.S.db s.S.stockroom n []) to_activate)
     with
    | Ok () -> ()
    | Error `Aborted -> failwith "activation aborted");
    let item = S.new_item s ~name:"w" ~eoq:1 ~balance:max_int in
    let n_txns = 300 in
    let _, total_ns =
      time_once (fun () ->
          for i = 1 to n_txns do
            ignore (S.withdraw s ~item ~qty:(if i mod 3 = 0 then 150 else 10))
          done)
    in
    (k_triggers, total_ns /. float_of_int n_txns)
  in
  pf "%10s %16s %14s@." "triggers" "us/txn" "txn/s";
  let baseline = ref 0.0 in
  List.iter
    (fun k ->
      let _, ns = run k in
      if k = 0 then baseline := ns;
      pf "%10d %16.1f %14.0f@." k (ns /. 1e3) (1e9 /. ns))
    [ 0; 1; 2; 4; 8 ];
  let _, ns8 = run 8 in
  pf "shape: all 8 paper triggers cost %.1fx over no triggers@." (ns8 /. !baseline)

(* ------------------------------------------------------------------ *)
(* E8: counting operators (§3.4): states linear in n                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: counting-operator automaton size (choose/every/prior n)";
  pf "%6s %12s %12s %12s@." "n" "choose" "every" "prior";
  List.iter
    (fun n ->
      let states op =
        let expr = P.parse_event (Printf.sprintf "%s %d (after f)" op n) in
        let alphabet, lowered, _ = Rewrite.build expr in
        Dfa.n_states (Compile.compile_pure ~m:(Rewrite.n_symbols alphabet) lowered)
      in
      pf "%6d %12d %12d %12d@." n (states "choose") (states "every") (states "prior"))
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* E9 (ablation): one automaton per class (§5 footnote 5)              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 (ablation): per-trigger automata vs one combined automaton per class";
  let trigger_sets =
    [
      ("stockroom T5+T8",
       [ "every 5 (after access)";
         "after deposit; before withdraw; after withdraw" ]);
      ("stockroom T4+T5+T7+T8",
       [ "every 5 (after access)";
         "after deposit; before withdraw; after withdraw";
         "relative(at time(HR=9), prior(choose 5 (after tcommit), after tcommit) & \
          !prior(at time(HR=9), after tcommit))";
         "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))" ]);
      ("six counters",
       List.init 6 (fun i -> Printf.sprintf "choose %d (after m%d)" (i + 2) (i mod 3)));
    ]
  in
  let env = Mask.empty_env in
  let stream =
    [|
      Symbol.Method (After, "access"); Symbol.Method (After, "deposit");
      Symbol.Method (Before, "withdraw"); Symbol.Method (After, "withdraw");
      Symbol.Tcommit; Symbol.Method (After, "m0"); Symbol.Method (After, "m1");
      Symbol.Method (After, "m2");
    |]
  in
  let occs =
    Array.map (fun b -> { Symbol.basic = b; args = []; at = 0L }) stream
  in
  pf "%-24s %4s %10s %10s %14s %14s %12s@." "trigger set" "k" "sum |A|" "combined"
    "separate ns/ev" "combined ns/ev" "state words";
  List.iter
    (fun (name, srcs) ->
      let exprs = List.map P.parse_event srcs in
      let detectors = List.map Detector.make exprs in
      let states = List.map Detector.initial detectors in
      let i = ref 0 in
      let sep_ns =
        measure_ns (fun () ->
            let occ = occs.(!i mod Array.length occs) in
            List.iter2
              (fun det st -> ignore (Detector.post det st ~env occ))
              detectors states;
            incr i)
      in
      let combined = Combine.make exprs in
      let cstate = ref (Combine.initial combined) in
      let j = ref 0 in
      let comb_ns =
        measure_ns (fun () ->
            let occ = occs.(!j mod Array.length occs) in
            let s, _ = Combine.post combined !cstate ~env occ in
            cstate := s;
            incr j)
      in
      pf "%-24s %4d %10d %10d %14.0f %14.0f %6d vs 1@." name (List.length exprs)
        (Combine.sum_of_parts combined)
        (Combine.n_states combined) sep_ns comb_ns (List.length exprs))
    trigger_sets

(* ------------------------------------------------------------------ *)
(* E10 (ablation): minimization during compilation                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 (ablation): minimizing intermediate automata during compilation";
  let exprs =
    [
      ("stockroom T4",
       "relative(at time(HR=9), prior(choose 5 (after tcommit), after tcommit) & \
        !prior(at time(HR=9), after tcommit))");
      ("stockroom T7",
       "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))");
      ("coupling DDep",
       "fa(fa(after edit, before tcomplete, after tbegin) && cond(), after tcommit, \
        after tbegin)");
      ("nested fa", "fa(after a, fa(after b, after c, after d), after e)");
      ("negated sequence", "!(after a; after b) & relative(after c, !(after d | after e))");
    ]
  in
  pf "%-20s %14s %14s %14s %14s@." "expr" "min states" "raw states" "min compile"
    "raw compile";
  List.iter
    (fun (name, src) ->
      let expr = P.parse_event src in
      let build () =
        let alphabet, lowered, _ = Rewrite.build expr in
        Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered
      in
      Compile.minimization := true;
      let states_min = ref 0 in
      let t_min =
        measure_ns ~min_time:0.02 (fun () -> states_min := Compile.total_dfa_states (build ()))
      in
      Compile.minimization := false;
      let states_raw = ref 0 in
      let t_raw =
        measure_ns ~min_time:0.02 (fun () -> states_raw := Compile.total_dfa_states (build ()))
      in
      Compile.minimization := true;
      pf "%-20s %14d %14d %12.0fus %12.0fus@." name !states_min !states_raw
        (t_min /. 1e3) (t_raw /. 1e3))
    exprs

(* ------------------------------------------------------------------ *)
(* E11 (ablation): native closures vs the interpreted ODL surface       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 (ablation): native OCaml bodies vs interpreted ODL bodies";
  let module D = Ode_odb.Database in
  let run_txns db oid n =
    let _, total =
      time_once (fun () ->
          for _ = 1 to n do
            match D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])) with
            | Ok () | Error `Aborted -> ()
          done)
    in
    total /. float_of_int n
  in
  (* native *)
  let native_db = D.create_db () in
  D.register_class native_db
    (D.define_class "cell" ~constructor:(fun db oid _ -> D.activate db oid "watch" [])
    |> (fun b -> D.field b "n" (Value.Int 0))
    |> (fun b -> D.field b "alerts" (Value.Int 0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "incr" (fun db oid _ ->
             D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
             Value.Unit))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "alert" (fun db oid _ ->
             D.set_field db oid "alerts"
               (Value.add (D.get_field db oid "alerts") (Value.Int 1));
             Value.Unit))
    |> fun b ->
    D.trigger_str b ~perpetual:true "watch" ~event:"every 10 (after incr)"
      ~action:(fun db ctx -> ignore (D.call db ctx.D.fc_oid "alert" [])));
  let native_oid =
    match D.with_txn native_db (fun _ -> D.create native_db "cell" []) with
    | Ok oid -> oid
    | Error `Aborted -> failwith "abort"
  in
  (* interpreted *)
  let odl_db = D.create_db () in
  ignore
    (Ode_odl.Odl.load_schema odl_db
       {|
       class cell {
         int n = 0;
         int alerts = 0;
       public:
         cell() { activate watch(); }
         update void incr()  { n = n + 1; }
         update void alert() { alerts = alerts + 1; }
       trigger:
         watch() : perpetual every 10 (after incr) ==> alert();
       };
       |});
  let odl_oid =
    match D.with_txn odl_db (fun _ -> D.create odl_db "cell" []) with
    | Ok oid -> oid
    | Error `Aborted -> failwith "abort"
  in
  let n = 2000 in
  let native_ns = run_txns native_db native_oid n in
  let odl_ns = run_txns odl_db odl_oid n in
  pf "%-12s %14s %14s@." "surface" "us/txn" "txn/s";
  pf "%-12s %14.2f %14.0f@." "native" (native_ns /. 1e3) (1e9 /. native_ns);
  pf "%-12s %14.2f %14.0f@." "ODL" (odl_ns /. 1e3) (1e9 /. odl_ns);
  pf "shape: interpretation costs %.2fx@." (odl_ns /. native_ns)

(* ------------------------------------------------------------------ *)
(* E12 (extension): full provenance vs one-word detection (§9)          *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12 (extension): full provenance tracking vs the one-word automaton (§9)";
  let expr = P.parse_event "relative(after credit(dst, q), after debit(src, p))" in
  let env = Mask.empty_env in
  let mk_occ i =
    if i mod 3 = 2 then
      { Symbol.basic = Symbol.Method (After, "debit");
        args = [ Value.Oid 1; Value.Int i ]; at = 0L }
    else
      { Symbol.basic = Symbol.Method (After, "credit");
        args = [ Value.Oid i; Value.Int i ]; at = 0L }
  in
  pf "%8s %16s %18s %14s %12s@." "history" "detector ns/ev" "provenance ns/ev"
    "witnesses/ev" "instances";
  List.iter
    (fun n ->
      let det = Detector.make expr in
      let state = Detector.initial det in
      for i = 0 to n - 1 do
        ignore (Detector.post det state ~env (mk_occ i))
      done;
      let i = ref n in
      let det_ns =
        measure_ns (fun () ->
            ignore (Detector.post det state ~env (mk_occ !i));
            incr i)
      in
      let prov = Provenance.make ~max_matches:100_000 expr in
      for i = 0 to n - 1 do
        ignore (Provenance.post prov ~env (mk_occ i))
      done;
      let batch = 60 in
      let witnesses = ref 0 in
      let (), total =
        time_once (fun () ->
            for j = 0 to batch - 1 do
              witnesses := !witnesses + List.length (Provenance.post prov ~env (mk_occ (n + j)))
            done)
      in
      pf "%8d %16.0f %18.0f %14.1f %12d@." n det_ns (total /. float_of_int batch)
        (float_of_int !witnesses /. float_of_int batch)
        (Provenance.instance_count prov))
    [ 30; 100; 300; 1000 ];
  pf "shape: the automaton stays O(1); provenance pays per live witness — §5's budget\n\
      is what the one-word design buys.@."

(* ------------------------------------------------------------------ *)
(* E9-dispatch: the per-class dispatch index on the posting hot path    *)
(* ------------------------------------------------------------------ *)

(* A method call on an object carrying N active triggers whose alphabets
   never contain the posted events. Without the index, every one of the
   6 basic events around the call snapshots and classifies all N
   activations — the reference stepper's [Scan] mode
   (test/reference/stepper.ml) is that baseline; the posting kernel,
   resolving candidates through the dispatch rows, touches none of them.
   Emits BENCH_dispatch.json for EXPERIMENTS.md. *)
(* an object of class [hot] carrying [n] armed triggers that can never
   react to the posted events — shared by E9-dispatch and E10-obs *)
let inert_trigger_db n =
  let module D = Ode_odb.Database in
  let db = D.create_db () in
  let b = D.define_class "hot" in
  let b = D.field b "n" (Value.Int 0) in
  let b =
    D.method_ b ~kind:D.Updating "work" (fun db oid _ ->
        D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
        Value.Unit)
  in
  let rec add b i =
    if i >= n then b
    else
      add
        (D.trigger_str b ~perpetual:true
           (Printf.sprintf "t%d" i)
           ~event:(Printf.sprintf "after m%d" i)
           ~action:(fun _ _ -> ()))
        (i + 1)
  in
  let b = add b 0 in
  D.register_class db b;
  match
    D.with_txn db (fun _ ->
        let oid = D.create db "hot" [] in
        for i = 0 to n - 1 do
          D.activate db oid (Printf.sprintf "t%d" i) []
        done;
        oid)
  with
  | Ok oid -> (db, oid)
  | Error `Aborted -> failwith "abort"

let e9_dispatch () =
  section "E9-dispatch: post throughput vs inert active triggers (index on/off)";
  let module D = Ode_odb.Database in
  let measure ~indexed n =
    let db, oid = inert_trigger_db n in
    if not indexed then Ode_reference.Stepper.install db Ode_reference.Stepper.Scan;
    let tx = D.begin_txn db in
    let ns = measure_ns (fun () -> ignore (D.call db oid "work" [])) in
    (match D.commit db tx with Ok () | Error `Aborted -> ());
    ns
  in
  let rows =
    List.map
      (fun n ->
        let scan = measure ~indexed:false n in
        let indexed = measure ~indexed:true n in
        (n, scan, indexed))
      [ 1; 10; 100; 1000 ]
  in
  pf "%-10s %16s %18s %10s@." "triggers" "scan ns/call" "indexed ns/call" "speedup";
  List.iter
    (fun (n, scan, indexed) ->
      pf "%-10d %16.0f %18.0f %9.1fx@." n scan indexed (scan /. indexed))
    rows;
  pf "shape: a call posts 6 basic events; the scan path is O(N) per post,\n\
      the indexed path touches only triggers whose alphabet can react.@.";
  let oc = open_out "BENCH_dispatch.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E9-dispatch\",\n";
  p "  \"unit\": \"ns per method call (6 basic events posted per call)\",\n";
  p "  \"description\": \"object with N inert active triggers: brute-force scan \
     (reference stepper, Scan mode) vs the posting kernel over the per-class \
     dispatch index\",\n";
  p "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (n, scan, indexed) ->
      p
        "    {\"inert_triggers\": %d, \"scan_ns_per_call\": %.0f, \
         \"indexed_ns_per_call\": %.0f, \"speedup\": %.1f}%s\n"
        n scan indexed (scan /. indexed)
        (if i = last then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_dispatch.json@."

(* ------------------------------------------------------------------ *)
(* E10-obs: observability overhead on the posting hot path             *)
(* ------------------------------------------------------------------ *)

(* The E9-dispatch workload on the (default) indexed path, with the
   Ode_obs registry disabled — one boolean load per probe site — vs.
   enabled (counters, per-kind table, latency histograms, trace ring).
   Emits BENCH_obs.json for EXPERIMENTS.md. *)
let e10_obs () =
  section "E10-obs: method-call cost with observability off vs on";
  let module D = Ode_odb.Database in
  let measure ~obs n =
    let db, oid = inert_trigger_db n in
    D.set_observability db obs;
    let tx = D.begin_txn db in
    let ns = measure_ns (fun () -> ignore (D.call db oid "work" [])) in
    (match D.commit db tx with Ok () | Error `Aborted -> ());
    ns
  in
  let rows =
    List.map
      (fun n ->
        let off = measure ~obs:false n in
        let on = measure ~obs:true n in
        (n, off, on))
      [ 1; 10; 100; 1000 ]
  in
  pf "%-10s %16s %16s %10s@." "triggers" "obs-off ns/call" "obs-on ns/call"
    "overhead";
  List.iter
    (fun (n, off, on) ->
      pf "%-10d %16.0f %16.0f %9.2fx@." n off on (on /. off))
    rows;
  pf "shape: disabled probes cost one boolean load; enabled ones pay counter,\n\
      kind-table and span-ring updates per post — clock reads and latency\n\
      histograms only start once a trace sink (or set_timing) asks for them.@.";
  let oc = open_out "BENCH_obs.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E10-obs\",\n";
  p "  \"unit\": \"ns per method call (6 basic events posted per call)\",\n";
  p "  \"description\": \"indexed dispatch, N inert active triggers: Ode_obs \
     registry disabled vs enabled (no trace sink, so timestamping stays \
     gated off)\",\n";
  p "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (n, off, on) ->
      p
        "    {\"inert_triggers\": %d, \"obs_off_ns_per_call\": %.0f, \
         \"obs_on_ns_per_call\": %.0f, \"overhead\": %.2f}%s\n"
        n off on (on /. off)
        (if i = last then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_obs.json@."

(* ------------------------------------------------------------------ *)
(* E12-kernel: the compiled posting kernel vs the reference stepper     *)
(* ------------------------------------------------------------------ *)

(* E12-kernel's workload: N objects, each carrying perpetual
   never-completing triggers (half of them masked) *)
let kernel_n_objects = 256
let kernel_triggers_per_obj = 4

let kernel_workload () =
  let module T = Ode_odb.Types in
  let module Sc = Ode_odb.Schema in
  let module E = Ode_odb.Engine in
  let module Tx = Ode_odb.Txn in
  let db = T.make_db () in
  let b = Sc.define_class "c" in
  let b = Sc.field b "x" (Value.Int 1) in
  let rec add b i =
    if i >= kernel_triggers_per_obj then b
    else
      add
        (Sc.trigger_str b ~perpetual:true
           (Printf.sprintf "t%d" i)
           ~event:
             (if i mod 2 = 0 then "after ping ; after never"
              else "after ping && x > 0 ; after never")
           ~action:(fun _ _ -> ()))
        (i + 1)
  in
  Sc.register_class db (add b 0);
  match
    Tx.with_txn db (fun _ ->
        List.init kernel_n_objects (fun _ ->
            let oid = E.create db "c" [] in
            for i = 0 to kernel_triggers_per_obj - 1 do
              E.activate db oid (Printf.sprintf "t%d" i) []
            done;
            oid))
  with
  | Ok oids -> (db, oids)
  | Error `Aborted -> failwith "abort"

(* 256 objects x 4 perpetual never-completing triggers, zero firings,
   through both posting paths: the legacy indexed path the kernel
   replaced, kept as the reference stepper's [Index] mode
   (test/reference/stepper.ml) — per-post candidate resolution,
   closure-driven classification, boxed stepping — vs the compiled
   kernel — per-class candidate rows, packed classification codes,
   flat-table stepping over the SoA state, one reusable scratch.

   Batches are 4 events/object under two skews: [uniform] spreads the
   batch round-robin over every object, [contended] sends 80% of the
   events to 20% of the objects. Each row also reports minor-heap words
   allocated per posted event. Emits BENCH_kernel.json. *)
let e12_kernel () =
  section "E12-kernel: compiled posting kernel vs legacy indexed path (reference stepper)";
  let module E = Ode_odb.Engine in
  let module Tx = Ode_odb.Txn in
  let module Sym = Ode_event.Symbol in
  let n_objects = kernel_n_objects in
  let events_per_obj = 4 in
  let n_events = n_objects * events_per_obj in
  let n_hot = max 1 (n_objects / 5) in
  let build_items ~contended oids =
    let ping oid = (oid, Sym.Method (Sym.After, "ping"), []) in
    if not contended then
      List.concat_map
        (fun oid -> List.init events_per_obj (fun _ -> ping oid))
        oids
    else begin
      (* 80% of the batch on the first 20% of the objects *)
      let oids = Array.of_list oids in
      let hot = Array.sub oids 0 n_hot
      and cold = Array.sub oids n_hot (n_objects - n_hot) in
      List.init n_events (fun k ->
          if k mod 5 < 4 then ping hot.(k mod Array.length hot)
          else ping cold.(k mod Array.length cold))
    end
  in
  let measure ~kernel ~contended =
    let db, oids = kernel_workload () in
    if not kernel then Ode_reference.Stepper.install db Ode_reference.Stepper.Index;
    let items = build_items ~contended oids in
    let tx = Tx.begin_txn db in
    ignore (E.post_many db items) (* warm-up batch pays the tbegin posts *);
    let ns =
      List.fold_left min infinity
        (List.init 3 (fun _ ->
             measure_ns (fun () -> ignore (E.post_many db items))))
    in
    let batches = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to batches do
      ignore (E.post_many db items)
    done;
    let words =
      (Gc.minor_words () -. w0) /. float_of_int (batches * n_events)
    in
    (match Tx.commit db tx with Ok () | Error `Aborted -> ());
    (ns /. float_of_int n_events, words)
  in
  let row path contended =
    let ns, w = measure ~kernel:(path = "kernel") ~contended in
    (path, (if contended then "contended" else "uniform"), ns, w)
  in
  let rows =
    [
      row "legacy" false;
      row "kernel" false;
      row "legacy" true;
      row "kernel" true;
    ]
  in
  let base =
    match rows with (_, _, ns, _) :: _ -> ns | [] -> assert false
  in
  pf "objects=%d triggers/object=%d batch=%d events@." n_objects
    kernel_triggers_per_obj n_events;
  pf "%-8s %-10s %12s %14s %16s %9s@." "path" "workload" "ns/event"
    "events/sec" "minor words/ev" "speedup";
  List.iter
    (fun (path, wl, ns, w) ->
      pf "%-8s %-10s %12.0f %14.0f %16.1f %8.2fx@." path wl ns (1e9 /. ns) w
        (base /. ns))
    rows;
  pf "shape: the kernel removes per-post candidate list building, closure\n\
      allocation and per-detector cache lookups — the classify/step sweep\n\
      is a linear pass over int arrays with a constant allocation envelope.@.";
  let oc = open_out "BENCH_kernel.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E12-kernel\",\n";
  p "  \"unit\": \"ns per posted event (classify+step dominated, zero firings)\",\n";
  p
    "  \"description\": \"%d objects x %d perpetual never-completing \
     triggers, batches of %d events (%d per object) through the legacy \
     indexed posting path (the reference stepper's Index mode) vs the \
     compiled kernel; contended rows send 80%% of the batch to %d of the \
     objects; minor_words_per_event counts minor-heap allocation\",\n"
    n_objects kernel_triggers_per_obj n_events events_per_obj n_hot;
  p "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (path, wl, ns, w) ->
      p
        "    {\"path\": \"%s\", \"workload\": \"%s\", \"ns_per_event\": %.0f, \
         \"events_per_sec\": %.0f, \"minor_words_per_event\": %.1f, \
         \"speedup_vs_legacy_uniform\": %.2f}%s\n"
        path wl ns (1e9 /. ns) w (base /. ns)
        (if i = last then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_kernel.json@."

(* ------------------------------------------------------------------ *)
(* smoke: a one-iteration CI pass over the instrumented pipeline       *)
(* ------------------------------------------------------------------ *)

(* Runs a single transaction with observability enabled and dumps the
   registry — a fast end-to-end check that the probes are wired, meant
   for the CI bench-smoke step, not for timing. *)
let smoke () =
  section "smoke: one instrumented transaction";
  let module D = Ode_odb.Database in
  let module Obs = Ode_obs.Registry in
  let db, oid = inert_trigger_db 10 in
  D.set_observability db true;
  (match D.with_txn db (fun _ -> ignore (D.call db oid "work" [])) with
  | Ok () -> ()
  | Error `Aborted -> failwith "smoke transaction aborted");
  let r = D.observe db in
  pf "%a@." Obs.pp r;
  if Obs.get r Obs.Posts = 0 then failwith "smoke: no posts counted";
  (* post_many: every event of a uniform batch and of an 80/20
     hot-key-skewed one must fire *)
  let batch_firings ~contended =
    let db = D.create_db ~config:D.Config.default () in
    let b = D.define_class "s" in
    let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b ~perpetual:true "hit" ~event:"after ping"
        ~action:(fun _ _ -> ())
    in
    D.register_class db b;
    let fired = ref 0 in
    (match
       D.with_txn db (fun _ ->
           let oids =
             List.init 8 (fun _ ->
                 let oid = D.create db "s" [] in
                 D.activate db oid "hit" [];
                 oid)
           in
           let ping oid = (oid, Symbol.Method (Symbol.After, "ping"), []) in
           let items =
             if contended then
               (* 32 of 40 events on two objects, rest spread out *)
               List.init 40 (fun k ->
                   if k mod 5 < 4 then ping (List.nth oids (k mod 2))
                   else ping (List.nth oids (2 + (k mod 6))))
             else List.map ping oids
           in
           fired := D.post_many db items)
     with
    | Ok () -> ()
    | Error `Aborted -> failwith "smoke: batch transaction aborted");
    !fired
  in
  let f1 = batch_firings ~contended:false
  and c1 = batch_firings ~contended:true in
  if f1 <> 8 || c1 <> 40 then
    failwith
      (Printf.sprintf "smoke: post_many fired %d/%d (want 8/40)" f1 c1);
  pf "smoke ok (post_many: %d uniform, %d contended firings).@." f1 c1;
  (* WAL crash-injection smoke: 50 randomized kill points over a logged
     workload must each recover to the exact shadow image captured when
     the last surviving batch was emitted (the full harnesses with
     behavioural probes live in test/test_wal.ml). The periodic [beat]
     trigger and the clock advances put timer delta records in the
     log. *)
  let module Wal = Ode_odb.Wal in
  let module Persist = Ode_odb.Persist in
  let module Codec = Ode_base.Codec in
  let fresh_dir () =
    let d = Filename.temp_file "ode_bench_wal" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let wal_schema () =
    let b = D.define_class "w" in
    let b = D.field b "q" (Value.Int 0) in
    let b =
      D.method_ b ~kind:D.Updating "bump" (fun db oid _ ->
          D.set_field db oid "q"
            (Value.add (D.get_field db oid "q") (Value.Int 1));
          Value.Unit)
    in
    let b =
      D.trigger_str b ~perpetual:true "seq" ~event:"after bump; after bump"
        ~action:(fun _ _ -> ())
    in
    (* a periodic time event, so the log carries timer records *)
    D.trigger_str b ~perpetual:true "beat" ~event:"every time(MS=20)"
      ~action:(fun _ _ -> ())
  in
  let dir = fresh_dir () in
  let shadows = ref [] in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0
      ~on_batch:(fun tdb -> shadows := Persist.image_bytes tdb :: !shadows)
      dir
  in
  let wdb = D.create_db ~durability:(`Wal cfg) () in
  D.register_class wdb (wal_schema ());
  let base = D.image_bytes wdb in
  let rng = Random.State.make [| 4242 |] in
  for i = 1 to 10 do
    if i mod 3 = 0 then D.advance_clock wdb 25L;
    let tx = D.begin_txn wdb in
    let oid =
      match D.objects wdb with
      | o :: _ when Random.State.bool rng -> o
      | _ ->
        let o = D.create wdb "w" [] in
        D.activate wdb o "seq" [];
        D.activate wdb o "beat" [];
        o
    in
    ignore (D.call wdb oid "bump" []);
    if i mod 4 = 0 then D.abort wdb tx
    else
      match D.commit wdb tx with Ok () | Error `Aborted -> ()
  done;
  D.close_durability wdb;
  let shadows = Array.of_list (List.rev !shadows) in
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let snap = Codec.of_file (Wal.snap_path dir 0) in
  let hdr = String.length Wal.header in
  let deltas =
    List.length
      (List.filter
         (fun f ->
           match (Wal.decode_summary f).Wal.s_timers with
           | Wal.Delta _ -> true
           | _ -> false)
         (Wal.scan_bytes log).Wal.frames)
  in
  if deltas = 0 then failwith "crash smoke: the log holds no timer delta record";
  for point = 1 to 50 do
    let cut = hdr + Random.State.int rng (String.length log - hdr + 1) in
    let damaged = String.sub log 0 cut in
    let n = List.length (Wal.scan_bytes damaged).Wal.frames in
    let dir2 = fresh_dir () in
    Codec.to_file (Wal.snap_path dir2 0) snap;
    Codec.to_file (Wal.wal_path dir2 0) damaged;
    let rdb = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
    D.register_class rdb (wal_schema ());
    D.recover rdb;
    let expected = if n = 0 then base else shadows.(n - 1) in
    if not (String.equal (D.image_bytes rdb) expected) then
      failwith
        (Printf.sprintf
           "crash smoke: kill point %d (cut at %d, %d batches) recovered a \
            diverging state"
           point cut n)
  done;
  pf "crash smoke ok (50/50 kill points recovered byte-identical, %d batches \
      logged, %d with timer deltas).@."
    (Array.length shadows) deltas;
  (* wire smoke: an in-process server, two clients over loopback, a
     subscriber that must see firings, a clean stop *)
  let module Server = Ode_net.Server in
  let module Client = Ode_net.Client in
  let module NP = Ode_net.Protocol in
  let module NJ = Ode_net.Json in
  let sdb = D.create_db ~config:D.Config.default () in
  let config =
    {
      D.Config.default with
      D.Config.serve = { D.Config.default_serve with D.Config.port = 0 };
    }
  in
  let srv = Server.create ~db:sdb ~config () in
  Server.start srv;
  let port = Server.port srv in
  let sub = Client.connect ~port () in
  let wire_ok = function
    | Ok j -> j
    | Error (code, msg) -> failwith (Printf.sprintf "smoke: wire [%s] %s" code msg)
  in
  ignore
    (wire_ok
       (Client.request sub
          (NP.Schema
             "class cell { int n = 0; public: cell() { activate T(); } update \
              void hit(int q) { n = n + q; } update void seen() { } trigger: \
              T() : perpetual after hit(q) && q > 0 ==> seen(); };")));
  let oid =
    match NJ.member "oid" (wire_ok (Client.request sub (NP.Create ("cell", [])))) with
    | Some (NJ.Int oid) -> oid
    | _ -> failwith "smoke: wire create returned no oid"
  in
  ignore (wire_ok (Client.request sub (NP.Subscribe NP.Block)));
  let poster = Client.connect ~port () in
  let item =
    { NP.i_oid = oid; i_event = Symbol.Method (After, "hit"); i_args = [ Value.Int 3 ] }
  in
  ignore (wire_ok (Client.request poster (NP.Post_many (List.init 8 (fun _ -> item)))));
  Client.close poster;
  let rec wire_drain n =
    match Client.wait_firing ~timeout_s:1.0 sub with
    | Some _ -> wire_drain (n + 1)
    | None -> n
  in
  let wired = wire_drain 0 in
  Client.close sub;
  Server.stop srv;
  if wired <> 8 then
    failwith (Printf.sprintf "smoke: wire subscriber saw %d/8 firings" wired);
  pf "wire smoke ok (8/8 firings streamed over loopback, clean stop).@.";
  (* million-timer smoke: arm 10^6 raw timers on the wheel, then drain
     them all in one clock hop. The timers belong to no live object
     (timer_alive rejects them at delivery), so this exercises pure
     queue mechanics — insert, cascade, group pull — at fleet scale. *)
  let module T = Ode_odb.Types in
  let module Tw = Ode_odb.Timewheel in
  let tdb = T.make_db () in
  let trng = Random.State.make [| 9191 |] in
  let (), arm_s =
    time_once (fun () ->
        for i = 0 to 999_999 do
          Tw.insert_timer tdb
            {
              T.tm_due = Int64.of_int (1 + Random.State.int trng 5_000_000);
              tm_seq = i;
              tm_oid = 1 + i;
              tm_trigger = "m";
              tm_epoch = 0;
              tm_spec = Symbol.After_period 1L;
              tm_anchor = 0L;
            }
        done)
  in
  let armed = Tw.pending_count tdb in
  if armed <> 1_000_000 then
    failwith (Printf.sprintf "timer smoke: armed %d/1000000" armed);
  let (), drain_s = time_once (fun () -> Tw.advance_clock tdb 5_000_001L) in
  let left = Tw.pending_count tdb in
  if left <> 0 then
    failwith (Printf.sprintf "timer smoke: %d timers survived the drain" left);
  pf
    "timer smoke ok (1M timers armed in %.0f ms, drained to empty in %.0f \
     ms).@."
    (arm_s /. 1e6) (drain_s /. 1e6)

(* ------------------------------------------------------------------ *)
(* E14-wal: commit durability cost — WAL vs full-image saves            *)
(* ------------------------------------------------------------------ *)

(* One deposit-commit per measurement against a resident population of
   1k/10k/100k objects, under three durability disciplines: a full
   [save] after every commit (the only option before the WAL), the WAL
   with an fsync per commit (flush window 0), and the WAL under a 50 ms
   group-commit window. Reports commits/sec and p50/p99 latency, and
   writes BENCH_wal.json. *)
let e14_wal () =
  section "E14-wal: commit throughput and p99 latency vs full-image saves";
  let module D = Ode_odb.Database in
  let module Wal = Ode_odb.Wal in
  let fresh_dir () =
    let d = Filename.temp_file "ode_e14" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let schema () =
    let b = D.define_class "acct" in
    let b = D.field b "q" (Value.Int 0) in
    let b =
      D.method_ b ~kind:D.Updating "deposit" (fun db oid _ ->
          D.set_field db oid "q" (Value.add (D.get_field db oid "q") (Value.Int 1));
          Value.Unit)
    in
    (* a perpetual never-completing trigger so each commit pays a
       realistic posting pipeline, not just the field write *)
    D.trigger_str b ~perpetual:true "watch" ~event:"after deposit; before delete"
      ~action:(fun _ _ -> ())
  in
  let populate db n =
    let oids = Array.make n 0 in
    (match
       D.with_txn db (fun _ ->
           for i = 0 to n - 1 do
             let oid = D.create db "acct" [] in
             D.activate db oid "watch" [];
             oids.(i) <- oid
           done)
     with
    | Ok () -> ()
    | Error `Aborted -> failwith "e14: population aborted");
    oids
  in
  let percentile samples p =
    let a = Array.copy samples in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (ceil (p *. float_of_int (Array.length a))) - 1))
  in
  let run ~n ~commits ~durability ~save_every_commit =
    let db = D.create_db ?durability () in
    D.register_class db (schema ());
    let oids = populate db n in
    let tmp = Filename.temp_file "ode_e14_img" ".img" in
    let samples = Array.make commits 0.0 in
    let commit_one i =
      (match
         D.with_txn db (fun _ ->
             ignore (D.call db oids.(i mod n) "deposit" []))
       with
      | Ok () -> ()
      | Error `Aborted -> failwith "e14: commit aborted");
      if save_every_commit then D.save db tmp
    in
    commit_one 0 (* warm-up: first touch pays population cache misses *);
    let t0 = Unix.gettimeofday () in
    for i = 1 to commits do
      let c0 = Unix.gettimeofday () in
      commit_one i;
      samples.(i - 1) <- (Unix.gettimeofday () -. c0) *. 1e6
    done;
    D.sync_durability db;
    let total = Unix.gettimeofday () -. t0 in
    D.close_durability db;
    Sys.remove tmp;
    ( float_of_int commits /. total,
      percentile samples 0.50,
      percentile samples 0.99 )
  in
  let configs ~n =
    [
      ( "image-save",
        (fun () -> run ~n ~commits:(max 20 (200_000 / n)) ~durability:(Some `Image)
             ~save_every_commit:true) );
      ( "wal-fsync",
        (fun () -> run ~n ~commits:2_000
             ~durability:(Some (`Wal (Wal.config ~flush_ms:0 ~snapshot_every:0
                                        (fresh_dir ()))))
             ~save_every_commit:false) );
      ( "wal-group-50ms",
        (fun () -> run ~n ~commits:2_000
             ~durability:(Some (`Wal (Wal.config ~flush_ms:50 ~snapshot_every:0
                                        (fresh_dir ()))))
             ~save_every_commit:false) );
    ]
  in
  let all_rows =
    List.concat_map
      (fun n ->
        pf "@.objects=%d@." n;
        pf "%-16s %14s %12s %12s %10s@." "durability" "commits/sec" "p50 (us)"
          "p99 (us)" "speedup";
        let rows =
          List.map (fun (name, f) -> let r = f () in (name, r)) (configs ~n)
        in
        let base, _, _ = List.assoc "image-save" rows in
        List.iter
          (fun (name, (cps, p50, p99)) ->
            pf "%-16s %14.0f %12.1f %12.1f %9.1fx@." name cps p50 p99 (cps /. base))
          rows;
        List.map (fun (name, r) -> (n, name, r)) rows)
      [ 1_000; 10_000; 100_000 ]
  in
  pf "shape: a redo batch is O(touched objects); a full image is O(database).\n\
      The group-commit window amortises the fsync across the batches that\n\
      arrive inside it, at the cost of that window of durability.@.";
  let oc = open_out "BENCH_wal.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E14-wal\",\n";
  p "  \"unit\": \"commits per second; per-commit latency percentiles in \
     microseconds\",\n";
  p
    "  \"description\": \"one-object deposit commits against a resident \
     population, under: a full ODE1 image save per commit, the WAL with an \
     fsync per commit (flush_ms=0), and the WAL under a 50ms group-commit \
     window\",\n";
  p "  \"rows\": [\n";
  let last = List.length all_rows - 1 in
  List.iteri
    (fun i (n, name, (cps, p50, p99)) ->
      let base, _, _ =
        let _, _, r =
          List.find (fun (n', name', _) -> n' = n && name' = "image-save") all_rows
        in
        r
      in
      p
        "    {\"objects\": %d, \"durability\": \"%s\", \"commits_per_sec\": \
         %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, \"speedup_vs_image\": %.1f}%s\n"
        n name cps p50 p99 (cps /. base)
        (if i = last then "" else ","))
    all_rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_wal.json@."

(* ------------------------------------------------------------------ *)
(* E15: the wire front door — multi-client soak over loopback          *)
(* ------------------------------------------------------------------ *)

(* An in-process server (its select loop on one thread) and N client
   threads posting batches over real loopback sockets: end-to-end wire
   throughput and per-request latency for 1, 4 and 16 clients, with one
   drop-policy subscriber watching the firing stream the whole time.
   Emits BENCH_serve.json. *)
let e15_serve () =
  section "E15: odes serve over loopback (events/sec and request p99 by client count)";
  let module DB = Ode_odb.Database in
  let module Server = Ode_net.Server in
  let module Client = Ode_net.Client in
  let module NP = Ode_net.Protocol in
  let module NJ = Ode_net.Json in
  let schema =
    {|
    class meter {
      int total = 0;
      int spikes = 0;
    public:
      meter() { activate Spike(); }
      update void bump(int q) { total = total + q; }
      update void mark() { spikes = spikes + 1; }
    trigger:
      Spike() : perpetual after bump(q) && q > 5 ==> mark();
    };
    |}
  in
  let jint key j =
    match NJ.member key j with
    | Some (NJ.Int n) -> n
    | _ -> failwith ("e15: reply carried no " ^ key)
  in
  let rpc c req =
    match Client.request c req with
    | Ok j -> j
    | Error (code, msg) -> failwith (Printf.sprintf "e15: [%s] %s" code msg)
  in
  let run ~clients ~events_per_client ~batch =
    let db = DB.create_db ~config:DB.Config.default () in
    ignore (Ode_odl.Odl.load_schema db schema);
    let config =
      {
        DB.Config.default with
        DB.Config.serve =
          { DB.Config.default_serve with DB.Config.port = 0 };
      }
    in
    let srv = Server.create ~db ~config () in
    Server.start srv;
    let port = Server.port srv in
    let sub = Client.connect ~port () in
    (* one object per client so the soak exercises candidate selection,
       not one hot history *)
    let oids =
      Array.init clients (fun _ -> jint "oid" (rpc sub (NP.Create ("meter", []))))
    in
    ignore (rpc sub (NP.Subscribe NP.Drop));
    let requests = events_per_client / batch in
    let lat = Array.make (clients * requests) 0.0 in
    (* a reply reports its whole batch's firing total, and coalescing
       puts many requests in one batch — dedup by batch serial or the
       sum multiplies *)
    let mu = Mutex.create () in
    let by_batch = Hashtbl.create 1024 in
    let t0 = Unix.gettimeofday () in
    let worker k =
      Thread.create
        (fun () ->
          let c = Client.connect ~port () in
          let items =
            List.init batch (fun i ->
                {
                  NP.i_oid = oids.(k);
                  i_event = Symbol.Method (After, "bump");
                  i_args = [ Value.Int (i mod 10) ];
                })
          in
          for r = 0 to requests - 1 do
            let q0 = Unix.gettimeofday () in
            let j = rpc c (NP.Post_many items) in
            lat.((k * requests) + r) <- Unix.gettimeofday () -. q0;
            Mutex.lock mu;
            Hashtbl.replace by_batch (jint "batch" j) (jint "firings" j);
            Mutex.unlock mu
          done;
          Client.close c)
        ()
    in
    let threads = List.init clients worker in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    let seen = List.length (Client.poll_firings sub) + Client.lagged_total sub in
    Client.close sub;
    Server.stop srv;
    Array.sort compare lat;
    let pct p =
      lat.(min (Array.length lat - 1) (int_of_float (p *. float_of_int (Array.length lat))))
      *. 1e6
    in
    let fired = Hashtbl.fold (fun _ n acc -> acc + n) by_batch 0 in
    let total = float_of_int (clients * requests * batch) in
    (total /. dt, pct 0.5, pct 0.99, fired, seen)
  in
  pf "%8s %14s %12s %12s %12s %12s@." "clients" "events/sec" "p50 (us)" "p99 (us)"
    "firings" "observed";
  let rows =
    List.map
      (fun clients ->
        let events_per_client = 20_000 in
        let ev_s, p50, p99, fired, seen =
          run ~clients ~events_per_client ~batch:100
        in
        if fired = 0 then failwith "e15: soak produced no firings";
        pf "%8d %14.0f %12.1f %12.1f %12d %12d@." clients ev_s p50 p99 fired seen;
        (clients, events_per_client, ev_s, p50, p99, fired))
      [ 1; 4; 16 ]
  in
  pf "shape: one select loop owns the engine; requests that arrive in the\n\
      same read burst coalesce into one batch, flushed at the end of the burst.@.";
  let oc = open_out "BENCH_serve.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E15-serve\",\n";
  p "  \"unit\": \"end-to-end wire events per second; per-request latency \
     percentiles in microseconds\",\n";
  p
    "  \"description\": \"N concurrent clients posting 100-event post_many \
     batches over loopback to odes serve (each read burst flushed as one \
     batch), one drop-policy subscriber streaming firings throughout\",\n";
  p "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (clients, events, ev_s, p50, p99, fired) ->
      p
        "    {\"clients\": %d, \"events_per_client\": %d, \"events_per_sec\": \
         %.0f, \"req_p50_us\": %.1f, \"req_p99_us\": %.1f, \"firings\": %d}%s\n"
        clients events ev_s p50 p99 fired
        (if i = last then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_serve.json@."

(* ------------------------------------------------------------------ *)
(* E17-timer: the timing wheel vs the sorted-list queue                 *)
(* ------------------------------------------------------------------ *)

(* Two costs. [arm]: marginal insert into a queue already holding n
   timers — the wheel's raw [Timewheel.insert_timer] against the
   sorted-list insert of the test model (test/reference/timer_model.ml),
   O(1) amortized vs O(n), so the list's arm count shrinks as n grows to
   keep the rows affordable. [sweep]: [advance_to] over a fleet of
   objects with staggered periodic triggers, every delivery re-arming
   its timer, on the wheel alone. The list sweep column is retired
   with the in-engine list queue (EXPERIMENTS.md cites its last
   figures); the 1M-pending sweep row fills the structure with parked
   timers due beyond the window, so cascade and occupancy costs are
   real. Emits BENCH_timer.json. *)
let e17_timer () =
  section "E17-timer: timing wheel vs sorted-list model (arm) + wheel advance sweep";
  let module T = Ode_odb.Types in
  let module Tw = Ode_odb.Timewheel in
  let module Sc = Ode_odb.Schema in
  let module E = Ode_odb.Engine in
  let module Tx = Ode_odb.Txn in
  let module Obs = Ode_obs.Registry in
  let module Model = Ode_reference.Timer_model in
  let horizon = 10_000_000 in
  let mk_timer i due =
    {
      T.tm_due = due;
      tm_seq = i;
      tm_oid = 1 + (i mod 9973);
      tm_trigger = "t";
      tm_epoch = 0;
      tm_spec = Symbol.Every (Int64.of_int horizon);
      tm_anchor = 0L;
    }
  in
  let rand_due rng = Int64.of_int (1 + Random.State.int rng horizon) in
  let cmp a b =
    match Int64.compare a.T.tm_due b.T.tm_due with
    | 0 -> compare a.T.tm_seq b.T.tm_seq
    | c -> c
  in
  (* marginal arm cost at occupancy n, measured over k fresh inserts *)
  let arm ~wheel ~n ~k =
    let rng = Random.State.make [| 1717; n |] in
    let queue = List.sort cmp (List.init n (fun i -> mk_timer i (rand_due rng))) in
    let dues = Array.init k (fun _ -> rand_due rng) in
    let (), total =
      if wheel then begin
        let db = T.make_db () in
        Tw.replace db queue;
        time_once (fun () ->
            Array.iteri (fun i due -> Tw.insert_timer db (mk_timer (n + i) due)) dues)
      end
      else begin
        let q = ref queue in
        time_once (fun () ->
            Array.iteri
              (fun i due -> q := Model.insert_list (mk_timer (n + i) due) !q)
              dues)
      end
    in
    total /. float_of_int k
  in
  (* a fleet sweep: [objects] nodes with an every-[period]-ms heartbeat,
     activation staggered over one period so due instants spread out;
     then advance [advance_ms], every delivery re-arming its timer.
     [pad] extra timers are parked beyond the window (no live object),
     occupying the structure without ever coming due. *)
  let sweep ~objects ~period ~advance_ms ~pad =
    let db = T.make_db () in
    let b = Sc.define_class "node" in
    let b =
      Sc.trigger_str b ~perpetual:true "hb"
        ~event:(Printf.sprintf "every time(MS=%d)" period)
        ~action:(fun _ _ -> ())
    in
    Sc.register_class db b;
    let per_ms = max 1 (objects / period) in
    let made = ref 0 in
    while !made < objects do
      let n = min per_ms (objects - !made) in
      (match
         Tx.with_txn db (fun _ ->
             for _ = 1 to n do
               let oid = E.create db "node" [] in
               E.activate db oid "hb" []
             done)
       with
      | Ok () -> ()
      | Error `Aborted -> failwith "sweep setup aborted");
      made := !made + n;
      if !made < objects then Tw.advance_clock db 1L
    done;
    let rng = Random.State.make [| 4242; objects |] in
    let parked_from = Int64.add (Tw.now db) (Int64.of_int (advance_ms + period)) in
    for i = 0 to pad - 1 do
      Tw.insert_timer db
        {
          T.tm_due = Int64.add parked_from (rand_due rng);
          tm_seq = Tw.fresh_seq db;
          tm_oid = 1_000_000_000 + i;
          tm_trigger = "parked";
          tm_epoch = 0;
          tm_spec = Symbol.After_period 1L;
          tm_anchor = 0L;
        }
    done;
    let pending = Tw.pending_count db in
    Obs.set_enabled db.T.obs true;
    let (), total =
      time_once (fun () -> Tw.advance_clock db (Int64.of_int advance_ms))
    in
    let delivered = Obs.get db.T.obs Obs.Timer_deliveries in
    if delivered = 0 then failwith "sweep delivered nothing";
    (pending, delivered, total /. float_of_int delivered)
  in
  pf "%10s %8s %16s %16s %10s@." "occupancy" "arms" "list ns/arm"
    "wheel ns/arm" "speedup";
  let arm_rows =
    List.map
      (fun (n, k_list) ->
        let list_ns = arm ~wheel:false ~n ~k:k_list in
        let wheel_ns = arm ~wheel:true ~n ~k:10_000 in
        pf "%10d %8d %16.0f %16.1f %9.0fx@." n k_list list_ns wheel_ns
          (list_ns /. wheel_ns);
        (n, k_list, list_ns, wheel_ns))
      [ (10_000, 4_000); (100_000, 1_000); (1_000_000, 300) ]
  in
  pf "%10s %12s %18s@." "pending" "deliveries" "wheel ns/delivery";
  let sweep_rows =
    List.map
      (fun (objects, period, advance_ms, pad) ->
        let p, d, wheel_ns = sweep ~objects ~period ~advance_ms ~pad in
        pf "%10d %12d %18.0f@." p d wheel_ns;
        (p, d, wheel_ns))
      [
        (10_000, 1_000, 10_000, 0);
        (100_000, 10_000, 1_000, 0);
        (10_000, 1_000, 10_000, 990_000);
      ]
  in
  let arm_speedup_1m =
    match List.rev arm_rows with
    | (_, _, l, w) :: _ -> l /. w
    | [] -> assert false
  in
  pf "shape: arming is O(n) vs O(1); the wheel's per-delivery cost stays flat\n\
      from 10^4 to 10^6 pending.@.";
  let oc = open_out "BENCH_timer.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"E17-timer\",\n";
  p
    "  \"unit\": \"ns per armed timer / ns per delivered timer (delivery = \
     system txn + time-event post + periodic re-arm)\",\n";
  p
    "  \"description\": \"marginal arm cost at fixed occupancy, dues uniform \
     over %d ms: the sorted-list insert of the test model vs raw timing-wheel \
     inserts; and a wheel advance sweep (staggered every-period heartbeats, \
     each delivery re-arming; the 1M-pending row pads the wheel with parked \
     timers)\",\n"
    horizon;
  p "  \"arm_speedup_at_1m\": %.1f,\n" arm_speedup_1m;
  p "  \"arm_rows\": [\n";
  let last = List.length arm_rows - 1 in
  List.iteri
    (fun i (n, k, l, w) ->
      p
        "    {\"occupancy\": %d, \"list_arms_measured\": %d, \
         \"list_ns_per_arm\": %.0f, \"wheel_ns_per_arm\": %.1f, \
         \"speedup\": %.1f}%s\n"
        n k l w (l /. w)
        (if i = last then "" else ","))
    arm_rows;
  p "  ],\n";
  p "  \"sweep_rows\": [\n";
  let last = List.length sweep_rows - 1 in
  List.iteri
    (fun i (pend, deliv, w) ->
      p
        "    {\"pending\": %d, \"deliveries\": %d, \"wheel_ns_per_delivery\": %.0f}%s\n"
        pend deliv w
        (if i = last then "" else ","))
    sweep_rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  pf "wrote BENCH_timer.json@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment              *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let lowered = e1_lowered () in
  let m = !e1_alphabet_m in
  let compiled = Compile.compile ~m lowered in
  let mask _ = true in
  let h = seeded_history ~m ~len:1000 42 in
  (* E1 *)
  let dfa_state = Compile.initial compiled in
  Array.iter (fun sym -> ignore (Compile.step compiled dfa_state sym ~mask)) h;
  let i1 = ref 0 in
  let e1_dfa =
    Test.make ~name:"e1-dfa-step"
      (Staged.stage (fun () ->
           ignore (Compile.step compiled dfa_state h.(!i1 mod 1000) ~mask);
           incr i1))
  in
  let tree = Ode_baseline.Incr.make lowered in
  Array.iter (fun sym -> ignore (Ode_baseline.Incr.post tree ~mask sym)) h;
  let i2 = ref 0 in
  let e1_tree =
    Test.make ~name:"e1-tree-step@1000"
      (Staged.stage (fun () ->
           ignore (Ode_baseline.Incr.post tree ~mask h.(!i2 mod 1000));
           incr i2))
  in
  (* E2 *)
  let t8 = P.parse_event "after deposit; before withdraw; after withdraw" in
  let e2_compile =
    Test.make ~name:"e2-compile-T8"
      (Staged.stage (fun () -> ignore (Detector.make t8)))
  in
  (* E4 *)
  let a =
    Compile.compile_pure ~m:6
      (Lowered.Choose (3, Atom [| false; false; false; true; false; false |]))
  in
  let a' =
    Committed.lift a ~tbegin:(fun s -> s = 0) ~tcommit:(fun s -> s = 1)
      ~tabort:(fun s -> s = 2)
  in
  let s4 = ref a'.Dfa.start in
  let i4 = ref 0 in
  let h4 = seeded_history ~m:6 ~len:1000 5 in
  let e4_lift =
    Test.make ~name:"e4-lifted-step"
      (Staged.stage (fun () ->
           s4 := Dfa.step a' !s4 h4.(!i4 mod 1000);
           incr i4))
  in
  (* E5 *)
  let det5 = Detector.make (P.parse_event "before log && a > 0 | before log && b > 0") in
  let st5 = Detector.initial det5 in
  let env5 =
    {
      Mask.empty_env with
      var = (fun name -> Some (Value.Int (if name = "a" then 1 else 0)));
    }
  in
  let occ5 = { Symbol.basic = Symbol.Method (Before, "log"); args = []; at = 0L } in
  let e5_classify =
    Test.make ~name:"e5-classify+step"
      (Staged.stage (fun () -> ignore (Detector.post det5 st5 ~env:env5 occ5)))
  in
  (* E6 *)
  let det6 =
    Detector.make
      (Coupling.expression Coupling.Immediate_dependent ~event:(Expr.after "edit")
         ~cond:(Mask.Call ("cond", [])))
  in
  let st6 = Detector.initial det6 in
  let env6 = { Mask.empty_env with call = (fun _ _ -> Value.Bool true) } in
  let occs6 =
    Array.of_list
      (List.map
         (fun b -> { Symbol.basic = b; args = []; at = 0L })
         [
           Symbol.Tbegin; Symbol.Method (After, "edit"); Symbol.Tcomplete; Symbol.Tcommit;
         ])
  in
  let i6 = ref 0 in
  let e6_mode =
    Test.make ~name:"e6-immediate-dependent"
      (Staged.stage (fun () ->
           ignore (Detector.post det6 st6 ~env:env6 occs6.(!i6 mod 4));
           incr i6))
  in
  (* E7 *)
  let module S = Ode_scenarios.Stockroom in
  let s7 = S.setup () in
  let item7 = S.new_item s7 ~name:"w" ~eoq:1 ~balance:max_int in
  let e7_txn =
    Test.make ~name:"e7-stockroom-withdraw-txn"
      (Staged.stage (fun () -> ignore (S.withdraw s7 ~item:item7 ~qty:10)))
  in
  (* E8 *)
  let e8_compile =
    Test.make ~name:"e8-compile-choose-64"
      (Staged.stage (fun () -> ignore (Detector.make (P.parse_event "choose 64 (after f)"))))
  in
  let tests =
    [ e1_dfa; e1_tree; e2_compile; e4_lift; e5_classify; e6_mode; e7_txn; e8_compile ]
  in
  section "Bechamel micro-benchmarks (ns/run, OLS on monotonic clock)";
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"ode" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> pf "%-32s %12.1f ns/run@." name ns
      | Some [] | None -> pf "%-32s (no estimate)@." name)
    (List.sort compare rows)

let () =
  let all =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e9d", e9_dispatch); ("e10", e10);
      ("e10o", e10_obs); ("e11", e11); ("e12", e12);
      ("e12k", e12_kernel); ("e14w", e14_wal); ("e15s", e15_serve);
      ("e17t", e17_timer); ("micro", bechamel_suite);
      ("smoke", smoke) ]
  in
  let selected =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> all
    | names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n all) then begin
            Fmt.epr "unknown experiment %S; available: %s@." n
              (String.concat " " (List.map fst all));
            exit 2
          end)
        names;
      List.filter (fun (n, _) -> List.mem n names) all
  in
  pf "Reproduction benchmarks: Gehani, Jagadish & Shmueli, SIGMOD 1992.@.";
  List.iter (fun (_, run) -> run ()) selected;
  pf "@.done.@."
