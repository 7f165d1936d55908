(* Benchmark harness regenerating the paper's evaluation claims.

   The paper (SIGMOD '92) has no numeric tables or figures; its evaluation
   is a set of efficiency claims about automaton-based composite-event
   detection. Each experiment below measures one claim; the mapping is
   recorded in DESIGN.md §6 and the results commentary in EXPERIMENTS.md.
   Every experiment builds rows of cells and hands them to [emit], which
   prints the aligned table and, for the six experiments with a BENCH
   file, writes that file with a metadata object. *)

open Ode_event
module P = Ode_lang.Parser
module Value = Ode_base.Value
module Json = Ode_net.Json
module Incr = Ode_baseline.Incr
module Reeval = Ode_baseline.Reeval
module Stepper = Ode_reference.Stepper

let pf = Fmt.pr
let section title = pf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* The harness: one clock, five repeats, one row emitter                *)
(* ------------------------------------------------------------------ *)

(* Every timed cell runs [repeats] times. A cell whose state grows with
   every call (a history, a queue), or whose CI step has a time bound,
   splits its workload into [repeats] equal parts; the others repeat it
   whole. *)
let repeats = 5
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  f ();
  float_of_int (now_ns () - t0)

(* Nearest-rank [p] quantile of a sorted array. *)
let rank a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type stat = { median : float; min : float; max : float; iqr : float }

(* One figure per repeat, [f r] for repeat r. *)
let rep f =
  let a = Array.init repeats f in
  Array.sort compare a;
  { median = rank a 0.5; min = a.(0); max = a.(repeats - 1);
    iqr = rank a 0.75 -. rank a 0.25 }

(* ns per call of [f], or per item of a call that handles [per]: each
   repeat times a batch calibrated to take at least [min_ns]. *)
let per_call ?(min_ns = 1e7) ?(per = 1) f =
  f ();
  let run b () = for _ = 1 to b do f () done in
  let rec calibrate b = if time_ns (run b) >= min_ns then b else calibrate (b * 4) in
  let b = calibrate 1 in
  rep (fun _ -> time_ns (run b) /. float_of_int (b * per))

(* ns per call of [f j] for a fixed count of calls, [each] per repeat,
   j counting on from 0 across the repeats: for stateful workloads that
   a calibration loop would grow. *)
let calls ~each f =
  rep (fun r ->
      time_ns (fun () -> for j = r * each to ((r + 1) * each) - 1 do f j done)
      /. float_of_int each)

type cell =
  | I of int
  | F of float
  | S of string
  | T of stat  (** a timed cell *)
  | Na  (** not measured: [-] in the table, [null] in the file *)

(* The [p] percentile of the samples [xs], by perfbench's rule: only
   when at least ten samples lie beyond it. *)
let pct xs p =
  let n = Array.length xs in
  if n - int_of_float (ceil (p *. float_of_int n)) < 10 then Na
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    F (rank a p)
  end

(* The median of a timed cell, for the shape lines. *)
let med row key = match List.assoc key row with T s -> s.median | _ -> nan

(* three significant digits, or the integer part when it is longer *)
let num x =
  let a = Float.abs x in
  Printf.sprintf "%.*f" (if a >= 100. then 0 else if a >= 10. then 1 else 2) x

let text = function
  | I n -> string_of_int n
  | F x -> num x
  | S s -> s
  | T s -> Printf.sprintf "%s +-%.0f%%" (num s.median) (50.0 *. s.iqr /. s.median)
  | Na -> "-"

let json c =
  let f x =
    if Float.is_finite x then Json.Float (float_of_string (num x)) else Json.Null
  in
  match c with
  | I n -> Json.Int n
  | F x -> f x
  | S s -> Json.String s
  | T s ->
    Json.Obj
      [ ("median", f s.median); ("min", f s.min); ("max", f s.max); ("iqr", f s.iqr) ]
  | Na -> Json.Null

(* Columns headed by their keys; strings flush left, numbers right. *)
let print_table = function
  | [] -> ()
  | first :: _ as rows ->
    let lines = List.map fst first :: List.map (List.map (fun (_, c) -> text c)) rows in
    let width i =
      List.fold_left (fun w l -> max w (String.length (List.nth l i))) 0 lines
    in
    let cell i ((_, c), s) =
      match c with
      | S _ -> Printf.sprintf "%-*s" (width i) s
      | _ -> Printf.sprintf "%*s" (width i) s
    in
    List.iter
      (fun l -> pf "%s@." (String.concat "  " (List.mapi cell (List.combine first l))))
      lines

(* perfbench's field names, so runs of either can be matched up *)
let metadata () =
  let commit =
    if not (Sys.file_exists ".git") then None
    else begin
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      line
    end
  in
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("commit", Json.String (Option.value commit ~default:"unknown"));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "date",
        Json.String
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec) );
      ("repeats", Json.Int repeats);
    ]

(* Print each table. With [file], also write it: the [about] strings,
   the metadata, then each table under its name, one row per line. *)
let emit ?file ?(about = []) tables =
  List.iter (fun (_, rows) -> print_table rows) tables;
  Option.iter
    (fun file ->
      let row r = Json.to_string (Json.Obj (List.map (fun (k, c) -> (k, json c)) r)) in
      let table rs = "[\n    " ^ String.concat ",\n    " (List.map row rs) ^ "\n  ]" in
      let fields =
        List.map (fun (k, v) -> (k, Json.to_string (Json.String v))) about
        @ [ ("metadata", Json.to_string (metadata ())) ]
        @ List.map (fun (k, rs) -> (k, table rs)) tables
      in
      let field (k, v) = Printf.sprintf "  %S: %s" k v in
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" (List.map field fields)));
      pf "wrote %s@." file)
    file

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Run [f] in a transaction of [db] that must commit. *)
let in_txn db f =
  match Ode_odb.Database.with_txn db (fun _ -> f ()) with
  | Ok x -> x
  | Error `Aborted -> failwith "bench: transaction aborted"

(* a bare timer-queue entry, for the queue-level timer benchmarks *)
let timer ~seq ~oid ~trigger ~spec due =
  { Ode_odb.Types.tm_due = due; tm_seq = seq; tm_oid = oid; tm_trigger = trigger;
    tm_epoch = 0; tm_spec = spec; tm_anchor = 0L }

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
  let rows =
    List.map
      (fun n ->
        let h = seeded_history ~m ~len:n 42 in
        let state = Compile.initial compiled in
        Array.iter (fun sym -> ignore (Compile.step compiled state sym ~mask)) h;
        let i = ref 0 in
        let dfa =
          per_call (fun () ->
              ignore (Compile.step compiled state h.(!i mod n) ~mask);
              incr i)
        in
        (* stateful baselines grow with every post: time a fixed batch of
           200 further events at length n rather than letting a
           calibration loop inflate the history *)
        let tree = Incr.make lowered in
        Array.iter (fun sym -> ignore (Incr.post tree ~mask sym)) h;
        let insts = Incr.instance_count tree in
        let tree_ns =
          calls ~each:(200 / repeats) (fun j -> ignore (Incr.post tree ~mask h.(j mod n)))
        in
        let reeval =
          if n > 3000 then Na
          else begin
            let re = Reeval.make lowered in
            Array.iter (fun sym -> ignore (Reeval.post re ~mask sym)) h;
            let post k = ignore (Reeval.post re ~mask h.(k mod n)) in
            T (calls ~each:(20 / repeats) post)
          end
        in
        [ ("history", I n); ("dfa_ns_per_ev", T dfa); ("tree_ns_per_ev", T tree_ns);
          ("reeval_ns_per_ev", reeval); ("tree_insts", I insts) ])
      [ 100; 300; 1000; 3000; 10_000 ]
  in
  emit [ ("rows", rows) ];
  match rows, List.rev rows with
  | r0 :: _, r1 :: _ ->
    let ratio key = med r1 key /. med r0 key in
    pf "shape: dfa cost %.1fx from n=100 to n=10000; tree cost %.1fx@."
      (ratio "dfa_ns_per_ev") (ratio "tree_ns_per_ev")
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* E2: compiled automaton size and compile time vs expression size     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2: automaton size / compile time vs expression size (§4-5)";
  let list sep f d = String.concat sep (List.init d f) in
  let chain op d = op ^ "(" ^ list ", " (Printf.sprintf "after m%d") d ^ ")" in
  let rec tower i =
    if i = 0 then "after base" else Printf.sprintf "!(%s & after m%d)" (tower (i - 1)) i
  in
  let families =
    [
      ("sequence chain", chain "sequence");
      ("relative chain", chain "relative");
      ("prior chain", chain "prior");
      ("alternation", list " | " (fun i -> Printf.sprintf "after m%d; after n%d" i i));
      ("negation tower", tower);
    ]
  in
  let row name depth src =
    let expr = P.parse_event src in
    let states = ref 0 in
    let ns =
      per_call ~min_ns:4e6 (fun () ->
          let alphabet, lowered, _ = Rewrite.build expr in
          let c = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
          states := Compile.total_dfa_states c)
    in
    [ ("family", S name); ("depth", depth);
      ("leaves", I (List.length (Expr.logical_events expr))); ("dfa_states", I !states);
      ("compile_ns", T ns) ]
  in
  let sweep (name, make) =
    List.map (fun d -> row name (I d) (make d)) [ 1; 2; 4; 6; 8 ]
  in
  (* and the stockroom's T8, the paper's adjacency example *)
  let t8 = row "stockroom T8" Na "after deposit; before withdraw; after withdraw" in
  emit [ ("rows", List.concat_map sweep families @ [ t8 ]) ]

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
  let mask _ = true in
  let row n =
    let h = seeded_history ~m ~len:n 7 in
    let tree = Incr.make lowered in
    Array.iter (fun sym -> ignore (Incr.post tree ~mask sym)) h;
    let re = Reeval.make lowered in
    Array.iter (fun sym -> ignore (Reeval.post re ~mask sym)) h;
    (* automaton state: one int array per object *)
    [ ("n", I n); ("dfa_bytes_per_obj", I (8 * Compile.n_state_words compiled));
      ("tree_bytes_per_obj", I (Incr.state_bytes tree));
      ("reeval_bytes_per_obj", I (Reeval.state_bytes re)) ]
  in
  emit [ ("rows", List.map row [ 10; 100; 1000 ]) ]

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
  let bench d =
    let s = ref d.Dfa.start in
    let i = ref 0 in
    per_call (fun () ->
        s := Dfa.step d !s h.(!i mod Array.length h);
        incr i)
  in
  let row (name, e) =
    let a = Compile.compile_pure ~m e in
    let a' = Committed.lift a ~tbegin:tb ~tcommit:tc ~tabort:ta in
    [ ("expr", S name); ("|A|", I (Dfa.n_states a)); ("|A'|", I (Dfa.n_states a'));
      ("bound", I (Dfa.n_states a * Dfa.n_states a)); ("A_ns_per_ev", T (bench a));
      ("A'_ns_per_ev", T (bench a')) ]
  in
  emit [ ("rows", List.map row exprs) ]

(* ------------------------------------------------------------------ *)
(* E5: mask-disjointness rewriting blowup (§5)                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: overlapping-mask rewriting (§5 claim: 2^k atoms, acceptable in practice)";
  let rows =
    List.map
      (fun k ->
        let leaves = List.init k (fun i -> Printf.sprintf "before log && x%d > 0" i) in
        let expr = P.parse_event (String.concat " | " leaves) in
        let build () =
          let alphabet, _, _ = Rewrite.build expr in
          (alphabet, Detector.make expr)
        in
        let alphabet, det = build () in
        let build_ns = rep (fun _ -> time_ns (fun () -> ignore (build ()))) in
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
        let classify_ns =
          per_call (fun () -> ignore (Detector.post det state ~env occ))
        in
        [ ("k", I k); ("atoms", I (Array.length alphabet.Rewrite.atoms));
          ("dfa_states", I (Compile.total_dfa_states det.Detector.compiled));
          ("build_ns", T build_ns); ("classify_ns_per_ev", T classify_ns) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  emit [ ("rows", rows) ]

(* ------------------------------------------------------------------ *)
(* E6: coupling modes (§7)                                             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: the nine coupling modes as event expressions (§7)";
  let cond = Mask.Call ("cond", []) in
  let event = Expr.after "edit" in
  let env =
    { Mask.empty_env with var = (fun _ -> None); call = (fun _ _ -> Value.Bool true) }
  in
  (* a plausible transaction stream at the automaton level *)
  let occs =
    Array.map
      (fun b -> { Symbol.basic = b; args = []; at = 0L })
      [|
        Symbol.Tbegin; Symbol.Access Before; Symbol.Method (Before, "edit");
        Symbol.Method (After, "edit"); Symbol.Access After; Symbol.Tcomplete;
        Symbol.Tcommit;
      |]
  in
  let rows =
    List.map
      (fun mode ->
        let det = Detector.make (Coupling.expression mode ~event ~cond) in
        let state = Detector.initial det in
        let i = ref 0 in
        let ns =
          per_call (fun () ->
              ignore (Detector.post det state ~env occs.(!i mod Array.length occs));
              incr i)
        in
        [ ("mode", S (Coupling.name mode));
          ("states", I (Compile.total_dfa_states det.Detector.compiled));
          ("state_words", I (Detector.n_state_words det)); ("detect_ns_per_ev", T ns) ])
      Coupling.all
  in
  emit [ ("rows", rows) ]

(* ------------------------------------------------------------------ *)
(* E7: end-to-end stockroom throughput                                 *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: stockroom transaction throughput vs active triggers (§3.5/§5)";
  let module S = Ode_scenarios.Stockroom in
  let module D = Ode_odb.Database in
  let row k_triggers =
    let s = S.setup ~activate:false () in
    let names = [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8" ] in
    let to_activate = List.filteri (fun i _ -> i < k_triggers) names in
    in_txn s.S.db (fun () ->
        List.iter (fun n -> D.activate s.S.db s.S.stockroom n []) to_activate);
    let item = S.new_item s ~name:"w" ~eoq:1 ~balance:max_int in
    let ns =
      calls ~each:300 (fun j ->
          ignore (S.withdraw s ~item ~qty:(if (j + 1) mod 3 = 0 then 150 else 10)))
    in
    [ ("triggers", I k_triggers); ("ns_per_txn", T ns);
      ("txn_per_s", F (1e9 /. ns.median)) ]
  in
  let rows = List.map row [ 0; 1; 2; 4; 8 ] in
  emit [ ("rows", rows) ];
  pf "shape: all 8 paper triggers cost %.1fx over no triggers@."
    (med (List.nth rows 4) "ns_per_txn" /. med (List.hd rows) "ns_per_txn")

(* ------------------------------------------------------------------ *)
(* E8: counting operators (§3.4): states linear in n                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8: counting-operator automaton size (choose/every/prior n)";
  let parse op n = P.parse_event (Printf.sprintf "%s %d (after f)" op n) in
  let states op n =
    let alphabet, lowered, _ = Rewrite.build (parse op n) in
    I (Dfa.n_states (Compile.compile_pure ~m:(Rewrite.n_symbols alphabet) lowered))
  in
  let rows =
    List.map
      (fun n ->
        let choose = parse "choose" n in
        let compile_ns = per_call ~min_ns:4e6 (fun () -> ignore (Detector.make choose)) in
        [ ("n", I n); ("choose", states "choose" n); ("every", states "every" n);
          ("prior", states "prior" n); ("choose_compile_ns", T compile_ns) ])
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  emit [ ("rows", rows) ]

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
  let occs =
    Array.map
      (fun b -> { Symbol.basic = b; args = []; at = 0L })
      [|
        Symbol.Method (After, "access"); Symbol.Method (After, "deposit");
        Symbol.Method (Before, "withdraw"); Symbol.Method (After, "withdraw");
        Symbol.Tcommit; Symbol.Method (After, "m0"); Symbol.Method (After, "m1");
        Symbol.Method (After, "m2");
      |]
  in
  let rows =
    List.map
      (fun (name, srcs) ->
        let exprs = List.map P.parse_event srcs in
        let detectors = List.map Detector.make exprs in
        let states = List.map Detector.initial detectors in
        let i = ref 0 in
        let sep_ns =
          per_call (fun () ->
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
          per_call (fun () ->
              let occ = occs.(!j mod Array.length occs) in
              let s, _ = Combine.post combined !cstate ~env occ in
              cstate := s;
              incr j)
        in
        let k = List.length exprs in
        [ ("trigger_set", S name); ("k", I k);
          ("sum_states", I (Combine.sum_of_parts combined));
          ("combined_states", I (Combine.n_states combined));
          ("separate_ns_per_ev", T sep_ns); ("combined_ns_per_ev", T comb_ns);
          ("state_words", S (Printf.sprintf "%d vs 1" k)) ])
      trigger_sets
  in
  emit [ ("rows", rows) ]

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
  let rows =
    List.map
      (fun (name, src) ->
        let expr = P.parse_event src in
        let compile minimize =
          Compile.minimization := minimize;
          let states = ref 0 in
          let ns =
            per_call ~min_ns:4e6 (fun () ->
                let alphabet, lowered, _ = Rewrite.build expr in
                let c = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
                states := Compile.total_dfa_states c)
          in
          Compile.minimization := true;
          (!states, ns)
        in
        let min_states, min_ns = compile true in
        let raw_states, raw_ns = compile false in
        [ ("expr", S name); ("min_states", I min_states); ("raw_states", I raw_states);
          ("min_compile_ns", T min_ns); ("raw_compile_ns", T raw_ns) ])
      exprs
  in
  emit [ ("rows", rows) ]

(* ------------------------------------------------------------------ *)
(* E11 (ablation): native closures vs the interpreted ODL surface       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 (ablation): native OCaml bodies vs interpreted ODL bodies";
  let module D = Ode_odb.Database in
  let run_txns db oid =
    calls ~each:2000 (fun _ ->
        match D.with_txn db (fun _ -> ignore (D.call db oid "incr" [])) with
        | Ok () | Error `Aborted -> ())
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
  let native_oid = in_txn native_db (fun () -> D.create native_db "cell" []) in
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
  let odl_oid = in_txn odl_db (fun () -> D.create odl_db "cell" []) in
  let row name ns =
    [ ("surface", S name); ("ns_per_txn", T ns); ("txn_per_s", F (1e9 /. ns.median)) ]
  in
  let native = run_txns native_db native_oid in
  let odl = run_txns odl_db odl_oid in
  emit [ ("rows", [ row "native" native; row "ODL" odl ]) ];
  pf "shape: interpretation costs %.2fx@." (odl.median /. native.median)

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
  let rows =
    List.map
      (fun n ->
        let det = Detector.make expr in
        let state = Detector.initial det in
        for i = 0 to n - 1 do
          ignore (Detector.post det state ~env (mk_occ i))
        done;
        let i = ref n in
        let det_ns =
          per_call (fun () ->
              ignore (Detector.post det state ~env (mk_occ !i));
              incr i)
        in
        let prov = Provenance.make ~max_matches:100_000 expr in
        for i = 0 to n - 1 do
          ignore (Provenance.post prov ~env (mk_occ i))
        done;
        let batch = 60 in
        let witnesses = ref 0 in
        let prov_ns =
          calls ~each:(batch / repeats) (fun j ->
              let found = Provenance.post prov ~env (mk_occ (n + j)) in
              witnesses := !witnesses + List.length found)
        in
        [ ("history", I n); ("detector_ns_per_ev", T det_ns);
          ("provenance_ns_per_ev", T prov_ns);
          ("witnesses_per_ev", F (float_of_int !witnesses /. float_of_int batch));
          ("instances", I (Provenance.instance_count prov)) ])
      [ 30; 100; 300; 1000 ]
  in
  emit [ ("rows", rows) ];
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
  in_txn db (fun () ->
      let oid = D.create db "hot" [] in
      for i = 0 to n - 1 do
        D.activate db oid (Printf.sprintf "t%d" i) []
      done;
      (db, oid))

(* ns per "work" call on [inert_trigger_db n], after [prepare db] *)
let inert_call_ns n prepare =
  let module D = Ode_odb.Database in
  let db, oid = inert_trigger_db n in
  prepare db;
  let tx = D.begin_txn db in
  let ns = per_call (fun () -> ignore (D.call db oid "work" [])) in
  (match D.commit db tx with Ok () | Error `Aborted -> ());
  ns

let e9_dispatch () =
  section "E9-dispatch: post throughput vs inert active triggers (index on/off)";
  let rows =
    List.map
      (fun n ->
        let scan = inert_call_ns n (fun db -> Stepper.install db Stepper.Scan) in
        let indexed = inert_call_ns n ignore in
        [ ("inert_triggers", I n); ("scan_ns_per_call", T scan);
          ("indexed_ns_per_call", T indexed);
          ("speedup", F (scan.median /. indexed.median)) ])
      [ 1; 10; 100; 1000 ]
  in
  emit ~file:"BENCH_dispatch.json"
    ~about:
      [ ("experiment", "E9-dispatch");
        ("unit", "ns per method call (6 basic events posted per call)");
        ( "description",
          "object with N inert active triggers: brute-force scan (reference stepper, \
           Scan mode) vs the posting kernel over the per-class dispatch index" ) ]
    [ ("rows", rows) ];
  pf "shape: a call posts 6 basic events; the scan path is O(N) per post,\n\
      the indexed path touches only triggers whose alphabet can react.@."

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
  let rows =
    List.map
      (fun n ->
        let off = inert_call_ns n (fun db -> D.set_observability db false) in
        let on = inert_call_ns n (fun db -> D.set_observability db true) in
        [ ("inert_triggers", I n); ("obs_off_ns_per_call", T off);
          ("obs_on_ns_per_call", T on); ("overhead", F (on.median /. off.median)) ])
      [ 1; 10; 100; 1000 ]
  in
  emit ~file:"BENCH_obs.json"
    ~about:
      [ ("experiment", "E10-obs");
        ("unit", "ns per method call (6 basic events posted per call)");
        ( "description",
          "indexed dispatch, N inert active triggers: Ode_obs registry disabled vs \
           enabled (no trace sink, so timestamping stays gated off)" ) ]
    [ ("rows", rows) ];
  pf "shape: disabled probes cost one boolean load; enabled ones pay counter,\n\
      kind-table and span-ring updates per post — clock reads and latency\n\
      histograms only start once a trace sink (or set_timing) asks for them.@."

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
  in_txn db (fun () ->
      ( db,
        List.init kernel_n_objects (fun _ ->
            let oid = E.create db "c" [] in
            for i = 0 to kernel_triggers_per_obj - 1 do
              E.activate db oid (Printf.sprintf "t%d" i) []
            done;
            oid) ))

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
  let row path contended =
    let db, oids = kernel_workload () in
    if path = "legacy" then Stepper.install db Stepper.Index;
    let items = build_items ~contended oids in
    let tx = Tx.begin_txn db in
    (* the first (warm-up) batch pays the tbegin posts *)
    let ns = per_call ~per:n_events (fun () -> ignore (E.post_many db items)) in
    let batches = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to batches do
      ignore (E.post_many db items)
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int (batches * n_events) in
    (match Tx.commit db tx with Ok () | Error `Aborted -> ());
    [ ("path", S path); ("workload", S (if contended then "contended" else "uniform"));
      ("ns_per_event", T ns); ("events_per_sec", F (1e9 /. ns.median));
      ("minor_words_per_event", F words) ]
  in
  let rows =
    [ row "legacy" false; row "kernel" false; row "legacy" true; row "kernel" true ]
  in
  let base = med (List.hd rows) "ns_per_event" in
  let rows =
    List.map
      (fun r -> r @ [ ("speedup_vs_legacy_uniform", F (base /. med r "ns_per_event")) ])
      rows
  in
  pf "objects=%d triggers/object=%d batch=%d events@." n_objects
    kernel_triggers_per_obj n_events;
  emit ~file:"BENCH_kernel.json"
    ~about:
      [ ("experiment", "E12-kernel");
        ("unit", "ns per posted event (classify+step dominated, zero firings)");
        ( "description",
          Printf.sprintf
            "%d objects x %d perpetual never-completing triggers, batches of %d events \
             (%d per object) through the legacy indexed posting path (the reference \
             stepper's Index mode) vs the compiled kernel; contended rows send 80%% of \
             the batch to %d of the objects; minor_words_per_event counts minor-heap \
             allocation"
            n_objects kernel_triggers_per_obj n_events events_per_obj n_hot ) ]
    [ ("rows", rows) ];
  pf "shape: the kernel removes per-post candidate list building, closure\n\
      allocation and per-detector cache lookups — the classify/step sweep\n\
      is a linear pass over int arrays with a constant allocation envelope.@."

(* ------------------------------------------------------------------ *)
(* The wire: an in-process server on an ephemeral port                 *)
(* ------------------------------------------------------------------ *)

module Server = Ode_net.Server
module Client = Ode_net.Client
module NP = Ode_net.Protocol

let loopback_server db =
  let module C = Ode_odb.Database.Config in
  let serve = { C.default_serve with C.port = 0 } in
  let srv = Server.create ~db ~config:{ C.default with C.serve } () in
  Server.start srv;
  (srv, Server.port srv)

let rpc c req =
  match Client.request c req with
  | Ok j -> j
  | Error (code, msg) -> failwith (Printf.sprintf "wire [%s] %s" code msg)

let jint key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | _ -> failwith ("wire reply carried no " ^ key)

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
  in_txn db (fun () -> ignore (D.call db oid "work" []));
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
    in_txn db (fun () ->
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
        D.post_many db items)
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
  let dir = fresh_dir "ode_bench_wal" in
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
    let dir2 = fresh_dir "ode_bench_wal" in
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
  let srv, port = loopback_server (D.create_db ~config:D.Config.default ()) in
  let sub = Client.connect ~port () in
  ignore
    (rpc sub
       (NP.Schema
          "class cell { int n = 0; public: cell() { activate T(); } update \
           void hit(int q) { n = n + q; } update void seen() { } trigger: \
           T() : perpetual after hit(q) && q > 0 ==> seen(); };"));
  let oid = jint "oid" (rpc sub (NP.Create ("cell", []))) in
  ignore (rpc sub (NP.Subscribe NP.Block));
  let poster = Client.connect ~port () in
  let item =
    { NP.i_oid = oid; i_event = Symbol.Method (After, "hit"); i_args = [ Value.Int 3 ] }
  in
  ignore (rpc poster (NP.Post_many (List.init 8 (fun _ -> item))));
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
  let arm_ns =
    time_ns (fun () ->
        for i = 0 to 999_999 do
          let due = Int64.of_int (1 + Random.State.int trng 5_000_000) in
          Tw.insert_timer tdb
            (timer ~seq:i ~oid:(1 + i) ~trigger:"m" ~spec:(Symbol.After_period 1L) due)
        done)
  in
  let armed = Tw.pending_count tdb in
  if armed <> 1_000_000 then
    failwith (Printf.sprintf "timer smoke: armed %d/1000000" armed);
  let drain_ns = time_ns (fun () -> Tw.advance_clock tdb 5_000_001L) in
  let left = Tw.pending_count tdb in
  if left <> 0 then
    failwith (Printf.sprintf "timer smoke: %d timers survived the drain" left);
  pf
    "timer smoke ok (1M timers armed in %.0f ms, drained to empty in %.0f \
     ms).@."
    (arm_ns /. 1e6) (drain_ns /. 1e6)

(* ------------------------------------------------------------------ *)
(* E14-wal: commit durability cost — WAL vs full-image saves            *)
(* ------------------------------------------------------------------ *)

(* One deposit-commit per measurement against a resident population of
   1k/10k/100k objects, under three durability disciplines: a full
   [save] after every commit (the only option before the WAL), the WAL
   with an fsync per commit (flush window 0), and the WAL under a 50 ms
   group-commit window. Each repeat runs every commit and a closing
   sync. Reports commits/sec and p50/p99 latency over the commits of
   all repeats, and writes BENCH_wal.json. *)
let e14_wal () =
  section "E14-wal: commit throughput and p99 latency vs full-image saves";
  let module D = Ode_odb.Database in
  let module Wal = Ode_odb.Wal in
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
    in_txn db (fun () ->
        Array.init n (fun _ ->
            let oid = D.create db "acct" [] in
            D.activate db oid "watch" [];
            oid))
  in
  let run ~n ~commits durability =
    let save = match durability with `Image -> true | `Wal _ -> false in
    let db = D.create_db ~durability () in
    D.register_class db (schema ());
    let oids = populate db n in
    let tmp = Filename.temp_file "ode_e14_img" ".img" in
    let commit_one i =
      in_txn db (fun () -> ignore (D.call db oids.(i mod n) "deposit" []));
      if save then D.save db tmp
    in
    commit_one 0 (* warm-up: first touch pays population cache misses *);
    let samples = Array.make (repeats * commits) 0.0 in
    let per_sec =
      rep (fun r ->
          let ns =
            time_ns (fun () ->
                for i = r * commits to ((r + 1) * commits) - 1 do
                  samples.(i) <- time_ns (fun () -> commit_one (i + 1)) /. 1e3
                done;
                D.sync_durability db)
          in
          float_of_int commits /. (ns /. 1e9))
    in
    D.close_durability db;
    Sys.remove tmp;
    (per_sec, pct samples 0.50, pct samples 0.99)
  in
  let wal flush_ms =
    `Wal (Wal.config ~flush_ms ~snapshot_every:0 (fresh_dir "ode_e14"))
  in
  let rows =
    List.concat_map
      (fun n ->
        let runs =
          List.map
            (fun (name, commits, durability) -> (name, run ~n ~commits durability))
            [ ("image-save", max 20 (200_000 / n), `Image); ("wal-fsync", 2_000, wal 0);
              ("wal-group-50ms", 2_000, wal 50) ]
        in
        let base, _, _ = List.assoc "image-save" runs in
        List.map
          (fun (name, (per_sec, p50, p99)) ->
            [ ("objects", I n); ("durability", S name); ("commits_per_sec", T per_sec);
              ("p50_us", p50); ("p99_us", p99);
              ("speedup_vs_image", F (per_sec.median /. base.median)) ])
          runs)
      [ 1_000; 10_000; 100_000 ]
  in
  emit ~file:"BENCH_wal.json"
    ~about:
      [ ("experiment", "E14-wal");
        ("unit", "commits per second; per-commit latency percentiles in microseconds");
        ( "description",
          "one-object deposit commits against a resident population, under: a full ODE1 \
           image save per commit, the WAL with an fsync per commit (flush_ms=0), and the \
           WAL under a 50ms group-commit window; each repeat ends with a sync" ) ]
    [ ("rows", rows) ];
  pf "shape: a redo batch is O(touched objects); a full image is O(database).\n\
      The group-commit window amortises the fsync across the batches that\n\
      arrive inside it, at the cost of that window of durability.@."

(* ------------------------------------------------------------------ *)
(* E15: the wire front door — multi-client soak over loopback          *)
(* ------------------------------------------------------------------ *)

(* An in-process server (its select loop on one thread) and N client
   threads posting batches over real loopback sockets: end-to-end wire
   throughput and per-request latency for 1, 4 and 16 clients, with one
   drop-policy subscriber watching the firing stream the whole time.
   Each repeat has every client push a fifth of its events; the
   latency percentiles pool the requests of all repeats. Emits
   BENCH_serve.json. *)
let e15_serve () =
  section "E15: odes serve over loopback (events/sec and request p99 by client count)";
  let module DB = Ode_odb.Database in
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
  let events_per_client = 20_000 and batch = 100 in
  let row clients =
    let db = DB.create_db ~config:DB.Config.default () in
    ignore (Ode_odl.Odl.load_schema db schema);
    let srv, port = loopback_server db in
    let sub = Client.connect ~port () in
    (* one object per client so the soak exercises candidate selection,
       not one hot history; each client's connection lasts all repeats *)
    let conns =
      Array.init clients (fun _ ->
          let oid = jint "oid" (rpc sub (NP.Create ("meter", []))) in
          let bump i =
            { NP.i_oid = oid; i_event = Symbol.Method (After, "bump");
              i_args = [ Value.Int (i mod 10) ] }
          in
          (Client.connect ~port (), NP.Post_many (List.init batch bump)))
    in
    ignore (rpc sub (NP.Subscribe NP.Drop));
    let requests = events_per_client / batch / repeats in
    let lat = Array.make (repeats * clients * requests) 0.0 in
    (* a reply reports its whole batch's firing total, and coalescing
       puts many requests in one batch — dedup by batch serial or the
       sum multiplies *)
    let mu = Mutex.create () and by_batch = Hashtbl.create 1024 in
    let worker r k =
      let c, post = conns.(k) in
      Thread.create
        (fun () ->
          for q = 0 to requests - 1 do
            let j = ref Json.Null in
            let ns = time_ns (fun () -> j := rpc c post) in
            lat.((((r * clients) + k) * requests) + q) <- ns /. 1e3;
            Mutex.protect mu (fun () ->
                Hashtbl.replace by_batch (jint "batch" !j) (jint "firings" !j))
          done)
        ()
    in
    let per_sec =
      rep (fun r ->
          let ns =
            time_ns (fun () -> List.iter Thread.join (List.init clients (worker r)))
          in
          float_of_int (clients * requests * batch) /. (ns /. 1e9))
    in
    Array.iter (fun (c, _) -> Client.close c) conns;
    let seen = List.length (Client.poll_firings sub) + Client.lagged_total sub in
    Client.close sub;
    Server.stop srv;
    let fired = Hashtbl.fold (fun _ n acc -> acc + n) by_batch 0 in
    if fired = 0 then failwith "e15: soak produced no firings";
    [ ("clients", I clients); ("events_per_client", I events_per_client);
      ("events_per_sec", T per_sec); ("req_p50_us", pct lat 0.5);
      ("req_p99_us", pct lat 0.99); ("firings", I fired); ("observed", I seen) ]
  in
  emit ~file:"BENCH_serve.json"
    ~about:
      [ ("experiment", "E15-serve");
        ( "unit",
          "end-to-end wire events per second; per-request latency percentiles in \
           microseconds" );
        ( "description",
          "N concurrent clients posting 100-event post_many batches over loopback to \
           odes serve (each read burst flushed as one batch), one drop-policy \
           subscriber streaming firings throughout" ) ]
    [ ("rows", List.map row [ 1; 4; 16 ]) ];
  pf "shape: one select loop owns the engine; requests that arrive in the\n\
      same read burst coalesce into one batch, flushed at the end of the burst.@."

(* ------------------------------------------------------------------ *)
(* E17-timer: the timing wheel vs the sorted-list queue                 *)
(* ------------------------------------------------------------------ *)

(* Two costs. [arm]: marginal insert into a queue already holding n
   timers — the wheel's raw [Timewheel.insert_timer] against the
   sorted-list insert of the test model (test/reference/timer_model.ml),
   O(1) amortized vs O(n), so the list's arm count shrinks as n grows to
   keep the rows affordable. [sweep]: [advance_to] over a fleet of
   objects with staggered periodic triggers, every delivery re-arming
   its timer, on the wheel alone; each repeat advances a fifth of the
   window. The list sweep column is retired with the in-engine list
   queue (EXPERIMENTS.md cites its last figures); the 1M-pending sweep
   row fills the structure with parked timers due beyond the window, so
   cascade and occupancy costs are real. Emits BENCH_timer.json. *)
let e17_timer () =
  section "E17-timer: timing wheel vs sorted-list model (arm) + wheel advance sweep";
  let module T = Ode_odb.Types in
  let module Tw = Ode_odb.Timewheel in
  let module Sc = Ode_odb.Schema in
  let module E = Ode_odb.Engine in
  let module Obs = Ode_obs.Registry in
  let module Model = Ode_reference.Timer_model in
  let horizon = 10_000_000 in
  let every = Symbol.Every (Int64.of_int horizon) in
  let mk_timer i = timer ~seq:i ~oid:(1 + (i mod 9973)) ~trigger:"t" ~spec:every in
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
    let insert =
      if wheel then begin
        let db = T.make_db () in
        Tw.replace db queue;
        fun i -> Tw.insert_timer db (mk_timer (n + i) dues.(i))
      end
      else begin
        let q = ref queue in
        fun i -> q := Model.insert_list (mk_timer (n + i) dues.(i)) !q
      end
    in
    calls ~each:(k / repeats) insert
  in
  (* a fleet sweep: [objects] nodes with an every-[period]-ms heartbeat,
     activation staggered over one period so due instants spread out;
     then advance [advance_ms], every delivery re-arming its timer.
     [pad] extra timers are parked beyond the window (no live object),
     occupying the structure without ever coming due. *)
  let sweep (objects, period, advance_ms, pad) =
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
      in_txn db (fun () ->
          for _ = 1 to n do
            E.activate db (E.create db "node" []) "hb" []
          done);
      made := !made + n;
      if !made < objects then Tw.advance_clock db 1L
    done;
    let rng = Random.State.make [| 4242; objects |] in
    let parked_from = Int64.add (Tw.now db) (Int64.of_int (advance_ms + period)) in
    for i = 0 to pad - 1 do
      Tw.insert_timer db
        (timer ~seq:(Tw.fresh_seq db) ~oid:(1_000_000_000 + i) ~trigger:"parked"
           ~spec:(Symbol.After_period 1L) (Int64.add parked_from (rand_due rng)))
    done;
    let pending = Tw.pending_count db in
    Obs.set_enabled db.T.obs true;
    let delivered () = Obs.get db.T.obs Obs.Timer_deliveries in
    let per_delivery =
      rep (fun _ ->
          let d0 = delivered () in
          let step = Int64.of_int (advance_ms / repeats) in
          let ns = time_ns (fun () -> Tw.advance_clock db step) in
          if delivered () = d0 then failwith "sweep delivered nothing";
          ns /. float_of_int (delivered () - d0))
    in
    [ ("pending", I pending); ("deliveries", I (delivered ()));
      ("wheel_ns_per_delivery", T per_delivery) ]
  in
  let arm_rows =
    List.map
      (fun (n, k_list) ->
        let list_ns = arm ~wheel:false ~n ~k:k_list in
        let wheel_ns = arm ~wheel:true ~n ~k:10_000 in
        [ ("occupancy", I n); ("list_arms_measured", I k_list);
          ("list_ns_per_arm", T list_ns); ("wheel_ns_per_arm", T wheel_ns);
          ("speedup", F (list_ns.median /. wheel_ns.median)) ])
      [ (10_000, 4_000); (100_000, 1_000); (1_000_000, 300) ]
  in
  let sweep_rows =
    List.map sweep
      [ (10_000, 1_000, 10_000, 0); (100_000, 10_000, 1_000, 0);
        (10_000, 1_000, 10_000, 990_000) ]
  in
  emit ~file:"BENCH_timer.json"
    ~about:
      [ ("experiment", "E17-timer");
        ( "unit",
          "ns per armed timer / ns per delivered timer (delivery = system txn + \
           time-event post + periodic re-arm)" );
        ( "description",
          Printf.sprintf
            "marginal arm cost at fixed occupancy, dues uniform over %d ms: the \
             sorted-list insert of the test model vs raw timing-wheel inserts; and a \
             wheel advance sweep (staggered every-period heartbeats, each delivery \
             re-arming; the 1M-pending row pads the wheel with parked timers)"
            horizon ) ]
    [ ("arm_rows", arm_rows); ("sweep_rows", sweep_rows) ];
  pf "shape: arming is O(n) vs O(1); the wheel's per-delivery cost stays flat\n\
      from 10^4 to 10^6 pending.@."

(* ------------------------------------------------------------------ *)
(* E21-codec: request decode, generic JSON tree vs typed cursor        *)
(* ------------------------------------------------------------------ *)

(* Times the generic decode ([Json.of_string] then [decode_request])
   against [Protocol.decode_payload] on two frames: an ingest-shaped
   100-item post_many (perfbench's event, seed-fixed meter oids and
   readings), which the typed cursor reads, and a stockroom-shaped
   [call], which the cursor hands to the generic path, so its row
   prices the fallback's extra cost. Exits 1 if the two decoders
   disagree on a frame. *)
let e21_codec () =
  section "E21-codec: request decode, generic JSON tree vs typed cursor";
  let module Pr = Ode_net.Protocol in
  let generic payload =
    match Json.of_string payload with Ok j -> Pr.decode_request j | Error e -> Error e
  in
  let rng = Random.State.make [| 21 |] in
  let sample = Symbol.Method (Symbol.After, "sample") in
  let ingest =
    Pr.Post_many
      (List.init 100 (fun _ ->
           { Pr.i_oid = 1 + Random.State.int rng 20_000; i_event = sample;
             i_args = [ Value.Int (Random.State.int rng 100) ] }))
  in
  let call = Pr.Call (1042, "withdraw", [ Value.Oid 1517; Value.Int 87 ]) in
  let row (name, req, events) =
    let payload = Pr.encode_request ~id:123_456 req in
    (match (generic payload, Pr.decode_payload payload) with
    | Ok a, Ok b when compare a b = 0 -> ()
    | _ ->
      Fmt.epr "e21c: the decoders disagree on the %s frame@." name;
      exit 1);
    let time f = per_call ~per:events (fun () -> ignore (Sys.opaque_identity (f payload))) in
    let g = time generic and t = time Pr.decode_payload in
    [ ("frame", S name); ("bytes", I (String.length payload)); ("events", I events);
      ("path", S (if Pr.decode_typed payload = None then "fallback" else "typed"));
      ("generic_ns_per_event", T g); ("decode_payload_ns_per_event", T t);
      ("ratio", F (t.median /. g.median)) ]
  in
  emit
    [ ("rows", List.map row [ ("ingest post_many", ingest, 100); ("stockroom call", call, 1) ]) ];
  pf "shape: the typed cursor skips the JSON tree on the ingest frame; the call\n\
      pays one failed cursor probe on top of the generic decode.@."

let () =
  let all =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("e9d", e9_dispatch); ("e10", e10);
      ("e10o", e10_obs); ("e11", e11); ("e12", e12);
      ("e12k", e12_kernel); ("e14w", e14_wal); ("e15s", e15_serve);
      ("e17t", e17_timer); ("e21c", e21_codec); ("smoke", smoke) ]
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
  pf "(timed cells: median of %d repeats, +- half the interquartile range)@." repeats;
  List.iter (fun (_, run) -> run ()) selected;
  pf "@.done.@."
