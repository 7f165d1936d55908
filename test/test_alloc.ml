(* Allocation-regression guard for the posting kernel.

   On the steady-state kernel path — observability off, mask-free
   triggers that step but never fire — one [Engine.post] allocates only the fixed per-entry
   envelope: the [Symbol.occurrence] record and its boxed [int64]
   timestamp, the [Symbol.Key] dispatch-key wrapper, the committed-mode
   undo [ref], and the [Some obj] stored into the scratch slot —
   measured at ~24 minor-heap words per event on OCaml 5.1/native. The
   classify/step sweep itself — candidate counting, packed-code
   classification, flat-table stepping over the SoA state — allocates
   nothing: it is a constant envelope, independent of the number of
   candidate triggers. The threshold below is double the measured
   budget to absorb compiler-version noise, and tight enough that any
   per-candidate or per-code allocation sneaking back into the kernel
   (a closure, a boxed ref, a tuple — typically 3+ words times four
   candidates here) blows straight through it.

   Skipped on bytecode (different allocation profile) — the guard is
   meaningful only for the native-code compiler the benchmarks use. *)

open Ode_odb
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Expr = Ode_event.Expr
module Mask = Ode_event.Mask

let words_per_event_threshold = 48.0

(* Multi-level automata pay the same fixed envelope plus, per accepted
   inner level, one composite-mask evaluation — an [env.var] lookup
   returning [Some v] and the comparison's boxed intermediates —
   measured at ~40 words per event on the two-level automaton below.
   Still a constant per event, but a larger one; hence a separate
   budget, again double the measurement. *)
let multi_level_words_per_event_threshold = 80.0

let test_kernel_allocations () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* native-only guard *)
  | Sys.Native ->
    (* raw-layer db: [Engine.post] needs the concrete [obj] *)
    let db = Types.make_db () in
    let b = Schema.define_class "c" in
    let b = Schema.field b "x" (Value.Int 0) in
    let b = Schema.method_ b ~kind:Types.Read_only "ping" (fun _ _ _ -> Value.Unit) in
    let b = Schema.method_ b ~kind:Types.Read_only "never" (fun _ _ _ -> Value.Unit) in
    (* four triggers per object, stepping on every ping but never
       completing: pure classify/step work, no firing pipeline *)
    let b =
      List.fold_left
        (fun b i ->
          Schema.trigger_str b ~perpetual:true
            (Printf.sprintf "t%d" i)
            ~event:"after ping ; after never"
            ~action:(fun _ _ -> ()))
        b [ 0; 1; 2; 3 ]
    in
    Engine.register_class db b;
    let oid =
      match
        Txn.with_txn db (fun _ ->
            let oid = Engine.create db "c" [] in
            for i = 0 to 3 do
              Engine.activate db oid (Printf.sprintf "t%d" i) []
            done;
            oid)
      with
      | Ok oid -> oid
      | Error `Aborted -> Alcotest.fail "setup transaction aborted"
    in
    let obj =
      match Store.find_obj db oid with
      | Some obj -> obj
      | None -> Alcotest.fail "object vanished"
    in
    let basic = Symbol.Method (Symbol.After, "ping") in
    let tx = Txn.begin_txn db in
    (* warm up: first post pays touch/tbegin and scratch setup *)
    for _ = 1 to 64 do
      ignore (Engine.post db tx obj basic [])
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Engine.post db tx obj basic [])
    done;
    let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
    Txn.abort db tx;
    if per_event > words_per_event_threshold then
      Alcotest.failf
        "steady-state kernel post allocates %.1f minor words/event (budget %.1f)"
        per_event words_per_event_threshold

(* The same steady-state guard through a multi-level automaton: the
   trigger event wraps its first step in a composite mask, so every ping
   advances a two-word SoA slot through the per-level flat tables and
   evaluates the mask against the object environment. Pins the
   multi-level kernel path to a constant (if larger) envelope — a
   per-level or per-dependency allocation in [Compile.step_flat_masks]
   would scale it and blow the budget. *)
let test_multi_level_allocations () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* native-only guard *)
  | Sys.Native ->
    let db = Types.make_db () in
    let b = Schema.define_class "c" in
    let b = Schema.field b "cm0" (Value.Bool true) in
    let b = Schema.method_ b ~kind:Types.Read_only "ping" (fun _ _ _ -> Value.Unit) in
    let b = Schema.method_ b ~kind:Types.Read_only "never" (fun _ _ _ -> Value.Unit) in
    let event =
      Expr.sequence
        [
          Expr.Masked
            ( Expr.after "ping",
              Mask.Cmp (Mask.Eq, Mask.Var "cm0", Mask.Const (Value.Bool true)) );
          Expr.after "never";
        ]
    in
    let b =
      List.fold_left
        (fun b i ->
          Schema.trigger b ~perpetual:true
            (Printf.sprintf "m%d" i)
            ~event ~action:(fun _ _ -> ()))
        b [ 0; 1; 2; 3 ]
    in
    Engine.register_class db b;
    let oid =
      match
        Txn.with_txn db (fun _ ->
            let oid = Engine.create db "c" [] in
            for i = 0 to 3 do
              Engine.activate db oid (Printf.sprintf "m%d" i) []
            done;
            oid)
      with
      | Ok oid -> oid
      | Error `Aborted -> Alcotest.fail "setup transaction aborted"
    in
    (* the guard is about the multi-level path: fail loudly if the
       masked sequence ever stops compiling to a >1-word flat slot *)
    Alcotest.(check bool)
      "multi-level state" true
      (Engine.trigger_state_words db oid "m0" > 1);
    let obj =
      match Store.find_obj db oid with
      | Some obj -> obj
      | None -> Alcotest.fail "object vanished"
    in
    let basic = Symbol.Method (Symbol.After, "ping") in
    let tx = Txn.begin_txn db in
    for _ = 1 to 64 do
      ignore (Engine.post db tx obj basic [])
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Engine.post db tx obj basic [])
    done;
    let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
    Txn.abort db tx;
    if per_event > multi_level_words_per_event_threshold then
      Alcotest.failf
        "multi-level kernel post allocates %.1f minor words/event (budget %.1f)"
        per_event multi_level_words_per_event_threshold

let suite =
  [
    Alcotest.test_case "kernel posts stay allocation-free" `Quick
      test_kernel_allocations;
    Alcotest.test_case "multi-level kernel posts stay allocation-free" `Quick
      test_multi_level_allocations;
  ]
