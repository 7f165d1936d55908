(* The Ode_obs observability layer: pinned pipeline counters for a
   scripted scenario, latency-histogram bookkeeping, the trace ring's
   ordering/truncation/sink behaviour, and the firing-subscription
   surface. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Obs = Ode_obs.Registry
module Trace = Ode_obs.Trace
module Hist = Ode_obs.Hist

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

(* the per-kind key exactly as the engine prints it *)
let kind basic = Format.asprintf "%a" Symbol.pp_basic_key (Symbol.basic_key basic)

(* One object of class [c] with two armed perpetual triggers: [hit] on
   [after ping] (fires on every call) and [inert] on an event never
   posted (pruned by the dispatch index, classified by the scan path).
   Setup runs with observability OFF so the counters reflect only the
   scripted transactions. *)
let scripted_db ?trace_capacity () =
  (* image durability pinned: these tests assert exact span sequences
     and counts of the posting pipeline, which the WAL's own
     [Wal_flushed] spans would interleave with under the
     ODE_DURABILITY=wal CI leg (WAL observability is pinned in
     test_wal.ml instead) *)
  let db = D.create_db ?trace_capacity ~durability:`Image () in
  let b = D.define_class "c" in
  let b = D.field b "n" (Value.Int 0) in
  let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger_str b ~perpetual:true "hit" ~event:"after ping"
      ~action:(fun _ _ -> ())
  in
  let b =
    D.trigger_str b ~perpetual:true "inert" ~event:"after never_posted"
      ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "c" [] in
           D.activate db oid "hit" [];
           D.activate db oid "inert" [];
           oid))
  in
  (db, oid)

let ping db oid =
  expect_ok (D.with_txn db (fun _ -> ignore (D.call db oid "ping" [])))

(* ------------------------------------------------------------------ *)
(* Pinned counters                                                     *)
(* ------------------------------------------------------------------ *)

(* Each transaction posts exactly 9 occurrences to the object:
   [after tbegin], the 6 events around the call ([before access],
   [before update], [before ping], [after ping], [after update],
   [after access]), one [before tcomplete] (the §6 fixpoint converges in
   one round: nothing fires on tcomplete), and [after tcommit] from the
   system transaction. Of 2 active triggers, the index hands the
   classifier one candidate on the [after ping] post and prunes the
   rest: 1 + 2*8 = 17 skips per transaction. *)
let n_txns = 5

let test_pinned_counters () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  (* latency histograms are sink-gated; force timing so the probe-count
     pins below stay meaningful without attaching a sink *)
  Obs.set_timing (D.observe db) true;
  for _ = 1 to n_txns do
    ping db oid
  done;
  let r = D.observe db in
  Alcotest.(check int) "posts" (9 * n_txns) (Obs.get r Obs.Posts);
  Alcotest.(check int) "db posts" 0 (Obs.get r Obs.Db_posts);
  Alcotest.(check int) "classified" n_txns (Obs.get r Obs.Classified);
  Alcotest.(check int) "index skipped" (17 * n_txns) (Obs.get r Obs.Index_skipped);
  Alcotest.(check int) "transitions" n_txns (Obs.get r Obs.Transitions);
  Alcotest.(check int) "firings" n_txns (Obs.get r Obs.Firings);
  Alcotest.(check int) "tcomplete rounds" n_txns (Obs.get r Obs.Tcomplete_rounds);
  Alcotest.(check int) "undo entries" 0 (Obs.get r Obs.Undo_entries);
  Alcotest.(check int) "timer deliveries" 0 (Obs.get r Obs.Timer_deliveries);
  Alcotest.(check int) "lock conflicts" 0 (Obs.get r Obs.Lock_conflicts);
  let by_kind = Obs.posts_by_kind r in
  let count k = Option.value ~default:0 (List.assoc_opt k by_kind) in
  Alcotest.(check int) "after ping" n_txns
    (count (kind (Symbol.Method (Symbol.After, "ping"))));
  Alcotest.(check int) "before ping" n_txns
    (count (kind (Symbol.Method (Symbol.Before, "ping"))));
  Alcotest.(check int) "after tbegin" n_txns (count (kind Symbol.Tbegin));
  Alcotest.(check int) "before tcomplete" n_txns (count (kind Symbol.Tcomplete));
  Alcotest.(check int) "after tcommit" n_txns (count (kind Symbol.Tcommit));
  Alcotest.(check int) "post latencies" (9 * n_txns)
    (Hist.count (Obs.hist r Obs.Post));
  Alcotest.(check int) "call latencies" n_txns (Hist.count (Obs.hist r Obs.Call));
  Alcotest.(check int) "commit latencies" n_txns
    (Hist.count (Obs.hist r Obs.Commit));
  Alcotest.(check int) "action latencies" n_txns
    (Hist.count (Obs.hist r Obs.Action))

(* Latency histograms are only fed when timing data has a consumer: a
   trace sink is attached, or [set_timing] forced it on. Counters, the
   kind table and the span ring stay exact regardless. *)
let test_timing_gate () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let r = D.observe db in
  ping db oid;
  Alcotest.(check int) "counters exact without a sink" 9 (Obs.get r Obs.Posts);
  List.iter
    (fun p ->
      Alcotest.(check int)
        ("no " ^ Obs.probe_name p ^ " latencies without a consumer")
        0
        (Hist.count (Obs.hist r p)))
    Obs.all_probes;
  Alcotest.(check int) "spans still emitted" 15
    (List.length (Trace.spans (Obs.trace r)));
  (* attaching a sink turns the clock reads back on *)
  let sink = Trace.add_sink (Obs.trace r) (fun _ -> ()) in
  ping db oid;
  Alcotest.(check int) "post latencies with a sink" 9
    (Hist.count (Obs.hist r Obs.Post));
  Alcotest.(check int) "call latencies with a sink" 1
    (Hist.count (Obs.hist r Obs.Call));
  Trace.remove_sink (Obs.trace r) sink;
  ping db oid;
  Alcotest.(check int) "gated again after detach" 9
    (Hist.count (Obs.hist r Obs.Post));
  (* and the explicit override works without any sink *)
  Obs.set_timing r true;
  ping db oid;
  Alcotest.(check int) "forced timing feeds histograms" 18
    (Hist.count (Obs.hist r Obs.Post))

let test_scan_path_counters () =
  (* the reference stepper's brute-force scan: every active trigger is
     classified on every post (2 * 9), and nothing is "skipped by the
     index" *)
  let db, oid = scripted_db () in
  Ode_reference.Stepper.install db Ode_reference.Stepper.Scan;
  D.set_observability db true;
  ping db oid;
  let r = D.observe db in
  Alcotest.(check int) "every activation classified" 18 (Obs.get r Obs.Classified);
  Alcotest.(check int) "no skips without the index" 0 (Obs.get r Obs.Index_skipped);
  Alcotest.(check int) "same firings" 1 (Obs.get r Obs.Firings)

let test_disabled_counts_nothing () =
  let db, oid = scripted_db () in
  ping db oid;
  let r = D.observe db in
  List.iter
    (fun c -> Alcotest.(check int) (Obs.counter_name c) 0 (Obs.get r c))
    Obs.all_counters;
  List.iter
    (fun p ->
      Alcotest.(check int) (Obs.probe_name p) 0 (Hist.count (Obs.hist r p)))
    Obs.all_probes;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans (Obs.trace r)));
  Alcotest.(check (list (pair string int))) "no kinds" [] (Obs.posts_by_kind r)

let test_abort_and_undo () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let tx = D.begin_txn db in
  D.set_field db oid "n" (Value.Int 1);
  D.abort db tx;
  let r = D.observe db in
  Alcotest.(check int) "one undo entry retired" 1 (Obs.get r Obs.Undo_entries);
  Alcotest.(check bool) "abort span emitted" true
    (List.exists
       (function Trace.Txn_abort _ -> true | _ -> false)
       (Trace.spans (Obs.trace r)))

let test_lock_conflict_counter () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  let t1 = D.begin_txn db in
  ignore (D.call db oid "ping" []);
  let t2 = D.begin_txn db in
  (match D.call db oid "ping" [] with
  | exception D.Lock_conflict o -> Alcotest.(check int) "conflicting oid" oid o
  | _ -> Alcotest.fail "expected a lock conflict");
  Alcotest.(check int) "lock conflicts" 1
    (Obs.get (D.observe db) Obs.Lock_conflicts);
  D.abort db t2;
  D.switch_txn db t1;
  D.abort db t1

let test_timer_deliveries () =
  let db = D.create_db () in
  let b = D.define_class "w" in
  let b =
    D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=100)"
      ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let _oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "w" [] in
           D.activate db oid "tick" [];
           oid))
  in
  D.set_observability db true;
  D.advance_clock db 250L;
  let r = D.observe db in
  Alcotest.(check int) "two due timers delivered" 2
    (Obs.get r Obs.Timer_deliveries);
  Alcotest.(check int) "two delivery spans" 2
    (List.length
       (List.filter
          (function Trace.Timer_delivered _ -> true | _ -> false)
          (Trace.spans (Obs.trace r))))

let test_reset_keeps_enabled () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  ping db oid;
  let r = D.observe db in
  Obs.reset r;
  Alcotest.(check bool) "still enabled" true (Obs.enabled r);
  Alcotest.(check int) "counters zeroed" 0 (Obs.get r Obs.Posts);
  Alcotest.(check int) "trace cleared" 0 (List.length (Trace.spans (Obs.trace r)));
  ping db oid;
  Alcotest.(check int) "counting resumes" 9 (Obs.get r Obs.Posts)

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

let tag = function
  | Trace.Txn_begin { system = false; _ } -> "B"
  | Trace.Txn_begin { system = true; _ } -> "b"
  | Trace.Txn_commit _ -> "C"
  | Trace.Txn_abort _ -> "A"
  | Trace.Posted _ -> "p"
  | Trace.Advanced _ -> "a"
  | Trace.Fired _ -> "f"
  | Trace.Action_ran _ -> "r"
  | Trace.Timer_delivered _ -> "t"
  | Trace.Wal_flushed _ -> "w"
  | Trace.Wal_recovered _ -> "R"

let test_span_order () =
  let db, oid = scripted_db () in
  D.set_observability db true;
  ping db oid;
  let spans = Trace.spans (Obs.trace (D.observe db)) in
  (* user txn begins; tbegin + the 4 pre-body posts; the [after ping]
     post advances [hit], which fires and runs its action; the 2
     post-body posts; tcomplete; commit; then the system txn posting
     [after tcommit] *)
  Alcotest.(check string) "pipeline span sequence" "BpppppafrpppCbp"
    (String.concat "" (List.map tag spans));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped (Obs.trace (D.observe db)))

let test_ring_truncation () =
  let db, oid = scripted_db ~trace_capacity:4 () in
  D.set_observability db true;
  ping db oid;
  let tr = Obs.trace (D.observe db) in
  Alcotest.(check int) "capacity" 4 (Trace.capacity tr);
  Alcotest.(check int) "ring keeps capacity spans" 4 (List.length (Trace.spans tr));
  Alcotest.(check int) "older spans counted as dropped" 11 (Trace.dropped tr);
  (* the retained spans are the MOST RECENT ones, oldest first *)
  Alcotest.(check string) "tail of the sequence" "pCbp"
    (String.concat "" (List.map tag (Trace.spans tr)));
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.spans tr));
  Alcotest.(check int) "dropped reset" 0 (Trace.dropped tr)

let test_sinks_see_everything () =
  let db, oid = scripted_db ~trace_capacity:4 () in
  D.set_observability db true;
  let tr = Obs.trace (D.observe db) in
  let n = ref 0 in
  let sink = Trace.add_sink tr (fun _ -> incr n) in
  ping db oid;
  Alcotest.(check int) "sink saw every span, ring kept 4" 15 !n;
  Trace.remove_sink tr sink;
  ping db oid;
  Alcotest.(check int) "detached sink sees nothing" 15 !n

let test_trace_validation () =
  match Trace.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check int) "empty quantile" 0 (Hist.quantile_ns h 0.99);
  List.iter (Hist.record h) [ 100; 200; 400; 800; 100_000 ];
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 101_500 (Hist.sum_ns h);
  Alcotest.(check int) "max" 100_000 (Hist.max_ns h);
  Alcotest.(check (float 0.01)) "mean" 20_300.0 (Hist.mean_ns h);
  let q50 = Hist.quantile_ns h 0.5 in
  Alcotest.(check bool) "median within its 2x bucket" true
    (q50 >= 200 && q50 <= 512);
  Alcotest.(check bool) "p99 covers the outlier" true
    (Hist.quantile_ns h 0.99 >= 100_000);
  Hist.reset h;
  Alcotest.(check int) "reset" 0 (Hist.count h)

(* A quantile never reads above the largest sample: one 1,201 us sample
   sits in the [2^20, 2^21) ns bucket, whose upper edge (2,097 us) is
   what an unclamped quantile would report. *)
let test_hist_clamped_to_max () =
  let h = Hist.create () in
  Hist.record h 1_201_000;
  Alcotest.(check int) "max" 1_201_000 (Hist.max_ns h);
  Alcotest.(check int) "p50 = max" 1_201_000 (Hist.quantile_ns h 0.5);
  Alcotest.(check int) "p99 = max" 1_201_000 (Hist.quantile_ns h 0.99)

(* ------------------------------------------------------------------ *)
(* Subscriptions                                                       *)
(* ------------------------------------------------------------------ *)

let test_subscription_order () =
  (* two subscribers see every firing, in subscription order, once *)
  let db, oid = scripted_db () in
  let seen = ref [] in
  let _s1 = D.subscribe_firings db (fun f -> seen := (1, f) :: !seen) in
  let _s2 = D.subscribe_firings db (fun f -> seen := (2, f) :: !seen) in
  for _ = 1 to 3 do
    ping db oid
  done;
  let deliveries = List.rev !seen in
  Alcotest.(check int) "both saw all three firings" 6 (List.length deliveries);
  Alcotest.(check (list int)) "subscription order per firing"
    [ 1; 2; 1; 2; 1; 2 ]
    (List.map fst deliveries)

let test_unsubscribe_during_delivery () =
  (* a subscriber that unsubscribes itself mid-batch must not break the
     walk, and later subscribers still see the firing *)
  let db, oid = scripted_db () in
  let first = ref 0 and second = ref 0 in
  let sub = ref None in
  sub :=
    Some
      (D.subscribe_firings db (fun _ ->
           incr first;
           match !sub with Some s -> D.unsubscribe db s | None -> ()));
  let _s2 = D.subscribe_firings db (fun _ -> incr second) in
  ping db oid;
  ping db oid;
  Alcotest.(check int) "self-unsubscribed after one delivery" 1 !first;
  Alcotest.(check int) "later subscriber saw both" 2 !second

(* Counters must stay {e exact} — not approximate — through
   [post_many]'s scratch accumulators, which batch the classify/step
   counter bumps and flush them once per batch. 16 objects × 25 pings:
   every counter is pinned to its computed truth. *)
let test_exact_counters_post_many () =
  let db = D.create_db ~config:D.Config.default () in
  let b = D.define_class "c" in
  let b = D.method_ b ~kind:D.Updating "ping" (fun _ _ _ -> Value.Unit) in
  let b =
    D.trigger_str b ~perpetual:true "hit" ~event:"after ping"
      ~action:(fun _ _ -> ())
  in
  D.register_class db b;
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 16 (fun _ ->
               let oid = D.create db "c" [] in
               D.activate db oid "hit" [];
               oid)))
  in
  D.set_observability db true;
  let batch =
    List.concat_map
      (fun oid ->
        List.init 25 (fun _ -> (oid, Symbol.Method (Symbol.After, "ping"), [])))
      oids
  in
  let fired = ref 0 in
  expect_ok (D.with_txn db (fun _ -> fired := D.post_many db batch));
  let obs = D.observe db in
  let get c = Obs.get obs c in
  Alcotest.(check int) "firings" 400 !fired;
  (* 400 pings + 16 each of tbegin / tcomplete / tcommit *)
  Alcotest.(check int) "posts" 448 (get Obs.Posts);
  Alcotest.(check int) "classified" 400 (get Obs.Classified);
  Alcotest.(check int) "transitions" 400 (get Obs.Transitions);
  Alcotest.(check int) "firings counter" 400 (get Obs.Firings);
  Alcotest.(check int) "tcomplete rounds" 1 (get Obs.Tcomplete_rounds);
  let by_kind = Obs.posts_by_kind obs in
  Alcotest.(check (option int)) "after ping kind" (Some 400)
    (List.assoc_opt (kind (Symbol.Method (Symbol.After, "ping"))) by_kind)

let suite =
  [
    Alcotest.test_case "pinned pipeline counters" `Quick test_pinned_counters;
    Alcotest.test_case "exact counters through post_many" `Quick
      test_exact_counters_post_many;
    Alcotest.test_case "timing gate" `Quick test_timing_gate;
    Alcotest.test_case "scan-path counters" `Quick test_scan_path_counters;
    Alcotest.test_case "disabled = all zeros" `Quick test_disabled_counts_nothing;
    Alcotest.test_case "abort + undo accounting" `Quick test_abort_and_undo;
    Alcotest.test_case "lock-conflict counter" `Quick test_lock_conflict_counter;
    Alcotest.test_case "timer deliveries" `Quick test_timer_deliveries;
    Alcotest.test_case "reset keeps enabled" `Quick test_reset_keeps_enabled;
    Alcotest.test_case "span ordering" `Quick test_span_order;
    Alcotest.test_case "ring truncation" `Quick test_ring_truncation;
    Alcotest.test_case "sinks see every span" `Quick test_sinks_see_everything;
    Alcotest.test_case "trace validation" `Quick test_trace_validation;
    Alcotest.test_case "histogram bookkeeping" `Quick test_hist;
    Alcotest.test_case "histogram quantiles clamp to max" `Quick
      test_hist_clamped_to_max;
    Alcotest.test_case "subscription order" `Quick test_subscription_order;
    Alcotest.test_case "unsubscribe during delivery" `Quick
      test_unsubscribe_during_delivery;
  ]
