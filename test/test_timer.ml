(* The timing wheel against its oracle. [prop_model] drives the wheel
   through [Timewheel]'s own entry points — arm, the three cancels,
   replace, clear, clock moves and [advance_to] — next to the
   sorted-list model ([Ode_reference.Timer_model]) and compares the
   pending queues and the delivery sequence after every step. At system
   level, WAL replay of random arm / cancel / re-arm / advance scripts
   must rebuild the ODE1 image byte for byte. Plus the satellites:
   equal-deadline (due, seq) order, eager cancellation visible in
   [stats.state_bytes], the clock-only-replay regression and the fleet
   scenario's pinned beat and alert totals. *)

open Ode_odb
module D = Database
module Value = Ode_base.Value
module Tw = Timewheel
module Model = Ode_reference.Timer_model
module Symbol = Ode_event.Symbol

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let fresh_dir () =
  let d = Filename.temp_file "ode_timer" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Every timer shape the engine arms: a fast and a slow periodic (the
   slow one crosses level-1 rotations, period > 4096 ms), a one-shot
   after-period and a calendar pattern. *)
let triggers = [| "tick"; "slow"; "once"; "daily" |]

let schema () =
  D.define_class "probe"
  |> (fun b -> D.field b "n" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "poke" (fun db oid _ ->
           D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
           Value.Unit))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
         ~action:(fun db ctx -> ignore (D.call db ctx.D.fc_oid "poke" [])))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "slow" ~event:"every time(MS=4111)"
         ~action:(fun _ _ -> ()))
  |> (fun b ->
       D.trigger_str b "once" ~event:"after time(MS=150)" ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "daily" ~event:"at time(HR=9)"
    ~action:(fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* The random script                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int (* trigger subset bitmask *)
  | Activate of int * string
  | Deactivate of int * string
  | Delete of int
  | Aborted of int * string (* arm + cancel inside a rolled-back txn *)
  | Advance of int

(* Spans are drawn to cross structure boundaries: inside a level-0
   rotation, across it, across the 4096 ms level-1 rotation, and
   (rarely — the periodic timers make every ms of horizon cost
   deliveries) a long hop over the 64^3 ms level-2 rotation. The
   [daily] calendar timer arms at a high level and cascades but stays
   a day away, pinning placement without the million ticks firing it
   would cost. *)
let gen_span rng =
  match Random.State.int rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> 1 + Random.State.int rng 60
  | 8 | 9 | 10 | 11 | 12 -> 61 + Random.State.int rng 240
  | 13 | 14 | 15 -> 3_500 + Random.State.int rng 1_000
  | 16 -> 250_000 + Random.State.int rng 50_000
  | _ -> 30 + Random.State.int rng 100

let gen_ops rng =
  let n = 40 + Random.State.int rng 40 in
  List.init n (fun _ ->
      let trig () = triggers.(Random.State.int rng (Array.length triggers)) in
      let slot () = Random.State.int rng 8 in
      match Random.State.int rng 100 with
      | x when x < 20 -> Create (Random.State.int rng 16)
      | x when x < 34 -> Activate (slot (), trig ())
      | x when x < 46 -> Deactivate (slot (), trig ())
      | x when x < 52 -> Delete (slot ())
      | x when x < 60 -> Aborted (slot (), trig ())
      | _ -> Advance (gen_span rng))

(* Replay one script against one database. *)
let run_script ops db =
  D.register_class db (schema ());
  let objs = ref [] in
  let pick i =
    match !objs with [] -> None | l -> Some (List.nth l (i mod List.length l))
  in
  let in_txn f =
    match D.with_txn db (fun _ -> f ()) with Ok () -> () | Error `Aborted -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Create mask ->
        in_txn (fun () ->
            let oid = D.create db "probe" [] in
            Array.iteri
              (fun bit t ->
                if mask land (1 lsl bit) <> 0 then D.activate db oid t [])
              triggers;
            objs := !objs @ [ oid ])
      | Activate (i, t) -> (
        match pick i with
        | Some oid ->
          in_txn (fun () -> if D.exists db oid then D.activate db oid t [])
        | None -> ())
      | Deactivate (i, t) -> (
        match pick i with
        | Some oid ->
          in_txn (fun () -> if D.exists db oid then D.deactivate db oid t)
        | None -> ())
      | Delete i -> (
        match pick i with
        | Some oid -> in_txn (fun () -> if D.exists db oid then D.delete db oid)
        | None -> ())
      | Aborted (i, t) -> (
        (* arm, re-arm and cancel, then roll it all back: the
           [U_timers_armed]/[U_timers_cancelled] undo paths *)
        match pick i with
        | Some oid when D.exists db oid ->
          let tx = D.begin_txn db in
          (try
             D.activate db oid t [];
             D.activate db oid t [];
             D.deactivate db oid t;
             D.activate db oid t [];
             D.abort db tx
           with D.Lock_conflict _ -> D.abort db tx)
        | _ -> ())
      | Advance ms -> D.advance_clock db (Int64.of_int ms))
    ops

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The wheel against the sorted-list model                             *)
(* ------------------------------------------------------------------ *)

(* Perpetual triggers with no-op actions: a delivery never changes which
   timers are alive, so the model can evaluate liveness once. *)
let model_schema () =
  D.define_class "m"
  |> (fun b -> D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "hb" ~event:"every time(MS=700)"
         ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "p" ~event:"after f" ~action:(fun _ _ -> ())

type mop =
  | Arm of int * string * int * Symbol.time_spec * int
      (* object pick, trigger, epoch, spec, due offset *)
  | Twin of int * string
      (* re-arm a pending timer's (object, spec, instant) for another
         trigger: a same-instant group that delivers once *)
  | Cancel_object of int
  | Cancel_trigger of int * string
  | Cancel_timer of int (* pick among pending, else a stale one *)
  | Replace of int (* drop mask seed *)
  | Clear
  | Clock of int (* signed hop *)
  | Advance of int

let pp_mop ppf = function
  | Arm (o, t, e, spec, d) ->
    Fmt.pf ppf "arm o%d.%s e%d %a +%d" o t e Symbol.pp_time_spec spec d
  | Twin (i, t) -> Fmt.pf ppf "twin #%d as %s" i t
  | Cancel_object o -> Fmt.pf ppf "cancel o%d" o
  | Cancel_trigger (o, t) -> Fmt.pf ppf "cancel o%d.%s" o t
  | Cancel_timer i -> Fmt.pf ppf "cancel timer #%d" i
  | Replace k -> Fmt.pf ppf "replace ~%d" k
  | Clear -> Fmt.pf ppf "clear"
  | Clock d -> Fmt.pf ppf "clock %+d" d
  | Advance d -> Fmt.pf ppf "advance +%d" d

let gen_mops rng =
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let spec () =
    match int 4 with
    | 0 -> Symbol.After_period 1L
    | 1 -> Symbol.At (Symbol.pattern ~sec:7 ())
    | _ -> Symbol.Every (Int64.of_int (300 + int 5_000))
  in
  List.init (60 + int 60) (fun _ ->
      match int 100 with
      | x when x < 24 ->
        let trigger = pick [| "hb"; "p"; "gone" |] in
        let epoch = pick [| 0; 0; 0; 1 |] in
        Arm (int 8, trigger, epoch, spec (), 1 + gen_span rng)
      | x when x < 30 -> Twin (int 1000, pick [| "hb"; "p"; "gone" |])
      | x when x < 36 -> Cancel_object (int 8)
      | x when x < 44 -> Cancel_trigger (int 8, pick [| "hb"; "p"; "gone" |])
      | x when x < 52 -> Cancel_timer (int 1000)
      | x when x < 56 -> Replace (int 1000)
      | x when x < 58 -> Clear
      | x when x < 64 -> Clock (int 2_000 - 400)
      | _ -> Advance (gen_span rng))

(* Apply each op to the database's wheel and to the model queue,
   checking after every op that the pending queue equals the model,
   that cancels return the same timers, and that [advance_to] delivers
   the same (object, instant) sequence. *)
let run_model ops =
  let db = D.create_db ~config:D.Config.default () in
  D.register_class db (model_schema ());
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 6 (fun _ ->
               let oid = D.create db "m" [] in
               D.activate db oid "hb" [];
               D.activate db oid "p" [];
               oid)))
  in
  let oids = Array.of_list (oids @ [ 424_242; 424_243 ]) (* two dead *) in
  let model = Model.create () in
  Model.replace model (Tw.pending db);
  let delivered = ref [] in
  D.set_observability db true;
  let _sink =
    Ode_obs.Trace.add_sink
      (Ode_obs.Registry.trace (D.observe db))
      (function
        | Ode_obs.Trace.Timer_delivered { oid; at_ms } ->
          delivered := { Model.d_oid = oid; d_due = at_ms } :: !delivered
        | _ -> ())
  in
  let stale = ref [] in
  let fail op fmt = QCheck.Test.fail_reportf ("after %a: " ^^ fmt) pp_mop op in
  let check op =
    if Tw.pending db <> Model.pending model then
      fail op "the wheel diverged from the model";
    if Tw.pending_count db <> List.length (Model.pending model) then
      fail op "the pending count is off"
  in
  List.iter
    (fun op ->
      (match op with
      | Arm (o, trigger, epoch, spec, d) ->
        let tm =
          {
            Types.tm_due = Int64.add (D.now db) (Int64.of_int d);
            tm_seq = Tw.fresh_seq db;
            tm_oid = oids.(o);
            tm_trigger = trigger;
            tm_epoch = epoch;
            tm_spec = spec;
            tm_anchor = D.now db;
          }
        in
        stale := tm :: !stale;
        Tw.insert_timer db tm;
        Model.insert model tm
      | Twin (i, trigger) -> (
        match Tw.pending db with
        | [] -> ()
        | live ->
          let tm = List.nth live (i mod List.length live) in
          let tm = { tm with Types.tm_trigger = trigger; tm_seq = Tw.fresh_seq db } in
          Tw.insert_timer db tm;
          Model.insert model tm)
      | Cancel_object o ->
        let oid = oids.(o) in
        if Tw.cancel_object db oid <> Model.cancel_object model oid then
          fail op "cancelled a different set"
      | Cancel_trigger (o, t) ->
        let oid = oids.(o) in
        if Tw.cancel_trigger db oid t <> Model.cancel_trigger model oid t then
          fail op "cancelled a different set"
      | Cancel_timer i ->
        let live = Tw.pending db in
        let pool = if i mod 4 = 0 || live = [] then !stale else live in
        if pool <> [] then begin
          let tm = List.nth pool (i mod List.length pool) in
          Tw.cancel_timer db tm;
          Model.cancel_timer model tm
        end
      | Replace seed ->
        let keep =
          List.filteri (fun j _ -> (j + seed) mod 4 <> 0) (Model.pending model)
        in
        Tw.replace db keep;
        Model.replace model keep
      | Clear ->
        Tw.clear db;
        Model.clear model
      | Clock hop ->
        (* forward hops stay below the earliest due — the discipline a
           logged clock-only batch guarantees *)
        let target = Int64.add (D.now db) (Int64.of_int hop) in
        let target =
          match Model.pending model with
          | tm :: _ when hop > 0 -> min target (Int64.pred tm.Types.tm_due)
          | _ -> target
        in
        if target >= 0L then Tw.set_clock db target
      | Advance d ->
        let target = Int64.add (D.now db) (Int64.of_int d) in
        let next = ref db.Types.wheel.Types.tm_next_seq in
        delivered := [];
        Tw.advance_to db target;
        let reschedule (t : Types.timer) =
          let due =
            match t.tm_spec with
            | Symbol.Every p -> Some (Int64.add t.tm_due p)
            | Symbol.After_period _ -> None
            | Symbol.At pattern -> Clock.next_match pattern ~after:t.tm_due
          in
          Option.map
            (fun due ->
              let seq = !next in
              incr next;
              { t with tm_due = due; tm_seq = seq })
            due
        in
        let expected =
          Model.advance_to model ~target ~alive:(Tw.timer_alive db) ~reschedule
        in
        if List.rev !delivered <> expected then
          fail op "delivered %d occurrences, the model %d" (List.length !delivered)
            (List.length expected);
        if !next <> db.Types.wheel.Types.tm_next_seq then
          fail op "re-arms drew different seqs");
      check op)
    ops;
  true

let prop_model =
  QCheck.Test.make ~name:"wheel = sorted-list oracle after every entry point"
    ~count:50 QCheck.small_int (fun seed ->
      run_model (gen_mops (Random.State.make [| seed; 0x5eed |])))

(* The recovered image must equal the live one the logged run left. *)
let prop_wal_recovery =
  QCheck.Test.make ~name:"WAL replay rebuilds the wheel byte-for-byte"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x33 |] in
      let ops = gen_ops rng in
      let dir = fresh_dir () in
      let cfg =
        Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
      in
      let db = D.create_db ~durability:(`Wal cfg) () in
      run_script ops db;
      let img = D.image_bytes db in
      D.close_durability db;
      let rdb = D.create_db ~durability:(`Wal (Wal.config dir)) () in
      D.register_class rdb (schema ());
      D.recover rdb;
      let ok = String.equal (D.image_bytes rdb) img in
      D.close_durability rdb;
      ok)

(* ------------------------------------------------------------------ *)
(* Deterministic pins                                                  *)
(* ------------------------------------------------------------------ *)

(* Equal deadlines deliver in activation order — the [tm_seq] stamp. *)
let test_equal_deadline_order () =
  let db = D.create_db () in
  D.register_class db (schema ());
  let fired = ref [] in
  let _s = D.subscribe_firings db (fun f -> fired := f.D.f_oid :: !fired) in
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 6 (fun _ ->
               let oid = D.create db "probe" [] in
               D.activate db oid "tick" [];
               oid)))
  in
  D.advance_clock db 70L;
  Alcotest.(check (list int)) "all six fire, in activation order" oids
    (List.rev !fired)

(* Eager cancellation shows up in the stats: deactivating a trigger or
   deleting an object releases its pending timers' bytes immediately
   (the lazy sweep kept them until due). *)
let test_eager_cancel_stats () =
  let db = D.create_db () in
  D.register_class db (schema ());
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "probe" [] in
           D.activate db oid "tick" [];
           D.activate db oid "slow" [];
           D.activate db oid "once" [];
           oid))
  in
  let armed = (D.stats db).D.state_bytes in
  expect_ok (D.with_txn db (fun _ -> D.deactivate db oid "tick"));
  let one_less = (D.stats db).D.state_bytes in
  Alcotest.(check bool) "deactivate released one timer" true
    (armed - one_less >= 100);
  expect_ok (D.with_txn db (fun _ -> D.delete db oid));
  let gone = (D.stats db).D.state_bytes in
  Alcotest.(check bool) "delete released the rest" true (one_less - gone >= 200)

(* Regression: a WAL batch that moves the clock without touching the
   queue must keep wheel placement consistent on replay — the recovered
   engine once peeked a timer stranded at a stale level and spun
   forever trying to pull it. *)
let test_clock_only_replay () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "probe" [] in
         D.activate db oid "tick" []));
  (* nothing due by 65, queue untouched: this logs a clock-only batch
     that crosses the level-0 rotation the timer was placed under *)
  D.advance_clock db 65L;
  D.close_durability db;
  let rdb = D.create_db ~durability:(`Wal (Wal.config dir)) () in
  D.register_class rdb (schema ());
  D.recover rdb;
  let fired = ref 0 in
  let _s = D.subscribe_firings rdb (fun _ -> incr fired) in
  D.advance_clock rdb 10L;
  D.close_durability rdb;
  Alcotest.(check int) "the replayed timer still fires at 70" 1 !fired

(* A time-event action that raises something other than [Tabort]
   aborts its system transaction: after the failed advance the caller's
   transaction is current again, no lock outlives the system
   transaction, and the periodic timer is still armed. *)
let test_raising_time_action () =
  let runs = ref 0 in
  let schema =
    D.define_class "bomb"
    |> (fun b -> D.field b "n" (Value.Int 0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "poke" (fun db oid _ ->
             D.set_field db oid "n" (Value.add (D.get_field db oid "n") (Value.Int 1));
             Value.Unit))
    |> fun b ->
    D.trigger_str b ~perpetual:true "boom" ~event:"every time(MS=10)"
      ~action:(fun db ctx ->
        incr runs;
        ignore (D.call db ctx.D.fc_oid "poke" []);
        failwith "boom")
  in
  let db = D.create_db () in
  D.register_class db schema;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "bomb" [] in
           D.activate db oid "boom" [];
           oid))
  in
  let caller = D.begin_txn db in
  let advance () =
    match D.advance_clock db 10L with
    | () -> Alcotest.fail "the action's Failure must propagate"
    | exception Failure _ -> ()
  in
  advance ();
  Alcotest.(check bool) "caller's transaction is current again" true
    (match D.current_txn db with Some tx -> tx == caller | None -> false);
  (* the aborted action's write lock is gone: the caller can write *)
  ignore (D.call db oid "poke" []);
  expect_ok (D.commit db caller);
  Alcotest.(check bool) "the action's write was undone" true
    (D.get_field db oid "n" = Value.Int 1);
  advance ();
  Alcotest.(check int) "the periodic timer delivered again" 2 !runs

(* The fleet scenario end to end, small: cadence deliveries, one-shot
   service alerts, eager cancellation via idle/retire — every total
   pinned. *)
let test_fleet_small () =
  let fleet = Ode_scenarios.Fleet.setup ~db:(D.create_db ()) ~vehicles:30 () in
  Ode_scenarios.Fleet.tick fleet 1_000L;
  let beats1 = Ode_scenarios.Fleet.total_beats fleet in
  Ode_scenarios.Fleet.idle fleet ~stride:3;
  Ode_scenarios.Fleet.retire fleet ~stride:7;
  Ode_scenarios.Fleet.tick fleet 40_000L;
  (* 10 vehicles each at 50/250/1000 ms over 1000 ms *)
  Alcotest.(check int) "first-second heartbeats" ((20 * 10) + (4 * 10) + 10) beats1;
  Alcotest.(check int) "final heartbeats" 1841 (Ode_scenarios.Fleet.total_beats fleet);
  Alcotest.(check int) "service alerts" 25 (Ode_scenarios.Fleet.total_alerts fleet)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_wal_recovery;
    Alcotest.test_case "equal deadlines keep activation order" `Quick
      test_equal_deadline_order;
    Alcotest.test_case "eager cancellation frees state bytes" `Quick
      test_eager_cancel_stats;
    Alcotest.test_case "clock-only WAL batch replay (regression)" `Quick
      test_clock_only_replay;
    Alcotest.test_case "a raising time action aborts cleanly" `Quick
      test_raising_time_action;
    Alcotest.test_case "fleet scenario totals" `Quick test_fleet_small;
  ]
