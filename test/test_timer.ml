(* The timing wheel against its oracle. [prop_model] drives the wheel
   through [Timewheel]'s own entry points — arm, the three cancels,
   replace, clear, member clock moves, resync and [advance_to] — next
   to the sorted-list model ([Ode_reference.Timer_model]) and compares
   the pending queues and the delivery sequence after every step, at
   partition counts 1/2/4. At system level, random arm / cancel /
   re-arm / advance scripts must give the same firing trace and ODE1
   image bytes at every partition count, and WAL replay must rebuild
   them byte for byte. Plus the satellites: equal-deadline (due, seq)
   order, eager cancellation visible in [stats.state_bytes], and the
   clock-only-replay regression. *)

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

let mk_db ?durability ~partitions () =
  D.create_db ~config:{ (D.Config.of_env ()) with D.Config.partitions } ?durability ()

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

(* Replay one script against one database; the trace is every firing
   in order, (trigger, oid, txn) — oids and txn ids are deterministic,
   so equal traces mean equal behaviour. *)
let run_script ops db =
  D.register_class db (schema ());
  let fired = ref [] in
  let _s =
    D.subscribe_firings db (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_txn) :: !fired)
  in
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
    ops;
  List.rev !fired

let run_one ops ?durability ~partitions () =
  let db = mk_db ?durability ~partitions () in
  let trace = run_script ops db in
  (db, trace, D.image_bytes db)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_scripts =
  QCheck.Test.make
    ~name:"timer scripts: partitions 2/4 = partition 1 (trace + ODE1 bytes)"
    ~count:20 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x17 |] in
      let ops = gen_ops rng in
      let _, tr0, img0 = run_one ops ~partitions:1 () in
      List.for_all
        (fun p ->
          let _, tr, img = run_one ops ~partitions:p () in
          tr = tr0 && String.equal img img0)
        [ 2; 4 ])

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
  | Cancel_object of int
  | Cancel_trigger of int * string
  | Cancel_timer of int (* pick among pending, else a stale one *)
  | Replace of int * int (* member pick, drop mask seed *)
  | Clear of int
  | Clock of int * int (* member pick, signed hop *)
  | Resync
  | Advance of int

let pp_mop ppf = function
  | Arm (o, t, e, spec, d) ->
    Fmt.pf ppf "arm o%d.%s e%d %a +%d" o t e Symbol.pp_time_spec spec d
  | Cancel_object o -> Fmt.pf ppf "cancel o%d" o
  | Cancel_trigger (o, t) -> Fmt.pf ppf "cancel o%d.%s" o t
  | Cancel_timer i -> Fmt.pf ppf "cancel timer #%d" i
  | Replace (m, k) -> Fmt.pf ppf "replace m%d ~%d" m k
  | Clear m -> Fmt.pf ppf "clear m%d" m
  | Clock (m, d) -> Fmt.pf ppf "clock m%d %+d" m d
  | Resync -> Fmt.pf ppf "resync"
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
      | x when x < 30 ->
        let trigger = pick [| "hb"; "p"; "gone" |] in
        let epoch = pick [| 0; 0; 0; 1 |] in
        Arm (int 8, trigger, epoch, spec (), 1 + gen_span rng)
      | x when x < 36 -> Cancel_object (int 8)
      | x when x < 44 -> Cancel_trigger (int 8, pick [| "hb"; "p"; "gone" |])
      | x when x < 52 -> Cancel_timer (int 1000)
      | x when x < 56 -> Replace (int 4, int 1000)
      | x when x < 58 -> Clear (int 4)
      | x when x < 64 -> Clock (int 4, int 2_000 - 400)
      | x when x < 66 -> Resync
      | _ -> Advance (gen_span rng))

(* Apply each op to the database's wheel and to one model queue per
   partition member, checking after every op that each member's pending
   queue equals its model, that cancels return the same timers, and
   that [advance_to] delivers the same (object, instant) sequence. *)
let run_model ops ~partitions =
  let db =
    D.create_db
      ~config:{ D.Config.default with D.Config.partitions; durability = `Image }
      ()
  in
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
  let members = Store.members db in
  let owner oid = oid mod partitions in
  let model =
    Array.map
      (fun m ->
        let q = Model.create () in
        Model.replace q (Tw.pending m);
        q)
      members
  in
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
    Array.iteri
      (fun k m ->
        if Tw.pending m <> Model.pending model.(k) then
          fail op "member %d's wheel diverged from the model" k;
        if Tw.pending_count m <> List.length (Model.pending model.(k)) then
          fail op "member %d's pending count is off" k)
      members
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
        Model.insert model.(owner tm.tm_oid) tm
      | Cancel_object o ->
        let oid = oids.(o) in
        if Tw.cancel_object db oid <> Model.cancel_object model.(owner oid) oid then
          fail op "cancelled a different set"
      | Cancel_trigger (o, t) ->
        let oid = oids.(o) in
        if Tw.cancel_trigger db oid t <> Model.cancel_trigger model.(owner oid) oid t
        then fail op "cancelled a different set"
      | Cancel_timer i ->
        let live = List.concat_map Tw.pending (Array.to_list members) in
        let pool = if i mod 4 = 0 || live = [] then !stale else live in
        if pool <> [] then begin
          let tm = List.nth pool (i mod List.length pool) in
          Tw.cancel_timer db tm;
          Model.cancel_timer model.(owner tm.Types.tm_oid) tm
        end
      | Replace (k, seed) ->
        let k = k mod partitions in
        let keep =
          List.filteri (fun j _ -> (j + seed) mod 4 <> 0) (Model.pending model.(k))
        in
        Tw.replace members.(k) keep;
        Model.replace model.(k) keep
      | Clear k ->
        let k = k mod partitions in
        Tw.clear members.(k);
        Model.clear model.(k)
      | Clock (k, hop) ->
        (* forward hops stay below the member's earliest due — the
           discipline a logged clock-only batch guarantees *)
        let k = k mod partitions in
        let m = members.(k) in
        let target = Int64.add m.Types.wheel.Types.clock_ms (Int64.of_int hop) in
        let target =
          match Model.pending model.(k) with
          | tm :: _ when hop > 0 -> min target (Int64.pred tm.Types.tm_due)
          | _ -> target
        in
        if target >= 0L then Tw.set_member_clock m target
      | Resync -> Tw.resync db
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
          Model.advance_to model ~owner ~target ~alive:(Tw.timer_alive db) ~reschedule
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
  QCheck.Test.make
    ~name:"wheel = sorted-list oracle after every entry point (partitions 1/2/4)"
    ~count:50 QCheck.small_int (fun seed ->
      let ops = gen_mops (Random.State.make [| seed; 0x5eed |]) in
      List.for_all (fun partitions -> run_model ops ~partitions) [ 1; 2; 4 ])

let prop_wal_recovery =
  QCheck.Test.make
    ~name:"WAL replay rebuilds the wheel byte-for-byte (partitions 1/2)"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0x33 |] in
      let ops = gen_ops rng in
      let _, _, img0 = run_one ops ~partitions:1 () in
      List.for_all
        (fun p ->
          let dir = fresh_dir () in
          let cfg =
            Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
          in
          let db, _, img = run_one ops ~durability:(`Wal cfg) ~partitions:p () in
          D.close_durability db;
          let rdb = mk_db ~durability:(`Wal (Wal.config dir)) ~partitions:p () in
          D.register_class rdb (schema ());
          D.recover rdb;
          let ok = String.equal (D.image_bytes rdb) img in
          D.close_durability rdb;
          ok && String.equal img img0)
        [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Deterministic pins                                                  *)
(* ------------------------------------------------------------------ *)

(* Equal deadlines deliver in activation order — the group-wide
   [tm_seq] stamp — at any partition count (oids scatter over members;
   the merge re-serializes them). *)
let test_equal_deadline_order () =
  let runs =
    List.map
      (fun partitions ->
        let db = mk_db ~partitions () in
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
        (oids, List.rev !fired))
      [ 1; 2; 4 ]
  in
  match runs with
  | (oids0, fired0) :: rest ->
    Alcotest.(check (list int)) "all six fire, in activation order" oids0 fired0;
    List.iter
      (fun (_, fired) ->
        Alcotest.(check (list int)) "same order on every run" fired0 fired)
      rest
  | [] -> assert false

(* Eager cancellation shows up in the stats: deactivating a trigger or
   deleting an object releases its pending timers' bytes immediately
   (the lazy sweep kept them until due). *)
let test_eager_cancel_stats () =
  let db = mk_db ~partitions:1 () in
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
  let db = mk_db ~durability:(`Wal cfg) ~partitions:1 () in
  D.register_class db (schema ());
  expect_ok
    (D.with_txn db (fun _ ->
         let oid = D.create db "probe" [] in
         D.activate db oid "tick" []));
  (* nothing due by 65, queue untouched: this logs a clock-only batch
     that crosses the level-0 rotation the timer was placed under *)
  D.advance_clock db 65L;
  D.close_durability db;
  let rdb = mk_db ~durability:(`Wal (Wal.config dir)) ~partitions:1 () in
  D.register_class rdb (schema ());
  D.recover rdb;
  let fired = ref 0 in
  let _s = D.subscribe_firings rdb (fun _ -> incr fired) in
  D.advance_clock rdb 10L;
  D.close_durability rdb;
  Alcotest.(check int) "the replayed timer still fires at 70" 1 !fired

(* The fleet scenario end to end, small: cadence deliveries, one-shot
   service alerts, eager cancellation via idle/retire — identical for
   one engine and a two-member partition group. *)
let test_fleet_small () =
  let run partitions =
    let fleet =
      Ode_scenarios.Fleet.setup ~db:(mk_db ~partitions ()) ~vehicles:30 ()
    in
    Ode_scenarios.Fleet.tick fleet 1_000L;
    let beats1 = Ode_scenarios.Fleet.total_beats fleet in
    Ode_scenarios.Fleet.idle fleet ~stride:3;
    Ode_scenarios.Fleet.retire fleet ~stride:7;
    Ode_scenarios.Fleet.tick fleet 40_000L;
    ( beats1,
      Ode_scenarios.Fleet.total_beats fleet,
      Ode_scenarios.Fleet.total_alerts fleet,
      D.image_bytes fleet.Ode_scenarios.Fleet.db )
  in
  let b1, b2, alerts, img1 = run 1 in
  let b1', b2', alerts', img2 = run 2 in
  (* 10 vehicles each at 50/250/1000 ms over 1000 ms *)
  Alcotest.(check int) "first-second heartbeats" ((20 * 10) + (4 * 10) + 10) b1;
  Alcotest.(check bool) "idle fleet keeps beating" true (b2 > b1);
  Alcotest.(check bool) "service checks came due" true (alerts > 0);
  Alcotest.(check int) "2 partitions: same first-second beats" b1 b1';
  Alcotest.(check int) "2 partitions: same final beats" b2 b2';
  Alcotest.(check int) "2 partitions: same alerts" alerts alerts';
  Alcotest.(check bool) "2 partitions: same image bytes" true (String.equal img1 img2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_scripts;
    QCheck_alcotest.to_alcotest prop_wal_recovery;
    Alcotest.test_case "equal deadlines keep activation order" `Quick
      test_equal_deadline_order;
    Alcotest.test_case "eager cancellation frees state bytes" `Quick
      test_eager_cancel_stats;
    Alcotest.test_case "clock-only WAL batch replay (regression)" `Quick
      test_clock_only_replay;
    Alcotest.test_case "fleet scenario, partitions 1 vs 2" `Quick test_fleet_small;
  ]
