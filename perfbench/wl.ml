(* The wire run: set up a workload's population on a fresh [odes serve],
   then drive its measured phase from at most two connections, and
   check the server's outputs against what the generated inputs
   predict. *)

open Common
module P = Ode_net.Protocol
module Json = Ode_net.Json
module Value = Ode_base.Value
module D = Ode_odb.Database

type phase = {
  attempted : int;
  failed : int;
  t_start : int;  (** ns: start of the measured phase, after warm-up *)
  reqs : (int * float * int) array;
      (** per measured request: completion time (ns), latency (us),
          operations it completed *)
  fires : (int * float) array;  (** per firing: arrival time (ns), latency (us) *)
  late_us : float array;  (** how late the generator sent each request *)
  posted : int;  (** events that went through the coalescer *)
  problems : string list;
}

(* Requests sent in the first second are not measured: the server's
   heap and the WAL reach their steady state first. *)
let warmup_ns = 1_000_000_000

type population = {
  meter_oids : int array;
  item_oids : int array;
  room_oids : int array;
  vehicle_oids : int array;
  plan : Gen.vehicle array;
}

let empty_pop =
  {
    meter_oids = [||];
    item_oids = [||];
    room_oids = [||];
    vehicle_oids = [||];
    plan = [||];
  }

(* The default WAL, with its 50 ms group-commit window. With wal:0 every
   reply waits for an fsync, and on a shared virtual disk the medians
   then follow the disk's fsync latency, which swings tenfold between
   quiet and busy periods. *)
let durability = "wal"
let schema_file = function
  | "ingest" -> "perfbench/odl/meter.odl"
  | "stockroom" -> "perfbench/odl/stockroom.odl"
  | _ -> "perfbench/odl/fleet.odl"

(* ------------------------------------------------------------------ *)
(* Set-up over the wire                                                *)
(* ------------------------------------------------------------------ *)

(* Creates inside one explicit transaction, pipelined: every create is
   sent before the first reply is read. *)
let create_txn c cls (args : Value.t list list) =
  ignore (Wire.rpc c P.Tbegin);
  let ids = List.map (fun a -> Wire.send c (P.Create (cls, a))) args in
  let oids =
    List.map
      (fun id ->
        match Wire.await c id with
        | P.R_ok j -> Wire.int_field "oid" j
        | P.R_error (code, msg) -> fail "create %s: [%s] %s" cls code msg)
      ids
  in
  ignore (Wire.rpc c P.Tcommit);
  oids

let create_chunked c cls ~chunk (args : Value.t list array) =
  let n = Array.length args in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    let oids = create_txn c cls (Array.to_list (Array.sub args !i (hi - !i))) in
    List.iteri (fun k oid -> out.(!i + k) <- oid) oids;
    i := hi
  done;
  out

let populate c workload ~seed =
  ignore (Wire.rpc c (P.Schema (read_file (schema_file workload))));
  match workload with
  | "ingest" ->
    let args = Array.make Gen.meters [] in
    { empty_pop with meter_oids = create_chunked c "meter" ~chunk:Gen.create_chunk args }
  | "stockroom" ->
    let item_oids = create_chunked c "item" ~chunk:Gen.create_chunk (Gen.item_args seed) in
    let room_oids = create_chunked c "stockRoom" ~chunk:Gen.create_chunk (Array.make Gen.rooms []) in
    { empty_pop with item_oids; room_oids }
  | _ ->
    let plan = Gen.fleet_plan ~seed in
    let oids = Array.make (Array.length plan) 0 in
    let clock = ref 0 in
    let advance_to t =
      if t > !clock then begin
        ignore (Wire.rpc c (P.Advance_clock (Int64.of_int (t - !clock))));
        clock := t
      end
    in
    (* staggered cohort: one transaction per arming instant *)
    List.iter
      (fun (t, lo, hi) ->
        advance_to t;
        let args = List.init (hi - lo) (fun k -> [ Value.Int plan.(lo + k).Gen.cadence ]) in
        List.iteri (fun k oid -> oids.(lo + k) <- oid) (create_txn c "vehicle" args))
      (Gen.stagger_groups plan);
    (* bulk cohort: chunked transactions, all at one instant *)
    advance_to Gen.stagger_span;
    let bulk_args =
      Array.init Gen.bulk (fun k -> [ Value.Int plan.(Gen.staggered + k).Gen.cadence ])
    in
    let bulk_oids = create_chunked c "vehicle" ~chunk:Gen.bulk_chunk bulk_args in
    Array.blit bulk_oids 0 oids Gen.staggered Gen.bulk;
    { empty_pop with vehicle_oids = oids; plan }

(* Launch a server and set the workload up on it; returns the set-up
   time, launch included. *)
let setup ~odes ~dir workload ~seed =
  let t0 = now_ns () in
  let srv = Wire.spawn ~odes ~durability ~dir in
  let c = Wire.connect srv.Wire.port in
  let pop = populate c workload ~seed in
  let dt = s_of_ns (now_ns () - t0) in
  Wire.close c;
  (srv, pop, dt)

(* ------------------------------------------------------------------ *)
(* ingest: closed loop, two connections of 100-event post_many          *)
(* ------------------------------------------------------------------ *)

(* [at_start] runs once, when the warm-up ends. *)
let measure_ingest port pop ~seed ~seconds ~at_start =
  let conns = Array.init 2 (fun _ -> Wire.connect port) in
  let gens =
    Array.init 2 (fun k -> Gen.ingest_stream ~seed ~conn:k ~oids:pop.meter_oids)
  in
  let inflight = Array.make 2 None in
  let reqs = ref [] and fire = ref [] and late = ref [] in
  let sent = ref 0 and posted = ref 0 and failed = ref 0 in
  (* batch serial -> (reported total, predicted sum, events) *)
  let batches = Hashtbl.create 4096 in
  let t0 = now_ns () + warmup_ns in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let send_next k =
    let p = gens.(k) () in
    let id = Wire.send conns.(k) (P.Post_many p.Gen.items) in
    sent := !sent + p.Gen.n_events;
    inflight.(k) <- Some (id, now_ns (), p)
  in
  send_next 0;
  send_next 1;
  let started = ref false in
  while Array.exists Option.is_some inflight do
    if (not !started) && now_ns () >= t0 then begin
      started := true;
      at_start ()
    end;
    let ready =
      Wire.readable
        (List.filteri (fun k _ -> inflight.(k) <> None) (Array.to_list conns))
        1.0
    in
    List.iter
      (fun c ->
        Wire.pump c;
        let k = if c == conns.(0) then 0 else 1 in
        let rec handle () =
          match Queue.take_opt c.Wire.inbox with
          | None -> ()
          | Some (P.Reply (id, r)) -> (
            match inflight.(k) with
            | Some (want, sent_ns, p) when want = id ->
              let now = now_ns () in
              inflight.(k) <- None;
              let rtt = us_of_ns (now - sent_ns) in
              let measured = sent_ns >= t0 in
              if measured then begin
                reqs := (now, rtt, p.Gen.n_events) :: !reqs;
                for _ = 1 to p.Gen.predicted do fire := (now, rtt) :: !fire done
              end;
              (match r with
              | P.R_ok j ->
                let serial = Wire.int_field "batch" j in
                let total = Wire.int_field "firings" j in
                let queued = Wire.int_field "queued" j in
                if queued <> p.Gen.n_events then failed := !failed + p.Gen.n_events
                else posted := !posted + p.Gen.n_events;
                let rep, pred, n =
                  Option.value (Hashtbl.find_opt batches serial) ~default:(total, 0, 0)
                in
                if rep <> total then failed := !failed + p.Gen.n_events;
                Hashtbl.replace batches serial (rep, pred + p.Gen.predicted, n + p.Gen.n_events)
              | P.R_error _ -> failed := !failed + p.Gen.n_events);
              if now < deadline then begin
                send_next k;
                if measured then late := us_of_ns (now_ns () - now) :: !late
              end;
              handle ()
            | _ -> fail "ingest: unexpected reply id %d" id)
          | Some _ -> handle ()
        in
        handle ())
      ready
  done;
  Array.iter Wire.close conns;
  (* each batch's reported firing total must equal the firings its
     events predict *)
  let problems = ref [] in
  Hashtbl.iter
    (fun serial (rep, pred, n) ->
      if rep <> pred then begin
        failed := !failed + n;
        problems := Printf.sprintf "batch %d: %d firings, predicted %d" serial rep pred :: !problems
      end)
    batches;
  {
    attempted = !sent;
    failed = !failed;
    t_start = t0;
    reqs = Array.of_list (List.rev !reqs);
    fires = Array.of_list (List.rev !fire);
    late_us = Array.of_list !late;
    posted = !posted;
    problems = !problems;
  }

(* ------------------------------------------------------------------ *)
(* stockroom: open-loop transactions plus a block-policy subscriber     *)
(* ------------------------------------------------------------------ *)

(* The output check: the committed transactions replayed in process on
   a fresh database with the same population must fire the same
   (trigger, oid) sequence, transaction by transaction, as the wire
   subscriber received ([per_txn], reversed, by transaction index;
   [committed] pairs each committed transaction with its index).
   Returns the number of transactions that differ and the first few
   differences. *)
let check_stockroom ~seed pop committed per_txn stray =
  let expect_ok = function Ok v -> v | Error `Aborted -> fail "replay transaction aborted" in
  let db = D.create_db ~config:D.Config.default () in
  ignore (Ode_odl.Odl.load_schema db (read_file (schema_file "stockroom")));
  let create_all cls (args : Value.t list array) =
    Array.map (fun a -> expect_ok (D.with_txn db (fun _ -> D.create db cls a))) args
  in
  let item_oids = create_all "item" (Gen.item_args seed) in
  let room_oids = create_all "stockRoom" (Array.make Gen.rooms []) in
  let problems = ref [] and bad = ref 0 in
  if item_oids <> pop.item_oids || room_oids <> pop.room_oids then begin
    incr bad;
    problems := [ "stockroom: the replay's oids differ from the server's" ]
  end;
  let cur = ref [] in
  ignore (D.subscribe_firings db (fun f -> cur := (f.D.f_trigger, f.D.f_oid) :: !cur));
  List.iter
    (fun (i, t) ->
      cur := [];
      expect_ok
        (D.with_txn db (fun _ ->
             List.iter
               (fun o ->
                 let oid, m, args = Gen.op_call ~room_oid:room_oids.(t.Gen.room) ~item_oids o in
                 ignore (D.call db oid m args))
               t.Gen.ops));
      let wire = Option.value (Hashtbl.find_opt per_txn i) ~default:[] in
      if wire <> !cur then begin
        incr bad;
        if List.length !problems < 5 then
          problems :=
            Printf.sprintf "stockroom txn %d: %d firings on the wire, %d in the replay" i
              (List.length wire) (List.length !cur)
            :: !problems
      end)
    committed;
  if stray <> [] then begin
    incr bad;
    problems :=
      Printf.sprintf "stockroom: %d firings of no benchmark transaction" (List.length stray)
      :: !problems
  end;
  (!bad, List.rev !problems)

(* The transaction in flight. Its requests — tbegin, the calls, tcommit
   — are sent back to back, as a client submitting a whole transaction
   would; the server answers them in order. *)
type in_flight = {
  f_index : int;
  f_due : int;
  f_txn : Gen.txn;
  mutable f_ids : int list;  (** requests still awaiting their replies *)
  mutable f_began : bool;
  mutable f_ok : bool;
}

let measure_stockroom port pop ~seed ~seconds ~at_start =
  let tx = Wire.connect port and sub = Wire.connect port in
  ignore (Wire.rpc sub (P.Subscribe P.Block));
  let next = Gen.stock_stream ~seed in
  let interval_ns = int_of_float (1e9 /. Gen.txn_rate) in
  let reqs = ref [] and late = ref [] in
  let committed = ref [] and failed = ref 0 and attempted = ref 0 in
  let due_of_txn = Hashtbl.create 4096 (* server txn id -> (index, due) *) in
  (* firings with their arrival times; a firing can arrive before its
     transaction's tbegin reply, so they are matched after the run *)
  let arrived = ref [] in
  let start = now_ns () + 1_000_000 in
  let t0 = start + warmup_ns in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let cur = ref None in
  let index = ref 0 in
  let take_firings () =
    let now = now_ns () in
    Queue.iter
      (function
        | P.Firing f -> arrived := (now, f) :: !arrived
        | P.Lagged _ | P.Reply _ -> incr failed)
      sub.Wire.inbox;
    Queue.clear sub.Wire.inbox
  in
  let on_reply f r =
    f.f_ids <- List.tl f.f_ids;
    (match r with
    | P.R_ok j ->
      if not f.f_began then begin
        f.f_began <- true;
        Hashtbl.replace due_of_txn (Wire.int_field "txn" j) (f.f_index, f.f_due)
      end
    | P.R_error (code, msg) ->
      prerr_endline (Printf.sprintf "stockroom txn %d: [%s] %s" f.f_index code msg);
      f.f_ok <- false);
    if f.f_ids = [] then begin
      if f.f_ok then begin
        let now = now_ns () in
        if f.f_due >= t0 then reqs := (now, us_of_ns (now - f.f_due), 1) :: !reqs;
        committed := (f.f_index, f.f_txn) :: !committed
      end
      else incr failed;
      cur := None;
      incr index
    end
  in
  let finished = ref false and started = ref false in
  while not !finished do
    let now = now_ns () in
    if (not !started) && now >= t0 then begin
      started := true;
      at_start ()
    end;
    let due = start + (!index * interval_ns) in
    (match !cur with
    | None when due >= deadline || now >= deadline -> finished := true
    | None when now >= due ->
      let t = next () in
      if due >= t0 then late := us_of_ns (now - due) :: !late;
      incr attempted;
      let calls =
        List.map
          (fun o ->
            let oid, m, args =
              Gen.op_call ~room_oid:pop.room_oids.(t.Gen.room) ~item_oids:pop.item_oids o
            in
            P.Call (oid, m, args))
          t.Gen.ops
      in
      let ids = List.map (Wire.send tx) ((P.Tbegin :: calls) @ [ P.Tcommit ]) in
      cur :=
        Some { f_index = !index; f_due = due; f_txn = t; f_ids = ids; f_began = false; f_ok = true }
    | _ -> ());
    if not !finished then begin
      let timeout =
        match !cur with None -> s_of_ns (due - now_ns ()) | Some _ -> 1.0
      in
      let ready = Wire.readable [ tx; sub ] timeout in
      if List.memq sub ready then begin
        Wire.pump sub;
        take_firings ()
      end;
      if List.memq tx ready then begin
        Wire.pump tx;
        let rec handle () =
          match (Queue.take_opt tx.Wire.inbox, !cur) with
          | None, _ -> ()
          | Some (P.Reply (id, r)), Some f when id = List.hd f.f_ids ->
            on_reply f r;
            handle ()
          | Some _, _ -> fail "stockroom: unexpected message on the transaction connection"
        in
        handle ()
      end
    end
  done;
  (* the firings of the last transactions may still be in flight *)
  let quiet = ref 0 in
  while !quiet < 3 do
    match Wire.readable [ sub ] 0.1 with
    | [] -> incr quiet
    | _ ->
      Wire.pump sub;
      take_firings ()
  done;
  Wire.close sub;
  Wire.close tx;
  let per_txn = Hashtbl.create 4096 and stray = ref [] and fire = ref [] in
  List.iter
    (fun (at, f) ->
      let key = (f.P.fg_trigger, f.P.fg_oid) in
      match Hashtbl.find_opt due_of_txn f.P.fg_txn with
      | Some (i, due) ->
        if due >= t0 then fire := (at, us_of_ns (at - due)) :: !fire;
        Hashtbl.replace per_txn i (key :: Option.value (Hashtbl.find_opt per_txn i) ~default:[])
      | None -> stray := key :: !stray)
    (List.rev !arrived);
  let bad, problems = check_stockroom ~seed pop (List.rev !committed) per_txn !stray in
  {
    attempted = !attempted;
    failed = !failed + bad;
    t_start = t0;
    reqs = Array.of_list (List.rev !reqs);
    fires = Array.of_list (List.rev !fire);
    late_us = Array.of_list !late;
    posted = 0;
    problems;
  }

(* ------------------------------------------------------------------ *)
(* fleet: the clock advanced step by step, a subscriber reads beats     *)
(* ------------------------------------------------------------------ *)

let measure_fleet port pop ~seconds ~at_start =
  let adv = Wire.connect port and sub = Wire.connect port in
  ignore (Wire.rpc sub (P.Subscribe P.Block));
  let steps = Gen.fleet_steps pop.plan in
  let step_end = Gen.step_end steps in
  let sent_at = Hashtbl.create 16384 in
  let reqs = ref [] and late = ref [] and fire = ref [] in
  let predicted = ref 0 and received = ref 0 and failed = ref 0 in
  let take_firings () =
    let now = now_ns () in
    Queue.iter
      (function
        | P.Firing f -> (
          match Hashtbl.find_opt sent_at (step_end (Int64.to_int f.P.fg_at)) with
          | Some sent ->
            incr received;
            fire := (now, us_of_ns (now - sent)) :: !fire
          | None -> incr failed)
        | P.Lagged _ | P.Reply _ -> incr failed)
      sub.Wire.inbox;
    Queue.clear sub.Wire.inbox
  in
  let clock = ref Gen.stagger_span in
  at_start ();
  let t0 = now_ns () in
  let last_reply = ref t0 in
  (* [seconds] of simulated time, rounded up to whole schedule periods
     and at least two: every run does the same work, with the same mix
     of bulk and staggered steps, however fast the box is *)
  let periods = max 2 (int_of_float (ceil (seconds *. 1000.0 /. float_of_int Gen.period))) in
  let advance target timers =
    let sent = now_ns () in
    late := us_of_ns (sent - !last_reply) :: !late;
    Hashtbl.replace sent_at target sent;
    let id = Wire.send adv (P.Advance_clock (Int64.of_int (target - !clock))) in
    let rec wait () =
      let ready = Wire.readable [ adv; sub ] 1.0 in
      if List.memq sub ready then begin
        Wire.pump sub;
        take_firings ()
      end;
      if List.memq adv ready then Wire.pump adv;
      match Queue.take_opt adv.Wire.inbox with
      | Some (P.Reply (i, P.R_ok j)) when i = id ->
        let now = now_ns () in
        last_reply := now;
        reqs := (now, us_of_ns (now - sent), timers) :: !reqs;
        if Wire.int_field "now" j <> target then incr failed
      | Some (P.Reply (i, P.R_error (code, msg))) when i = id ->
        fail "advance_clock failed: [%s] %s" code msg
      | Some _ -> fail "fleet: unexpected message on the clock connection"
      | None -> wait ()
    in
    wait ();
    clock := target;
    predicted := !predicted + timers
  in
  for p = 0 to periods - 1 do
    Array.iter
      (fun (ends, timers) -> advance (Gen.stagger_span + (p * Gen.period) + ends) timers)
      steps
  done;
  let quiet = ref 0 in
  while !received + !failed < !predicted && !quiet < 20 do
    match Wire.readable [ sub ] 0.1 with
    | [] -> incr quiet
    | _ ->
      Wire.pump sub;
      take_firings ()
  done;
  Wire.close sub;
  (* read every vehicle's beats back through read-only calls in one
     transaction, and compare with the cadences *)
  ignore (Wire.rpc adv P.Tbegin);
  let ids =
    Array.map (fun oid -> Wire.send adv (P.Call (oid, "count", []))) pop.vehicle_oids
  in
  let wrong = ref 0 in
  Array.iteri
    (fun k id ->
      let got =
        match Wire.await adv id with
        | P.R_ok j -> (
          match Json.member "result" j with Some (Json.Int n) -> n | _ -> -1)
        | P.R_error _ -> -1
      in
      let want = Gen.beats_at pop.plan.(k) !clock in
      if got <> want then wrong := !wrong + max 1 (abs (got - want)))
    ids;
  ignore (Wire.rpc adv P.Tcommit);
  Wire.close adv;
  let problems =
    (if !received <> !predicted then
       [ Printf.sprintf "fleet: %d beats received, %d predicted" !received !predicted ]
     else [])
    @ if !wrong > 0 then [ Printf.sprintf "fleet: %d beats differ on read-back" !wrong ] else []
  in
  {
    attempted = !predicted;
    failed = !failed + abs (!predicted - !received) + !wrong;
    t_start = t0;
    reqs = Array.of_list (List.rev !reqs);
    fires = Array.of_list (List.rev !fire);
    late_us = Array.of_list !late;
    posted = 0;
    problems;
  }
