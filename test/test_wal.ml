(* The WAL durability backend: the crash-injection harness (randomized
   kill and corruption points over a logged workload, recovery compared
   byte-for-byte against shadow snapshots captured at every batch
   boundary) over a mixed workload and over timer churn, the timer
   records (delta size, the change log's bound, replay of full-queue
   records from the older encoder, their summaries), checkpoint
   rotation, the group-commit window, the ODE_DURABILITY selector, the
   snapshot-bytes = save-bytes property, the frame scanner's damage
   classification, one batch per database operation (a commit with its
   reactions, an advance with its deliveries) and the frame CRC. *)

open Ode_odb

module D = Database

module Value = Ode_base.Value
module Codec = Ode_base.Codec
module Obs = Ode_obs.Registry

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

let fresh_dir () =
  let d = Filename.temp_file "ode_wal" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* The workload schema leans on every durable-state shape the log must
   carry: fields, a full-history trigger (advances survive aborts — the
   reason redo records are full-object upserts), a committed-mode
   trigger (undo interplay), and a periodic time event (timer queue +
   clock). *)
let schema () =
  D.define_class "item"
  |> (fun b -> D.field b "qty" (Value.Int 0))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "deposit" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.add (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> (fun b ->
       D.method_ b ~kind:D.Updating "withdraw" (fun db oid args ->
           match args with
           | [ q ] ->
             D.set_field db oid "qty" (Value.sub (D.get_field db oid "qty") q);
             Value.Unit
           | _ -> Value.Unit))
  |> (fun b ->
       D.trigger_str b ~perpetual:true "pair"
         ~event:"after deposit; after deposit"
         ~action:(fun _ _ -> ()))
  |> (fun b ->
       D.trigger_str b ~perpetual:true ~mode:Ode_event.Detector.Committed
         "cpair" ~event:"after withdraw; after withdraw"
         ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
    ~action:(fun _ _ -> ())

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* One workload transaction: a handful of random operations, then a
   commit or (1 in 5) an explicit abort. Clock advances — their own
   emission point — happen between transactions. Strictly sequential
   transactions, so the n-th shadow snapshot is exactly what replaying
   n frames must reconstruct. *)
let step rng db =
  if Random.State.int rng 4 = 0 then
    D.advance_clock db (Int64.of_int (20 + Random.State.int rng 100));
  let live = D.objects db in
  let tx = D.begin_txn db in
  (try
     for _ = 1 to 1 + Random.State.int rng 4 do
       match Random.State.int rng 10 with
       | 0 | 1 ->
         let oid = D.create db "item" [] in
         D.activate db oid
           (if Random.State.bool rng then "pair" else "cpair")
           [];
         if Random.State.int rng 3 = 0 then D.activate db oid "tick" []
       | 2 when live <> [] -> (
         let oid = pick rng live in
         if D.exists db oid then D.delete db oid)
       | 3 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then
           D.set_field db oid "qty" (Value.Int (Random.State.int rng 100))
       | 4 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then D.activate db oid "pair" []
       | 5 when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then D.deactivate db oid "cpair"
       | _ when live <> [] ->
         let oid = pick rng live in
         if D.exists db oid then
           ignore
             (D.call db oid
                (if Random.State.bool rng then "deposit" else "withdraw")
                [ Value.Int (1 + Random.State.int rng 9) ])
       | _ -> ()
     done;
     if Random.State.int rng 5 = 0 then D.abort db tx
     else
       match D.commit db tx with Ok () -> () | Error `Aborted -> ()
   with D.Lock_conflict _ -> D.abort db tx)

(* Every firing [f] causes, in order. *)
let firings_of pdb f =
  let fired = ref [] in
  let s =
    D.subscribe_firings pdb (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_txn) :: !fired)
  in
  f ();
  D.unsubscribe pdb s;
  List.rev !fired

(* A probe run after recovery: does the revived database *behave*
   identically — firings, transaction ids, timer deliveries — not just
   carry equal bytes? *)
let probe pdb =
  let fired =
    firings_of pdb (fun () ->
        (match
           D.with_txn pdb (fun _ ->
               let o = D.create pdb "item" [] in
               D.activate pdb o "pair" [];
               ignore (D.call pdb o "deposit" [ Value.Int 1 ]);
               ignore (D.call pdb o "deposit" [ Value.Int 2 ]);
               match D.objects pdb with
               | o0 :: _ -> ignore (D.call pdb o0 "deposit" [ Value.Int 3 ])
               | [] -> ())
         with
        | Ok () -> ()
        | Error `Aborted -> ());
        D.advance_clock pdb 100L)
  in
  (fired, D.image_bytes pdb)

(* The load-bearing invariant of the whole layer: whatever point the
   log is killed or corrupted at, snapshot + replay reconstructs a
   state byte-identical to the shadow image captured when the last
   surviving batch was emitted — and the revived database behaves
   identically from there on. *)
let crash_harness ~schema ~step ~steps ~probe ~points ~seed () =
  let dir = fresh_dir () in
  let shadows = ref [] in
  let cfg =
    (* every batch flushed eagerly and no checkpoints, so wal-0.log
       accumulates the workload's full frame sequence *)
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0
      ~on_batch:(fun tdb -> shadows := Persist.image_bytes tdb :: !shadows)
      dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  let base = D.image_bytes db in
  Alcotest.(check bool) "baseline snapshot = initial image" true
    (String.equal (Codec.of_file (Wal.snap_path dir 0)) base);
  let rng = Random.State.make [| seed |] in
  for _ = 1 to steps do
    step rng db
  done;
  D.close_durability db;
  let shadows = Array.of_list (List.rev !shadows) in
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let snap = Codec.of_file (Wal.snap_path dir 0) in
  let hdr = String.length Wal.header in
  Alcotest.(check bool) "workload produced a substantial log" true
    (Array.length shadows > 60 && String.length log > hdr);
  for point = 1 to points do
    (* kill: cut the log at a random offset; 1 in 10 points corrupt a
       random byte instead (torn sector rather than lost tail) *)
    let damaged =
      if Random.State.int rng 10 = 0 then begin
        let i = hdr + Random.State.int rng (String.length log - hdr) in
        let b = Bytes.of_string log in
        Bytes.set b i
          (Char.chr
             (Char.code (Bytes.get b i) lxor (1 + Random.State.int rng 255)));
        Bytes.to_string b
      end
      else
        String.sub log 0 (hdr + Random.State.int rng (String.length log - hdr + 1))
    in
    let n = List.length (Wal.scan_bytes damaged).Wal.frames in
    let dir2 = fresh_dir () in
    Codec.to_file (Wal.snap_path dir2 0) snap;
    Codec.to_file (Wal.wal_path dir2 0) damaged;
    let rdb = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
    D.register_class rdb (schema ());
    D.recover rdb;
    let expected = if n = 0 then base else shadows.(n - 1) in
    if not (String.equal (D.image_bytes rdb) expected) then
      Alcotest.failf "crash point %d: recovery after %d batches diverges" point
        n;
    (* recovery re-baselined: the damaged tail is gone for good *)
    let g = Option.get (Wal.latest_gen dir2) in
    if g < 1 then Alcotest.failf "crash point %d: no re-baseline" point;
    (* every 10th point, drive both databases forward and compare
       behaviour, not just bytes *)
    if point mod 10 = 0 then begin
      let sdb = D.create_db ~durability:`Image () in
      D.register_class sdb (schema ());
      let f = Filename.temp_file "ode_wal_shadow" ".img" in
      Codec.to_file f expected;
      D.load sdb f;
      Sys.remove f;
      let fired_r, img_r = probe rdb in
      let fired_s, img_s = probe sdb in
      if fired_r <> fired_s then
        Alcotest.failf "crash point %d: probe firings diverge" point;
      if not (String.equal img_r img_s) then
        Alcotest.failf "crash point %d: probe images diverge" point
    end
  done;
  (Wal.scan_bytes log).Wal.frames

let test_crash_heap () =
  ignore (crash_harness ~schema ~step ~steps:80 ~probe ~points:250 ~seed:42 ())

(* Checkpoints rotate the generation pair: the old snapshot + log are
   retired, and recovery from the rotated directory still reconstructs
   the exact final state. *)
let test_checkpoint_rotation () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:5 dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 15 do
    step rng db
  done;
  D.close_durability db;
  let g = Option.get (Wal.latest_gen dir) in
  Alcotest.(check bool) "checkpoints rotated the generation" true (g > 0);
  Alcotest.(check bool) "old pair retired" false
    (Sys.file_exists (Wal.snap_path dir 0) || Sys.file_exists (Wal.wal_path dir 0));
  let img = D.image_bytes db in
  let db2 = D.create_db ~durability:(`Wal (Wal.config dir)) () in
  D.register_class db2 (schema ());
  D.recover db2;
  Alcotest.(check bool) "recovery from a rotated directory" true
    (String.equal (D.image_bytes db2) img)

(* Under a wide-open group-commit window, batches buffer in memory and
   hit the disk only on an explicit sync — one physical write retiring
   many batches. *)
let test_group_commit_window () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:3_600_000 ~sync_on_flush:false ~snapshot_every:0 dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  D.set_observability db true;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.activate db oid "pair" [];
           oid))
  in
  for _ = 1 to 2 do
    expect_ok
      (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])))
  done;
  (* 3 commits, one batch each (the after-tcommit system transaction
     rides in its commit's batch) *)
  let obs = D.observe db in
  Alcotest.(check int) "batches framed" 3 (Obs.get obs Obs.Wal_batches);
  Alcotest.(check int) "nothing flushed inside the window" 0
    (Obs.get obs Obs.Wal_flushes);
  let before = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "log still empty on disk" 0 (List.length before.Wal.frames);
  Alcotest.(check bool) "no damage" true (before.Wal.damage = None);
  D.sync_durability db;
  Alcotest.(check int) "one group flush retired them all" 1
    (Obs.get obs Obs.Wal_flushes);
  let after = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "all batches on disk after sync" 3
    (List.length after.Wal.frames);
  D.close_durability db;
  (* closed: further commits must not log *)
  expect_ok
    (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check int) "closed backend emits nothing" 3
    (List.length (Wal.scan_file (Wal.wal_path dir 0)).Wal.frames)

(* ODE_DURABILITY selects the backend at create_db. *)
let test_env_selector () =
  let old = Sys.getenv_opt "ODE_DURABILITY" in
  let restore () =
    Unix.putenv "ODE_DURABILITY" (match old with Some s -> s | None -> "")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "ODE_DURABILITY" "wal:0";
      let db = D.create_db () in
      Alcotest.(check bool) "wal:<ms> selects the WAL" true
        (String.length (D.durability_name db) >= 4
        && String.sub (D.durability_name db) 0 4 = "wal:");
      D.close_durability db;
      Unix.putenv "ODE_DURABILITY" "image";
      Alcotest.(check string) "image selects the codec" "image"
        (D.durability_name (D.create_db ()));
      Unix.putenv "ODE_DURABILITY" "";
      Alcotest.(check string) "empty means image" "image"
        (D.durability_name (D.create_db ()));
      Unix.putenv "ODE_DURABILITY" "bogus";
      Alcotest.(check bool) "unknown backend rejected" true
        (match D.create_db () with
        | exception D.Ode_error _ -> true
        | _ -> false);
      Unix.putenv "ODE_DURABILITY" "wal:x";
      Alcotest.(check bool) "bad flush window rejected" true
        (match D.create_db () with
        | exception D.Ode_error _ -> true
        | _ -> false))

(* Satellite invariant: a WAL checkpoint snapshot and [save] of the
   same state are the same bytes — one codec path, property-tested over
   random workloads. *)
let prop_snapshot_equals_save =
  QCheck.Test.make ~name:"WAL snapshot bytes = save bytes" ~count:20
    QCheck.small_int (fun seed ->
      let dir = fresh_dir () in
      let cfg =
        Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
      in
      let db = D.create_db ~durability:(`Wal cfg) () in
      D.register_class db (schema ());
      let rng = Random.State.make [| seed; 77 |] in
      for _ = 1 to 8 do
        step rng db
      done;
      let f = Filename.temp_file "ode_wal_save" ".img" in
      D.save db f;
      let saved = Codec.of_file f in
      Sys.remove f;
      (* [save] checkpointed: the fresh generation's snapshot must be
         the very bytes just saved *)
      let g = Option.get (Wal.latest_gen dir) in
      let snap = Codec.of_file (Wal.snap_path dir g) in
      D.close_durability db;
      String.equal saved snap)

(* The frame scanner classifies every damage shape [odec wal-dump]
   reports. *)
let test_scan_damage_classification () =
  let dir = fresh_dir () in
  let cfg =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
  in
  let db = D.create_db ~durability:(`Wal cfg) () in
  D.register_class db (schema ());
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "item" [] in
           D.activate db oid "pair" [];
           oid))
  in
  (* a second commit: one batch per commit, and the damage cases below
     need a frame after the first *)
  expect_ok
    (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
  D.close_durability db;
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let intact = Wal.scan_bytes log in
  Alcotest.(check int) "intact: both batches" 2 (List.length intact.Wal.frames);
  Alcotest.(check bool) "intact: no damage" true (intact.Wal.damage = None);
  (* decode: the first batch upserted the created object *)
  (match Wal.decode_summary (List.hd intact.Wal.frames) with
  | { Wal.s_entries = [ Wal.Upsert { oid = o; class_name; n_triggers } ]; _ } ->
    Alcotest.(check int) "upserted oid" oid o;
    Alcotest.(check string) "class carried" "item" class_name;
    Alcotest.(check int) "activation carried" 1 n_triggers
  | _ -> Alcotest.fail "unexpected first-batch summary");
  (* lost tail: chop one byte off the end *)
  (match Wal.scan_bytes (String.sub log 0 (String.length log - 1)) with
  | { Wal.frames = [ _ ]; damage = Some (Wal.Truncated _) } -> ()
  | _ -> Alcotest.fail "expected a truncated tail");
  (* torn sector: flip the last byte *)
  let b = Bytes.of_string log in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0xFF));
  (match Wal.scan_bytes (Bytes.to_string b) with
  | { Wal.frames = [ _ ]; damage = Some (Wal.Bad_crc { index = 1; _ }) } -> ()
  | _ -> Alcotest.fail "expected a CRC failure on the second frame");
  match Wal.scan_bytes "BOGUS bytes" with
  | { Wal.damage = Some Wal.Bad_header; _ } -> ()
  | _ -> Alcotest.fail "expected a header failure"

(* A directory written by the old partitioned engine — a
   [group-manifest] at the root, one log per oid slice under [p<k>/] —
   must be refused, not attached: attaching would baseline an empty
   snapshot beside the slices and lose their data without an error.
   The refusal touches nothing. *)
let test_refuses_partitioned_dir () =
  let dir = fresh_dir () in
  Codec.to_file (Filename.concat dir "group-manifest") "ODEGROUP1 partitions=3\n";
  List.iter
    (fun k ->
      let p = Filename.concat dir (Printf.sprintf "p%d" k) in
      Unix.mkdir p 0o755;
      Codec.to_file (Wal.snap_path p 0) (Printf.sprintf "slice %d" k);
      Codec.to_file (Wal.wal_path p 0) Wal.header)
    [ 0; 1; 2 ];
  let rec listing d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n ->
           let p = Filename.concat d n in
           if Sys.is_directory p then (p, "<dir>") :: listing p
           else [ (p, Codec.of_file p) ])
  in
  let before = listing dir in
  let refused dir msg =
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the directory" true (contains dir);
    Alcotest.(check bool) "error says why" true (contains "no longer supported")
  in
  (match
     let db = D.create_db ~durability:(`Wal (Wal.config dir)) () in
     D.register_class db (schema ());
     D.recover db
   with
  | () -> Alcotest.fail "expected the partitioned directory to be refused"
  | exception D.Ode_error msg -> refused dir msg);
  Alcotest.(check (list (pair string string)))
    "directory untouched" before (listing dir);
  (* recover refuses too, should a manifest appear after attach *)
  let dir2 = fresh_dir () in
  let db = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
  D.register_class db (schema ());
  Codec.to_file (Filename.concat dir2 "group-manifest") "ODEGROUP1 partitions=2\n";
  match D.recover db with
  | () -> Alcotest.fail "expected recover to refuse the partitioned directory"
  | exception D.Ode_error msg -> refused dir2 msg

(* ------------------------------------------------------------------ *)
(* Timer records: full queues and deltas                               *)
(* ------------------------------------------------------------------ *)

let timer_kinds frames =
  List.map (fun f -> (Wal.decode_summary f).Wal.s_timers) frames

let is_full = function Wal.Full _ -> true | _ -> false
let is_delta = function Wal.Delta _ -> true | _ -> false

(* Two slow periodic time events: a few hundred pending timers deliver
   a handful per clock step. *)
let churn_schema () =
  D.define_class "beacon"
  |> (fun b ->
       D.trigger_str b ~perpetual:true "beat" ~event:"every time(MS=900)"
         ~action:(fun _ _ -> ()))
  |> fun b ->
  D.trigger_str b ~perpetual:true "pulse" ~event:"every time(MS=1300)"
    ~action:(fun _ _ -> ())

(* One churn transaction, after an occasional clock advance. A low
   population is refilled with 300 armed objects; 1 in 20 transactions
   deletes three quarters of it at once — more removals than the change
   log holds past the pending count, so that batch is a full-queue
   record; otherwise a few random activations (a re-activation cancels
   and re-arms), deactivations, deletes and creations. 1 in 4
   transactions abort, so undo cancels fresh arms and restores
   cancelled timers under their old seqs. *)
let churn_step rng db =
  if Random.State.int rng 3 = 0 then
    D.advance_clock db (Int64.of_int (20 + Random.State.int rng 180));
  let live = D.objects db in
  let trig () = if Random.State.int rng 4 = 0 then "pulse" else "beat" in
  let tx = D.begin_txn db in
  (try
     if List.length live < 150 then
       for _ = 1 to 300 do
         D.activate db (D.create db "beacon" []) (trig ()) []
       done
     else if Random.State.int rng 20 = 0 then
       List.iteri (fun i oid -> if i mod 4 <> 0 then D.delete db oid) live
     else
       for _ = 1 to 1 + Random.State.int rng 5 do
         let oid = pick rng live in
         if D.exists db oid then
           match Random.State.int rng 4 with
           | 0 -> D.activate db oid (trig ()) []
           | 1 -> D.deactivate db oid (trig ())
           | 2 -> D.delete db oid
           | _ -> D.activate db (D.create db "beacon" []) (trig ()) []
       done;
     if Random.State.int rng 4 = 0 then D.abort db tx
     else match D.commit db tx with Ok () | Error `Aborted -> ()
   with D.Lock_conflict _ -> D.abort db tx)

let churn_probe pdb =
  (firings_of pdb (fun () -> D.advance_clock pdb 2_000L), D.image_bytes pdb)

(* The crash harness over timer churn: recovery replays delta records
   (and the full-queue records of mass deletes) into the shadow image
   at every kill point. *)
let test_crash_timer_churn () =
  let frames =
    crash_harness ~schema:churn_schema ~step:churn_step ~steps:60
      ~probe:churn_probe ~points:120 ~seed:1515 ()
  in
  let kinds = timer_kinds frames in
  Alcotest.(check bool) "the log holds full-queue records" true
    (List.exists is_full kinds);
  Alcotest.(check bool) "the log holds delta records" true
    (List.exists is_delta kinds)

(* Recovery replays timer changes on top of the snapshot, then
   re-baselines: the replayed changes are in the new snapshot, so the
   next batch logs only what changed after it. A database recovered,
   driven further and recovered again ends where the first recovered
   one did. *)
let test_recover_twice () =
  let dir = fresh_dir () in
  let cfg () =
    Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir
  in
  let rng = Random.State.make [| 99 |] in
  let run db =
    for _ = 1 to 12 do
      churn_step rng db
    done;
    D.close_durability db
  in
  let db = D.create_db ~durability:(`Wal (cfg ())) () in
  D.register_class db (churn_schema ());
  run db;
  let revive () =
    let rdb = D.create_db ~durability:(`Wal (cfg ())) () in
    D.register_class rdb (churn_schema ());
    D.recover rdb;
    rdb
  in
  let rdb = revive () in
  Alcotest.(check bool) "first recovery" true
    (String.equal (D.image_bytes rdb) (D.image_bytes db));
  run rdb;
  let log = Wal.wal_path dir (Option.get (Wal.latest_gen dir)) in
  Alcotest.(check bool) "the first batch after recovery is not the queue" false
    (is_full (List.hd (timer_kinds (Wal.scan_file log).Wal.frames)));
  let r2 = revive () in
  Alcotest.(check bool) "second recovery" true
    (String.equal (D.image_bytes r2) (D.image_bytes rdb));
  D.close_durability r2

(* A timer delivery logs the same bytes whatever the queue's length:
   the batch carries the delivered timer's removal and its re-arm, not
   the queue. Both runs create the same objects and run the same
   transactions; one leaves 10 timers pending, the other 10,000. *)
let test_delivery_batch_size () =
  let schema () =
    D.define_class "c"
    |> (fun b ->
         D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
           ~action:(fun _ _ -> ()))
    |> fun b ->
    D.trigger_str b ~perpetual:true "slow" ~event:"every time(MS=100000)"
      ~action:(fun _ _ -> ())
  in
  let delivery_frames ~keep =
    let dir = fresh_dir () in
    let cfg =
      Wal.config ~flush_ms:3_600_000 ~sync_on_flush:false ~snapshot_every:0
        dir
    in
    let db = D.create_db ~durability:(`Wal cfg) () in
    D.register_class db (schema ());
    let others =
      expect_ok
        (D.with_txn db (fun _ ->
             D.activate db (D.create db "c" []) "tick" [];
             List.init 10_000 (fun _ ->
                 let oid = D.create db "c" [] in
                 D.activate db oid "slow" [];
                 oid)))
    in
    expect_ok
      (D.with_txn db (fun _ ->
           List.iteri
             (fun i oid -> if i >= keep then D.deactivate db oid "slow")
             others));
    let frames () = (Wal.scan_file (Wal.wal_path dir 0)).Wal.frames in
    D.sync_durability db;
    let before = List.length (frames ()) in
    D.advance_clock db 70L;
    D.close_durability db;
    Alcotest.(check int) "pending" (keep + 1) (D.stats db).D.n_timers;
    List.filteri (fun i _ -> i >= before) (frames ())
  in
  let small = delivery_frames ~keep:10
  and large = delivery_frames ~keep:10_000 in
  Alcotest.(check bool) "the delivery logged timer changes" true
    (List.exists is_delta (timer_kinds small));
  Alcotest.(check (list int)) "same batch lengths at 10 and 10,000 pending"
    (List.map String.length small) (List.map String.length large)

(* Backends that never drain the change log keep it bounded: it holds
   no more than the pending count plus the slack after 10,000
   arm/deliver cycles under image durability, and after a closed WAL
   backend (which stopped draining) sees its logged timers cancelled
   and the cycles run again. *)
let test_change_log_bound () =
  let check_bound what db =
    let w = db.Types.wheel in
    let logged =
      Hashtbl.length w.Types.tq_added + Hashtbl.length w.Types.tq_removed
    in
    let pending = Timewheel.pending_count db in
    if logged > pending + Timewheel.change_log_slack then
      Alcotest.failf "%s: change log holds %d entries at %d pending" what
        logged pending
  in
  let setup durability =
    let db = D.create_db ~durability () in
    D.register_class db
      (D.define_class "c" |> fun b ->
       D.trigger_str b ~perpetual:true "once" ~event:"after time(MS=10)"
         ~action:(fun _ _ -> ()));
    let oids =
      expect_ok
        (D.with_txn db (fun _ -> List.init 1_000 (fun _ -> D.create db "c" [])))
    in
    (db, oids)
  in
  let cycles db oids =
    let oids = Array.of_list oids in
    for i = 1 to 10_000 do
      expect_ok
        (D.with_txn db (fun _ -> D.activate db oids.(i mod 8) "once" []));
      if i mod 4 = 0 then D.advance_clock db 10L
    done
  in
  let db, oids = setup `Image in
  cycles db oids;
  check_bound "image" db;
  let dir = fresh_dir () in
  let db, oids =
    setup
      (`Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
  in
  let each f = expect_ok (D.with_txn db (fun _ -> List.iter f oids)) in
  each (fun o -> D.activate db o "once" []);
  D.close_durability db;
  each (fun o -> D.deactivate db o "once");
  check_bound "closed WAL" db;
  cycles db oids;
  check_bound "closed WAL, cycles" db

(* Captured from the encoder that wrote the whole queue into every
   record that changed it (a [Codec.write_option], so tag bytes 0 and
   1): schema [c] with [tick] every 70 ms; two objects armed in one
   transaction, [advance_clock 100], the first object deleted,
   [advance_clock 50]. [old_base] is the generation-0 snapshot,
   [old_final] the image that run ended with. *)
let old_schema () =
  D.define_class "c" |> fun b ->
  D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=70)"
    ~action:(fun _ _ -> ())

let old_base = "\bODE1\002\002\000\000\000"

let old_frames =
  [
    "\006\004\000\004\000\002\002c\000\002\btick\000\002\000\000\001\000\000\004\002c\000\002\btick\000\002\000\000\001\000\001\004\140\001\000\002\btick\000\002\140\001\000\140\001\002\004\btick\000\002\140\001\000";
    "\006\006\000\004\000\002\002c\000\002\btick\000\002\000\000\001\000\000\004\002c\000\002\btick\000\002\000\000\001\000\000";
    "\006\b\140\001\002\000\002\002c\000\002\btick\000\002\002\000\001\000\001\002\140\001\002\004\btick\000\002\140\001\000";
    "\006\n\140\001\002\000\004\002c\000\002\btick\000\002\002\000\001\000\001\002\152\002\004\002\btick\000\002\140\001\000";
    "\006\n\200\001\000\001\004\152\002\004\002\btick\000\002\140\001\000\152\002\006\004\btick\000\002\140\001\000";
    "\006\012\200\001\002\002\002\001\002\152\002\006\004\btick\000\002\140\001\000";
    "\006\014\200\001\002\002\002\000";
    "\006\016\152\002\002\000\004\002c\000\002\btick\000\002\002\000\001\000\001\000";
    "\006\016\172\002\000\001\002\164\003\b\004\btick\000\002\140\001\000";
  ]

let old_final =
  "\bODE1\006\016\172\002\002\004\002c\000\002\btick\000\002\002\000\001\000\002\164\003\b\004\btick\000\002\140\001\000"

let frame payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 4 (Int32.of_int (Wal.crc32 payload));
  Bytes.to_string b ^ payload

let test_old_records_replay () =
  let db = D.create_db () in
  D.register_class db (old_schema ());
  Alcotest.(check bool) "fresh database = the old baseline" true
    (String.equal (D.image_bytes db) old_base);
  List.iter (Wal.apply_batch db) old_frames;
  Alcotest.(check bool) "apply_batch replays into the old final image" true
    (String.equal (D.image_bytes db) old_final);
  (* and a whole old log directory recovers *)
  let dir = fresh_dir () in
  Codec.to_file (Wal.snap_path dir 0) old_base;
  Codec.to_file (Wal.wal_path dir 0)
    (String.concat "" (Wal.header :: List.map frame old_frames));
  let rdb = D.create_db ~durability:(`Wal (Wal.config dir)) () in
  D.register_class rdb (old_schema ());
  D.recover rdb;
  Alcotest.(check bool) "an old log recovers" true
    (String.equal (D.image_bytes rdb) old_final);
  D.close_durability rdb;
  (* a timer tag byte past 2 is corruption: the clock-only record ends
     in its tag *)
  let clock_only = List.nth old_frames 6 in
  let n = String.length clock_only in
  List.iter
    (fun t ->
      let bad = String.sub clock_only 0 (n - 1) ^ String.make 1 (Char.chr t) in
      let fresh = D.create_db () in
      D.register_class fresh (old_schema ());
      Alcotest.(check bool)
        (Printf.sprintf "tag %d rejected by apply_batch" t)
        true
        (match Wal.apply_batch fresh bad with
        | () -> false
        | exception Codec.Corrupt _ -> true);
      Alcotest.(check bool)
        (Printf.sprintf "tag %d rejected by decode_summary" t)
        true
        (match Wal.decode_summary bad with
        | _ -> false
        | exception Codec.Corrupt _ -> true))
    [ 3; 4; 255 ]

(* [odec wal-dump]'s summary tells the three timer record kinds apart. *)
let test_summary_timer_kinds () =
  Alcotest.(check bool) "old full-queue record" true
    ((Wal.decode_summary (List.hd old_frames)).Wal.s_timers = Wal.Full 2);
  Alcotest.(check bool) "old record without timers" true
    ((Wal.decode_summary (List.nth old_frames 6)).Wal.s_timers = Wal.No_timers);
  let dir = fresh_dir () in
  let db =
    D.create_db
      ~durability:
        (`Wal
          (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
      ()
  in
  D.register_class db (old_schema ());
  expect_ok
    (D.with_txn db (fun _ ->
         List.iter
           (fun _ -> D.activate db (D.create db "c" []) "tick" [])
           [ 1; 2; 3 ]));
  expect_ok
    (D.with_txn db (fun _ -> D.delete db (List.hd (D.objects db))));
  D.close_durability db;
  let kinds = timer_kinds (Wal.scan_file (Wal.wal_path dir 0)).Wal.frames in
  Alcotest.(check bool) "three arms in one delta" true
    (List.mem (Wal.Delta { added = 3; removed = 0 }) kinds);
  Alcotest.(check bool) "one removal in the next" true
    (List.mem (Wal.Delta { added = 0; removed = 1 }) kinds)

(* ------------------------------------------------------------------ *)
(* One batch per database operation                                    *)
(* ------------------------------------------------------------------ *)

(* A commit and its after-tcommit reactions are one unit of the log:
   the [noted] action counts commits in the system transaction that
   follows each one, so every state recovery can reach — whatever byte
   the log is cut at — has as many notes as deposits. *)
let test_commit_reactions_atomic () =
  let schema () =
    D.define_class "acct"
    |> (fun b -> D.field b "deposits" (Value.Int 0))
    |> (fun b -> D.field b "notes" (Value.Int 0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "deposit" (fun db oid _ ->
             D.set_field db oid "deposits"
               (Value.add (D.get_field db oid "deposits") (Value.Int 1));
             Value.Unit))
    |> fun b ->
    D.trigger_str b ~perpetual:true "noted" ~event:"after tcommit"
      ~action:(fun db ctx ->
        let oid = ctx.D.fc_oid in
        D.set_field db oid "notes"
          (Value.add (D.get_field db oid "notes") (Value.Int 1)))
  in
  let dir = fresh_dir () in
  let db =
    D.create_db
      ~durability:
        (`Wal
          (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
      ()
  in
  D.register_class db (schema ());
  let accounts =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 2 (fun _ ->
               let oid = D.create db "acct" [] in
               D.activate db oid "noted" [];
               ignore (D.call db oid "deposit" []);
               oid)))
  in
  List.iteri
    (fun i oid ->
      expect_ok
        (D.with_txn db (fun _ ->
             ignore (D.call db oid "deposit" [])));
      if i = 0 then
        expect_ok
          (D.with_txn db (fun _ ->
               List.iter (fun o -> ignore (D.call db o "deposit" [])) accounts)))
    (accounts @ accounts);
  D.close_durability db;
  let int_field rdb oid f =
    match D.get_field rdb oid f with
    | Value.Int n -> n
    | _ -> Alcotest.fail "non-integer counter"
  in
  let log = Codec.of_file (Wal.wal_path dir 0) in
  let snap = Codec.of_file (Wal.snap_path dir 0) in
  let hdr = String.length Wal.header in
  let full = ref 0 in
  for cut = hdr to String.length log do
    let dir2 = fresh_dir () in
    Codec.to_file (Wal.snap_path dir2 0) snap;
    Codec.to_file (Wal.wal_path dir2 0) (String.sub log 0 cut);
    let rdb = D.create_db ~durability:(`Wal (Wal.config dir2)) () in
    D.register_class rdb (schema ());
    D.recover rdb;
    List.iter
      (fun oid ->
        if D.exists rdb oid then begin
          let d = int_field rdb oid "deposits"
          and n = int_field rdb oid "notes" in
          if d <> n then
            Alcotest.failf "cut at byte %d: %d deposits but %d notes" cut d n;
          if cut = String.length log then full := !full + d
        end)
      accounts;
    D.close_durability rdb
  done;
  Alcotest.(check int) "the whole log recovers every deposit" 8 !full

(* A commit with its after-tcommit reaction, an abort with its
   after-tabort reaction, and an advance that delivers k timers are one
   operation each: one batch, each touched object upserted once. *)
let test_one_batch_per_operation () =
  let k = 5 in
  let dir = fresh_dir () in
  let db =
    D.create_db
      ~durability:
        (`Wal
          (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
      ()
  in
  let count field db ctx =
    let oid = ctx.D.fc_oid in
    D.set_field db oid field (Value.add (D.get_field db oid field) (Value.Int 1))
  in
  D.register_class db
    (D.define_class "c"
    |> (fun b -> D.field b "commits" (Value.Int 0))
    |> (fun b -> D.field b "aborts" (Value.Int 0))
    |> (fun b ->
         D.method_ b ~kind:D.Updating "touch" (fun _ _ _ -> Value.Unit))
    |> (fun b ->
         D.trigger_str b ~perpetual:true "committed" ~event:"after tcommit"
           ~action:(count "commits"))
    |> (fun b ->
         D.trigger_str b ~perpetual:true "aborted" ~event:"after tabort"
           ~action:(count "aborts"))
    |> fun b ->
    D.trigger_str b ~perpetual:true "tick" ~event:"every time(MS=100)"
      ~action:(fun _ _ -> ()));
  D.set_observability db true;
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init k (fun _ ->
               let oid = D.create db "c" [] in
               List.iter
                 (fun t -> D.activate db oid t [])
                 [ "committed"; "aborted"; "tick" ];
               oid)))
  in
  let obs = D.observe db in
  let last_batch what f =
    let batches = Obs.get obs Obs.Wal_batches in
    f ();
    Alcotest.(check int) (what ^ ": one batch") 1
      (Obs.get obs Obs.Wal_batches - batches);
    let frames = (Wal.scan_file (Wal.wal_path dir 0)).Wal.frames in
    Wal.decode_summary (List.nth frames (List.length frames - 1))
  in
  let upserts s =
    List.filter_map
      (function Wal.Upsert { oid; _ } -> Some oid | Wal.Delete _ -> None)
      s.Wal.s_entries
  in
  let touch_all () = List.iter (fun o -> ignore (D.call db o "touch" [])) oids in
  let s =
    last_batch "commit" (fun () ->
        expect_ok (D.with_txn db (fun _ -> touch_all ())))
  in
  Alcotest.(check (list int)) "commit: each object once" oids (upserts s);
  let s =
    last_batch "abort" (fun () ->
        let tx = D.begin_txn db in
        touch_all ();
        D.abort db tx)
  in
  Alcotest.(check (list int)) "abort: each object once" oids (upserts s);
  let deliveries = Obs.get obs Obs.Timer_deliveries in
  let s = last_batch "advance" (fun () -> D.advance_clock db 100L) in
  Alcotest.(check int) "k deliveries" k
    (Obs.get obs Obs.Timer_deliveries - deliveries);
  Alcotest.(check (list int)) "advance: each object once" oids (upserts s);
  Alcotest.(check bool) "k timers delivered and re-armed" true
    (s.Wal.s_timers = Wal.Delta { added = k; removed = k });
  List.iter
    (fun o ->
      Alcotest.(check bool) "reactions ran" true
        (D.get_field db o "commits" = Value.Int 2
        && D.get_field db o "aborts" = Value.Int 1))
    oids;
  D.close_durability db

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_check_value () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Wal.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Wal.crc32 "")

let prop_crc_matches_bytewise =
  QCheck.Test.make ~name:"sliced CRC-32 = bytewise CRC-32" ~count:500
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s -> Wal.crc32 s = Ode_reference.Crc_model.crc32 s)

let suite =
  [
    Alcotest.test_case "refuses a partitioned log directory" `Quick
      test_refuses_partitioned_dir;
    Alcotest.test_case "crash harness, heap backend (250 points)" `Quick
      test_crash_heap;
    Alcotest.test_case "crash harness, timer churn (120 points)" `Quick
      test_crash_timer_churn;
    Alcotest.test_case "recover, drive, recover again" `Quick
      test_recover_twice;
    Alcotest.test_case "delivery batch size ignores queue length" `Quick
      test_delivery_batch_size;
    Alcotest.test_case "change log stays bounded without drains" `Quick
      test_change_log_bound;
    Alcotest.test_case "full-queue records of the old encoder replay" `Quick
      test_old_records_replay;
    Alcotest.test_case "summary tells timer record kinds apart" `Quick
      test_summary_timer_kinds;
    Alcotest.test_case "checkpoint rotation" `Quick test_checkpoint_rotation;
    Alcotest.test_case "group-commit window" `Quick test_group_commit_window;
    Alcotest.test_case "ODE_DURABILITY selector" `Quick test_env_selector;
    QCheck_alcotest.to_alcotest prop_snapshot_equals_save;
    Alcotest.test_case "scanner damage classification" `Quick
      test_scan_damage_classification;
    Alcotest.test_case "commit and reactions: one batch" `Quick
      test_commit_reactions_atomic;
    Alcotest.test_case "one batch per operation" `Quick
      test_one_batch_per_operation;
    Alcotest.test_case "CRC-32 check value" `Quick test_crc_check_value;
    QCheck_alcotest.to_alcotest prop_crc_matches_bytewise;
  ]
