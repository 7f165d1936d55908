(* The WAL durability backend: the crash-injection harness (randomized
   kill and corruption points over a logged workload, recovery compared
   byte-for-byte against shadow snapshots captured at every batch
   boundary), checkpoint rotation, the group-commit window, the
   ODE_DURABILITY selector, the snapshot-bytes = save-bytes property
   and the frame scanner's damage classification. *)

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

(* A probe run after recovery: does the revived database *behave*
   identically — firings, transaction ids, timer deliveries — not just
   carry equal bytes? *)
let probe pdb =
  let fired = ref [] in
  let _s =
    D.subscribe_firings pdb (fun f ->
        fired := (f.D.f_trigger, f.D.f_oid, f.D.f_txn) :: !fired)
  in
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
  D.advance_clock pdb 100L;
  (List.rev !fired, D.image_bytes pdb)

(* The load-bearing invariant of the whole layer: whatever point the
   log is killed or corrupted at, snapshot + replay reconstructs a
   state byte-identical to the shadow image captured when the last
   surviving batch was emitted — and the revived database behaves
   identically from there on. *)
let crash_harness ~points ~seed () =
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
  for _ = 1 to 40 do
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
  done

let test_crash_heap () = crash_harness ~points:250 ~seed:42 ()

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
  (* 3 commits x (commit batch + after-tcommit system batch) *)
  let obs = D.observe db in
  Alcotest.(check int) "batches framed" 6 (Obs.get obs Obs.Wal_batches);
  Alcotest.(check int) "nothing flushed inside the window" 0
    (Obs.get obs Obs.Wal_flushes);
  let before = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "log still empty on disk" 0 (List.length before.Wal.frames);
  Alcotest.(check bool) "no damage" true (before.Wal.damage = None);
  D.sync_durability db;
  Alcotest.(check int) "one group flush retired them all" 1
    (Obs.get obs Obs.Wal_flushes);
  let after = Wal.scan_file (Wal.wal_path dir 0) in
  Alcotest.(check int) "all batches on disk after sync" 6
    (List.length after.Wal.frames);
  D.close_durability db;
  (* closed: further commits must not log *)
  expect_ok
    (D.with_txn db (fun _ -> ignore (D.call db oid "deposit" [ Value.Int 1 ])));
  Alcotest.(check int) "closed backend emits nothing" 6
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

let suite =
  [
    Alcotest.test_case "refuses a partitioned log directory" `Quick
      test_refuses_partitioned_dir;
    Alcotest.test_case "crash harness, heap backend (250 points)" `Quick
      test_crash_heap;
    Alcotest.test_case "checkpoint rotation" `Quick test_checkpoint_rotation;
    Alcotest.test_case "group-commit window" `Quick test_group_commit_window;
    Alcotest.test_case "ODE_DURABILITY selector" `Quick test_env_selector;
    QCheck_alcotest.to_alcotest prop_snapshot_equals_save;
    Alcotest.test_case "scanner damage classification" `Quick
      test_scan_damage_classification;
  ]
