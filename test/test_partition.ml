(* Partition equivalence: an oid-sliced engine group must be observably
   identical to the single engine — same firings in the same order, same
   action log, same automaton states, same exact observability counters
   and byte-identical ODE1 images — at any partition count, under
   random schemas and random transaction scripts. The generators and
   runners are shared with test_shard.ml: the same workloads pin
   1 partition = 2 = 3 = 4, and the batch property also pins every count
   to the reference stepper, whose batch loop is independent of
   [post_many]'s.

   Directed tests cover what the properties cannot see from the facade:
   a cross-partition composite (a database-scope [sequence] whose
   participating objects live on different members, stepped via the
   packed-code forwarding path), [choose n] counting creations across
   members, the partition-transparent image (save at one count, load at
   another), the partitioned WAL (per-member logs + group manifest,
   recovery, mismatch refusal), the ODE_PARTITIONS selector and the
   config surface. *)

open Ode_odb
module D = Database
module TS = Test_shard
module Stepper = Ode_reference.Stepper
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "transaction unexpectedly aborted"

(* Directed tests pin the whole config (environment ignored) so they
   mean the same thing on every CI leg. *)
let cfg ?durability ~partitions () =
  let c = { D.Config.default with D.Config.partitions } in
  match durability with
  | None -> c
  | Some d -> { c with D.Config.durability = d }

let fresh_dir () =
  let d = Filename.temp_file "ode_part" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let partitions_transparent =
  QCheck.Test.make ~count:30
    ~name:"partitions 1 = 2 = 3 = 4 (firings, states, persist bytes)"
    (QCheck.make ~print:TS.print_case TS.gen_case)
    (fun case ->
      QCheck.assume (List.for_all TS.compiles case.TS.triggers);
      let p1 = TS.run ~partitions:1 case in
      List.for_all (fun partitions -> p1 = TS.run ~partitions case) [ 2; 3; 4 ])

let post_many_partitions_equal =
  QCheck.Test.make ~count:30
    ~name:"post_many: partitions 1 = 2 = 3 = 4 = stepper (exact counters, persist bytes)"
    (QCheck.make ~print:TS.print_batch_case TS.gen_batch_case)
    (fun case ->
      QCheck.assume (List.for_all TS.compiles case.TS.btriggers);
      let oracle = TS.run_batch ~stepper:Stepper.Index ~partitions:1 case in
      List.for_all
        (fun partitions -> oracle = TS.run_batch ~partitions case)
        [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Cross-partition composites                                          *)
(* ------------------------------------------------------------------ *)

(* A database-scope [sequence] whose two participating objects live on
   different members: the creation steps the facade-owned automaton
   from the creating member, the deletion from another. Run the same
   script at 1 and 4 partitions; firings, their order and the image
   bytes must agree — and at 4 partitions the two oids must really
   have distinct owners (or the test proves nothing). *)
let test_cross_partition_sequence () =
  let drive partitions =
    let fired = ref [] in
    let db = D.create_db ~config:(cfg ~partitions ()) () in
    D.register_class db (D.define_class "c");
    D.db_trigger_str db ~perpetual:true "seq"
      ~event:"after create ; before delete"
      ~action:(fun _ ctx -> fired := ("seq", ctx.D.fc_oid) :: !fired);
    D.activate_db_trigger db "seq" [];
    D.db_trigger_str db ~perpetual:true "third" ~event:"choose 3 (after create)"
      ~action:(fun _ ctx -> fired := ("third", ctx.D.fc_oid) :: !fired);
    D.activate_db_trigger db "third" [];
    let oids =
      expect_ok
        (D.with_txn db (fun _ -> List.init 4 (fun _ -> D.create db "c" [])))
    in
    (match partitions with
    | 1 -> ()
    | n ->
      (* owner = oid mod n, the Engine_group routing rule *)
      let o1 = List.nth oids 0 and o2 = List.nth oids 1 in
      Alcotest.(check bool)
        "participants live on different members" true
        (o1 mod n <> o2 mod n));
    expect_ok (D.with_txn db (fun _ -> D.delete db (List.nth oids 1)));
    expect_ok (D.with_txn db (fun _ -> ignore (D.create db "c" [])));
    (List.rev !fired, D.image_bytes db)
  in
  let fired1, img1 = drive 1 in
  let fired4, img4 = drive 4 in
  Alcotest.(check bool) "some cross-partition firing" true (fired1 <> []);
  Alcotest.(check bool) "same firings, same order" true (fired1 = fired4);
  Alcotest.(check bool) "byte-identical images" true (String.equal img1 img4)

(* ------------------------------------------------------------------ *)
(* Partition-transparent images                                        *)
(* ------------------------------------------------------------------ *)

(* Save mid-sequence at one partition count, load at another; the
   automaton picks up where it left off and the re-saved bytes are
   unchanged. *)
let test_cross_count_image () =
  let fired = ref 0 in
  let mk partitions =
    let db = D.create_db ~config:(cfg ~partitions ()) () in
    let b = D.define_class "c" in
    let b = D.method_ b ~kind:D.Read_only "f" (fun _ _ _ -> Value.Unit) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b "t" ~event:"after f ; after g" ~action:(fun _ _ ->
          incr fired)
    in
    D.register_class db b;
    db
  in
  let db = mk 3 in
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 5 (fun _ ->
               let oid = D.create db "c" [] in
               D.activate db oid "t" [];
               oid)))
  in
  expect_ok
    (D.with_txn db (fun _ ->
         List.iter (fun oid -> ignore (D.call db oid "f" [])) oids));
  let img = D.image_bytes db in
  let tmp = Filename.temp_file "ode_part" ".img" in
  D.save db tmp;
  List.iter
    (fun partitions ->
      let db2 = mk partitions in
      D.load db2 tmp;
      Alcotest.(check bool)
        (Printf.sprintf "reloaded image identical at %d partitions" partitions)
        true
        (String.equal img (D.image_bytes db2));
      let before = !fired in
      expect_ok
        (D.with_txn db2 (fun _ ->
             List.iter (fun oid -> ignore (D.call db2 oid "g" [])) oids));
      Alcotest.(check int)
        (Printf.sprintf "sequences complete after reload at %d" partitions)
        5 (!fired - before))
    [ 1; 2; 4 ];
  Sys.remove tmp

(* ------------------------------------------------------------------ *)
(* Partitioned WAL                                                     *)
(* ------------------------------------------------------------------ *)

let test_wal_group_recover () =
  let dir = fresh_dir () in
  let fired = ref 0 in
  let mk config =
    let db = D.create_db ~config () in
    let b = D.define_class "c" in
    let b = D.field b "n" (Value.Int 0) in
    let b = D.method_ b ~kind:D.Updating "g" (fun _ _ _ -> Value.Unit) in
    let b =
      D.trigger_str b ~perpetual:true "t" ~event:"after g ; after g"
        ~action:(fun _ _ -> incr fired)
    in
    D.register_class db b;
    db
  in
  let wal_config =
    cfg ~partitions:2
      ~durability:
        (`Wal (Wal.config ~flush_ms:0 ~sync_on_flush:false ~snapshot_every:0 dir))
      ()
  in
  let db = mk wal_config in
  let oids =
    expect_ok
      (D.with_txn db (fun _ ->
           List.init 4 (fun _ ->
               let oid = D.create db "c" [] in
               D.activate db oid "t" [];
               oid)))
  in
  (* work on both members, including an abort and a clock advance *)
  expect_ok
    (D.with_txn db (fun _ ->
         List.iter
           (fun oid ->
             D.set_field db oid "n" (Value.Int oid);
             ignore (D.call db oid "g" []))
           oids));
  let tx = D.begin_txn db in
  ignore (D.call db (List.hd oids) "g" []);
  D.abort db tx;
  D.advance_clock db 50L;
  let shadow = D.image_bytes db in
  D.close_durability db;
  (* both member logs exist under the manifest *)
  Alcotest.(check bool) "manifest records the count" true
    (Wal.read_manifest dir = Some 2);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d has a log" k)
        true
        (Sys.file_exists (Wal.member_dir dir k)))
    [ 0; 1 ];
  (* a fresh process: attach to the directory, recover, compare bytes *)
  let db2 = mk wal_config in
  D.recover db2;
  Alcotest.(check bool) "recovered bytes = shadow" true
    (String.equal (D.image_bytes db2) shadow);
  (* behaviorally alive across members: drive the recovered group and a
     single-engine oracle loaded from the shadow image through the same
     script; firings and bytes must agree *)
  let drive db =
    let before = !fired in
    expect_ok
      (D.with_txn db (fun _ ->
           List.iter
             (fun oid ->
               ignore (D.call db oid "g" []);
               ignore (D.call db oid "g" []))
             oids));
    (!fired - before, D.image_bytes db)
  in
  let recovered = drive db2 in
  D.close_durability db2;
  let oracle = mk (cfg ~partitions:1 ()) in
  let tmp = Filename.temp_file "ode_part" ".img" in
  let oc = open_out_bin tmp in
  output_string oc shadow;
  close_out oc;
  D.load oracle tmp;
  Sys.remove tmp;
  let expected = drive oracle in
  Alcotest.(check bool) "recovered group fires" true (fst recovered > 0);
  Alcotest.(check bool) "recovered group = single-engine oracle" true
    (recovered = expected);
  (* a mismatched partition count is refused at attach *)
  match
    D.create_db
      ~config:
        (cfg ~partitions:3 ~durability:(`Wal (Wal.config dir)) ())
      ()
  with
  | _ -> Alcotest.fail "expected the manifest mismatch to be refused"
  | exception D.Ode_error msg ->
    Alcotest.(check bool) "error names the counts" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Selector and config surface                                         *)
(* ------------------------------------------------------------------ *)

let test_env_selector () =
  let with_env v f =
    let old = Sys.getenv_opt "ODE_PARTITIONS" in
    Unix.putenv "ODE_PARTITIONS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "ODE_PARTITIONS" (Option.value ~default:"" old))
      f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "parsed" 3 (D.Config.of_env ()).D.Config.partitions);
  with_env "" (fun () ->
      Alcotest.(check int) "empty = default" 1
        (D.Config.of_env ()).D.Config.partitions);
  with_env "0" (fun () ->
      Alcotest.check_raises "zero rejected"
        (D.Ode_error "ODE_PARTITIONS: partition count must be >= 1 (got 0)")
        (fun () -> ignore (D.Config.of_env ())));
  with_env "zoo" (fun () ->
      Alcotest.check_raises "garbage rejected"
        (D.Ode_error "ODE_PARTITIONS: bad partition count \"zoo\"") (fun () ->
          ignore (D.Config.of_env ())))

let test_config_surface () =
  let db = D.create_db ~config:(cfg ~partitions:2 ()) () in
  Alcotest.(check int) "accessor" 2 (D.partitions db);
  let summary = D.config_summary db in
  let contains needle =
    let nl = String.length needle and hl = String.length summary in
    let rec go i = i + nl <= hl && (String.sub summary i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary mentions partitions" true
    (contains "partitions=2");
  let db1 = D.create_db ~config:(cfg ~partitions:1 ()) () in
  Alcotest.(check int) "single engine" 1 (D.partitions db1)

(* Empty post_many: a no-op at the engine layer too — still requires a
   transaction, posts nothing, fires nothing. *)
let test_empty_post_many () =
  let db = D.create_db ~config:(cfg ~partitions:2 ()) () in
  D.register_class db (D.define_class "c");
  (match D.post_many db [] with
  | _ -> Alcotest.fail "expected Ode_error outside a transaction"
  | exception D.Ode_error _ -> ());
  expect_ok
    (D.with_txn db (fun _ ->
         Alcotest.(check int) "no-op batch" 0 (D.post_many db [])))

let suite =
  [
    Alcotest.test_case "cross-partition sequence and choose-n" `Quick
      test_cross_partition_sequence;
    Alcotest.test_case "images are partition-transparent" `Quick
      test_cross_count_image;
    Alcotest.test_case "partitioned WAL recovers, refuses mismatch" `Quick
      test_wal_group_recover;
    Alcotest.test_case "ODE_PARTITIONS selector" `Quick test_env_selector;
    Alcotest.test_case "config surface" `Quick test_config_surface;
    Alcotest.test_case "empty post_many" `Quick test_empty_post_many;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ partitions_transparent; post_many_partitions_equal ]
