(* Write-ahead-log durability backend.

   Commit is the durability boundary: every database operation emits
   one {e batch} — a user commit or abort together with the system
   transaction running its after-tcommit/after-tabort reactions, and a
   clock advance together with every time-event delivery it makes. A
   batch is a logical redo record carrying the oid/txn counters, the
   clock, a full-object upsert or a delete for each object the
   operation touched (once, in its final state), and the timer changes
   since the previous batch. So a cut log never recovers a commit
   without its reactions, and an advance's batch is bounded by one
   image of the heap however many timers it delivers. Batches are
   CRC-framed and appended to the current log under a group-commit
   window; a periodic checkpoint writes a full ODE1 snapshot (the exact
   [Persist.save] bytes — one codec path) and truncates the log.
   Recovery is snapshot + replay of every complete, CRC-valid frame,
   stopping at the first damaged one.

   Why full-object upserts rather than fine-grained deltas derived from
   the undo log: the undo log does {e not} enumerate every mutation —
   full-history automaton advances, §9 collection in full-history mode
   and rearm bookkeeping are deliberately never undo-logged (they
   survive aborts by design). The touched-oid set is the reliable
   enumeration; serializing each touched object whole through
   [Persist.write_obj] captures all of it, keeps replay trivial, and
   makes the recovered state byte-identical to a shadow run by
   construction (pinned by test/test_wal.ml's crash-injection
   harness).

   On-disk layout, per database directory:

     snap-<g>.ode1   full image, the exact [Persist.save] bytes
     wal-<g>.log     "ODEW1" header, then frames
                     [len:4 LE][crc32:4 LE][payload]

   exactly one generation <g> pair is current. The checkpoint protocol
   writes snap-<g+1> atomically, then an empty wal-<g+1>, then removes
   the old pair — recovery picks the largest g with {e both} files
   present, so a crash between any two steps falls back to the complete
   older pair. Recovery always ends by checkpointing the recovered
   state into a fresh generation, so a damaged log tail is never
   appended to. *)

module Codec = Ode_base.Codec
module Registry = Ode_obs.Registry
module Trace = Ode_obs.Trace
open Types

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected)                                      *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8 (Kounavis–Berry): table k maps a byte to its CRC
   contribution k positions further from the end of an 8-byte step, so
   each step is eight independent lookups instead of eight dependent
   table steps. Table 0 is the classic bytewise table. The values are
   those of the bytewise loop kept in test/reference/ ([Crc_model]). *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 s =
  let t = crc_tables in
  let n = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 8 <= n do
    let j = !i in
    let x =
      !c
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (1792 + (x land 0xFF))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (x lsr 24))
      lxor Array.unsafe_get t (768 + byte (j + 4))
      lxor Array.unsafe_get t (512 + byte (j + 5))
      lxor Array.unsafe_get t (256 + byte (j + 6))
      lxor Array.unsafe_get t (byte (j + 7));
    i := j + 8
  done;
  for j = !i to n - 1 do
    c := Array.unsafe_get t ((!c lxor byte j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string;  (* the database's log directory; created on attach *)
  flush_ms : int;
      (* group-commit window: batches buffer in memory and reach disk
         when a batch arrives at least this many ms after the last
         flush. 0 = write + sync every batch. *)
  snapshot_every : int;
      (* checkpoint after this many batches — database operations — in
         the current generation (skipped while transactions are open);
         <= 0 = never, the log grows until [dur_save] or recovery
         checkpoints *)
  sync_on_flush : bool;
      (* fsync after each physical write (default). Tests that only
         need same-process file contents turn it off. *)
  on_batch : (db -> unit) option;
      (* test hook, called after each batch is framed (and, under
         [flush_ms = 0], flushed) — once per database operation, when
         the whole operation's state is in place: the crash harness
         captures its shadow snapshot here *)
}

let config ?(flush_ms = 50) ?(snapshot_every = 1000) ?(sync_on_flush = true)
    ?on_batch dir =
  { dir; flush_ms; snapshot_every; sync_on_flush; on_batch }

let header = "ODEW1"
let snap_path dir g = Filename.concat dir (Printf.sprintf "snap-%d.ode1" g)
let wal_path dir g = Filename.concat dir (Printf.sprintf "wal-%d.log" g)

let parse_gen ~prefix ~suffix name =
  if
    String.length name > String.length prefix + String.length suffix
    && String.sub name 0 (String.length prefix) = prefix
    && String.sub name
         (String.length name - String.length suffix)
         (String.length suffix)
       = suffix
  then
    int_of_string_opt
      (String.sub name (String.length prefix)
         (String.length name - String.length prefix - String.length suffix))
  else None

(* Largest generation with both its snapshot and its log present — the
   only pair the checkpoint protocol guarantees complete. *)
let latest_gen dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else begin
    let snaps = Hashtbl.create 8 and wals = Hashtbl.create 8 in
    Array.iter
      (fun name ->
        (match parse_gen ~prefix:"snap-" ~suffix:".ode1" name with
        | Some g -> Hashtbl.replace snaps g ()
        | None -> ());
        match parse_gen ~prefix:"wal-" ~suffix:".log" name with
        | Some g -> Hashtbl.replace wals g ()
        | None -> ())
      (Sys.readdir dir);
    Hashtbl.fold
      (fun g () best ->
        if Hashtbl.mem wals g then
          match best with Some b when b >= g -> best | _ -> Some g
        else best)
      snaps None
  end

(* ------------------------------------------------------------------ *)
(* Frames and batch payloads                                           *)
(* ------------------------------------------------------------------ *)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

type damage =
  | Bad_header
  | Truncated of { offset : int }  (* incomplete frame starts here *)
  | Bad_crc of { index : int; offset : int }

type scan_result = {
  frames : string list;  (* complete, CRC-valid payloads, log order *)
  damage : damage option;  (* why the scan stopped early, if it did *)
}

(* Walk the framing without decoding payloads. Recovery, the crash
   harness and [odec wal-dump] all share this so "how many batches
   survive" has exactly one definition. *)
let scan_bytes data =
  let n = String.length data in
  if n < String.length header || String.sub data 0 (String.length header) <> header
  then { frames = []; damage = Some Bad_header }
  else begin
    let u32 off =
      Int32.to_int (String.get_int32_le data off) land 0xFFFFFFFF
    in
    let rec go acc index off =
      if off = n then { frames = List.rev acc; damage = None }
      else if off + 8 > n then
        { frames = List.rev acc; damage = Some (Truncated { offset = off }) }
      else begin
        let len = u32 off and crc = u32 (off + 4) in
        if off + 8 + len > n then
          { frames = List.rev acc; damage = Some (Truncated { offset = off }) }
        else begin
          let payload = String.sub data (off + 8) len in
          if crc32 payload <> crc then
            { frames = List.rev acc; damage = Some (Bad_crc { index; offset = off }) }
          else go (payload :: acc) (index + 1) (off + 8 + len)
        end
      end
    in
    go [] 0 (String.length header)
  end

let scan_file path = scan_bytes (Codec.of_file path)

(* One redo batch: counters and clock always; a tagged upsert/delete
   per touched object (the operation's footprint: distinct oids in
   first-touch order); the timer changes since the last batch
   ([Timewheel.take_changes]) behind one raw tag byte — 0 none, 1 the
   full queue, 2 a delta: removed (seq, oid) pairs, then added timers.
   Tags 0 and 1 are the bytes [Codec.write_option] wrote when every
   record carried the whole queue, so those logs replay unchanged. *)
let serialize_batch db oids =
  let w = Codec.writer () in
  Codec.write_int w db.store.next_oid;
  Codec.write_int w db.txns.next_txn_id;
  Codec.write_int w (Int64.to_int db.wheel.clock_ms);
  Codec.write_int w (List.length oids);
  List.iter
    (fun oid ->
      match Store.find_obj db oid with
      | Some o when not o.o_deleted ->
        Codec.write_int w 0;
        Persist.write_obj w o
      | Some _ | None ->
        (* deleted (tombstoned) or already removed: redo as a removal —
           replay then matches a fresh [Persist.load], which also drops
           tombstones *)
        Codec.write_int w 1;
        Codec.write_int w oid)
    oids;
  (match Timewheel.take_changes db with
  | No_change -> Codec.write_byte w 0
  | Full ts ->
    Codec.write_byte w 1;
    Codec.write_list w Persist.write_timer ts
  | Delta { removed; added } ->
    Codec.write_byte w 2;
    Codec.write_list w
      (fun w (seq, oid) ->
        Codec.write_int w seq;
        Codec.write_int w oid)
      removed;
    Codec.write_list w Persist.write_timer added);
  Codec.contents w

let read_removed r =
  Codec.read_list r (fun r ->
      let seq = Codec.read_int r in
      (seq, Codec.read_int r))

let bad_timer_tag t =
  raise (Codec.Corrupt (Printf.sprintf "bad WAL timer tag %d" t))

let apply_batch db payload =
  let r = Codec.reader payload in
  db.store.next_oid <- Codec.read_int r;
  db.txns.next_txn_id <- Codec.read_int r;
  Timewheel.set_clock db (Int64.of_int (Codec.read_int r));
  let n = Codec.read_int r in
  for _ = 1 to n do
    match Codec.read_int r with
    | 0 ->
      let ((oid, _, _, _) as raw) = Persist.read_obj_raw r in
      if Store.mem db oid then Store.remove_obj db oid;
      Persist.install_obj db raw
    | 1 ->
      let oid = Codec.read_int r in
      if Store.mem db oid then Store.remove_obj db oid
    | t -> raise (Codec.Corrupt (Printf.sprintf "bad WAL entry tag %d" t))
  done;
  (* the clock was set above, so wheel placement is already right *)
  match Codec.read_byte r with
  | 0 -> ()
  | 1 ->
    let timers = Codec.read_list r Persist.read_timer in
    Timewheel.replace db timers;
    Persist.bump_seq_counter db timers
  | 2 ->
    let removed = read_removed r in
    let added = Codec.read_list r Persist.read_timer in
    Timewheel.apply_delta db ~removed ~added;
    Persist.bump_seq_counter db added
  | t -> bad_timer_tag t

(* Decoded shape for [odec wal-dump] — framing plus a per-batch summary,
   no schema needed. *)
type entry_summary =
  | Upsert of { oid : int; class_name : string; n_triggers : int }
  | Delete of int

type batch_summary = {
  s_next_oid : int;
  s_next_txn : int;
  s_clock_ms : int64;
  s_entries : entry_summary list;
  s_timers : timer_summary;
}

and timer_summary =
  | No_timers
  | Full of int  (* the whole queue: n timers *)
  | Delta of { added : int; removed : int }

let decode_summary payload =
  let r = Codec.reader payload in
  let s_next_oid = Codec.read_int r in
  let s_next_txn = Codec.read_int r in
  let s_clock_ms = Int64.of_int (Codec.read_int r) in
  let n = Codec.read_int r in
  let s_entries =
    List.init n (fun _ ->
        match Codec.read_int r with
        | 0 ->
          let oid, cname, _, triggers = Persist.read_obj_raw r in
          Upsert { oid; class_name = cname; n_triggers = List.length triggers }
        | 1 -> Delete (Codec.read_int r)
        | t -> raise (Codec.Corrupt (Printf.sprintf "bad WAL entry tag %d" t)))
  in
  let s_timers =
    match Codec.read_byte r with
    | 0 -> No_timers
    | 1 -> Full (List.length (Codec.read_list r Persist.read_timer))
    | 2 ->
      let removed = List.length (read_removed r) in
      let added = List.length (Codec.read_list r Persist.read_timer) in
      Delta { added; removed }
    | t -> bad_timer_tag t
  in
  { s_next_oid; s_next_txn; s_clock_ms; s_entries; s_timers }

(* ------------------------------------------------------------------ *)
(* The backend                                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A directory holding a [group-manifest] was written by the old
   partitioned engine: one log per oid slice under [p<k>/]. Refuse it —
   attaching would baseline an empty snapshot beside the slices and the
   data would silently vanish. *)
let refuse_partitioned dir =
  if Sys.file_exists (Filename.concat dir "group-manifest") then
    ode_error
      "WAL directory %s holds a partitioned log (group-manifest); \
       partitioned logs are no longer supported"
      dir

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let now_ms () = Unix.gettimeofday () *. 1000.

(* Per-instance mutable state lives in this record, closed over by the
   packed backend — each [create_db] gets its own. No file descriptor is
   held between flushes: a flush is open-append/write/[fsync]/close, so
   a test suite churning thousands of databases cannot exhaust fds. *)
type state = {
  cfg : config;
  mutable gen : int;
  mutable batches : int;  (* appended to the current generation's log *)
  pending : Buffer.t;  (* framed batches not yet on disk *)
  mutable pending_batches : int;
  mutable last_flush : float;  (* ms; start of the group-commit window *)
  mutable closed : bool;
}

let flush st db =
  if Buffer.length st.pending > 0 then begin
    let fd =
      Unix.openfile
        (wal_path st.cfg.dir st.gen)
        [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd (Buffer.contents st.pending);
        if st.cfg.sync_on_flush then Unix.fsync fd);
    let obs = db.obs in
    if Registry.enabled obs then begin
      Registry.incr obs Registry.Wal_flushes;
      Registry.span obs
        (Trace.Wal_flushed
           { batches = st.pending_batches; bytes = Buffer.length st.pending })
    end;
    Buffer.clear st.pending;
    st.pending_batches <- 0
  end;
  st.last_flush <- now_ms ()

(* Checkpoint: flush the log so generation [gen] is complete on disk,
   write the next generation's snapshot — the {e exact} [Persist.save]
   bytes — and empty log, then retire the old pair. *)
let checkpoint st db =
  flush st db;
  let g' = st.gen + 1 in
  Codec.to_file (snap_path st.cfg.dir g') (Persist.image_bytes db);
  (* the snapshot holds the timer queue: the changes logged so far are
     in it, so the next batch starts from an empty change log *)
  ignore (Timewheel.take_changes db);
  Codec.to_file (wal_path st.cfg.dir g') header;
  (try Sys.remove (snap_path st.cfg.dir st.gen) with Sys_error _ -> ());
  (try Sys.remove (wal_path st.cfg.dir st.gen) with Sys_error _ -> ());
  st.gen <- g';
  st.batches <- 0;
  if Registry.enabled db.obs then Registry.incr db.obs Registry.Wal_snapshots

let emit st db oids =
  if not st.closed then begin
    let payload = serialize_batch db oids in
    Buffer.add_string st.pending (frame payload);
    st.pending_batches <- st.pending_batches + 1;
    st.batches <- st.batches + 1;
    if Registry.enabled db.obs then Registry.incr db.obs Registry.Wal_batches;
    if st.cfg.flush_ms <= 0 || now_ms () -. st.last_flush >= float st.cfg.flush_ms
    then flush st db;
    if
      st.cfg.snapshot_every > 0
      && st.batches >= st.cfg.snapshot_every
      && db.txns.open_txns = []
    then checkpoint st db;
    match st.cfg.on_batch with Some f -> f db | None -> ()
  end

let attach st db =
  refuse_partitioned st.cfg.dir;
  mkdir_p st.cfg.dir;
  match latest_gen st.cfg.dir with
  | Some g ->
    (* existing state: do not touch it — the caller registers classes
       and runs [recover]; committing without recovering first is a
       caller error (batches would extend a log whose prefix was never
       replayed) *)
    st.gen <- g
  | None ->
    (* fresh directory: baseline at generation 0 so a crash before the
       first commit still recovers (to the empty database) *)
    Codec.to_file (snap_path st.cfg.dir 0) (Persist.image_bytes db);
    Codec.to_file (wal_path st.cfg.dir 0) header;
    st.gen <- 0;
    st.batches <- 0

let recover st db =
  if db.txns.open_txns <> [] then
    ode_error "cannot recover with open transactions";
  refuse_partitioned st.cfg.dir;
  match latest_gen st.cfg.dir with
  | None -> ode_error "no WAL state to recover in %s" st.cfg.dir
  | Some g ->
    let seq0 = db.wheel.tm_next_seq in
    Persist.load_image db (Codec.of_file (snap_path st.cfg.dir g));
    let { frames; damage } = scan_file (wal_path st.cfg.dir g) in
    List.iter (apply_batch db) frames;
    (* The timer insertion counter is not in the image, and replay
       bumped it past every timer a frame added, removed ones included.
       End where loading the recovered image (the checkpoint below)
       ends, so a database recovered once and one recovered twice stamp
       their next timers alike. *)
    db.wheel.tm_next_seq <- seq0;
    Persist.bump_seq_counter db (Timewheel.pending db);
    Buffer.clear st.pending;
    st.pending_batches <- 0;
    st.gen <- g;
    let obs = db.obs in
    if Registry.enabled obs then begin
      Registry.add obs Registry.Wal_replayed (List.length frames);
      Registry.span obs
        (Trace.Wal_recovered
           { gen = g; batches = List.length frames;
             damaged = damage <> None })
    end;
    (* re-baseline: the recovered state becomes the next generation's
       snapshot and any damaged log tail is retired with the old pair —
       nothing is ever appended after damage *)
    checkpoint st db

let backend cfg =
  let st =
    {
      cfg;
      gen = 0;
      batches = 0;
      pending = Buffer.create 256;
      pending_batches = 0;
      last_flush = now_ms ();
      closed = false;
    }
  in
  {
    dur_name = "wal:" ^ cfg.dir;
    dur_attach = (fun db -> attach st db);
    dur_redo = true;
    dur_commit = (fun db oids -> emit st db oids);
    dur_save =
      (fun db path ->
        (* the image written for the caller and the checkpoint snapshot
           are the same [Persist] writer — satellite invariant: a WAL
           database's [save] stays byte-identical to an image one's *)
        Persist.save db path;
        checkpoint st db);
    dur_load =
      (fun db path ->
        Persist.load db path;
        (* buffered batches describe the pre-load state: drop them and
           re-baseline the log on what was just loaded *)
        Buffer.clear st.pending;
        st.pending_batches <- 0;
        checkpoint st db);
    dur_recover = (fun db -> recover st db);
    dur_sync = (fun db -> flush st db);
    dur_close =
      (fun db ->
        if not st.closed then begin
          flush st db;
          st.closed <- true
        end);
  }
