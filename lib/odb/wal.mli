(** Write-ahead-log durability backend: logical redo batches — one per
    database operation (a commit or abort with its transaction-event
    reactions, a clock advance with its deliveries) — appended under a
    group-commit window, CRC-framed, with periodic ODE1 snapshots + log
    truncation; recovery is snapshot + replay.

    Sits beside {!Persist} in the layer stack (depends on {!Persist},
    {!Store}, {!Schema} state via replay, and {!Ode_obs}; never on
    {!Engine} — replay moves state, it posts no events). The layers
    below reach it only through the [durability_backend] closures
    installed by [Database.create_db].

    On-disk layout per database directory — one current generation [g]:

    - [snap-<g>.ode1] — a full image, the {e exact} [Persist.save]
      bytes (one codec path, property-tested in [test/test_wal.ml]);
    - [wal-<g>.log] — the ["ODEW1"] header, then frames
      [[len:4 LE][crc32:4 LE][payload]], one frame per batch.

    The checkpoint protocol writes [snap-<g+1>] atomically, then an
    empty [wal-<g+1>], then removes the old pair; recovery picks the
    largest generation with {e both} files present and ends by
    checkpointing the recovered state into a fresh generation, so a
    damaged log tail is never appended to. *)

open Types

type config = {
  dir : string;  (** the database's log directory; created on attach *)
  flush_ms : int;
      (** group-commit window in ms: batches buffer in memory until a
          batch arrives at least this long after the last flush. [0] =
          write + sync every batch. *)
  snapshot_every : int;
      (** checkpoint after this many batches — one per database
          operation (skipped while transactions are open); [<= 0] =
          only on [save]/[load]/recovery *)
  sync_on_flush : bool;  (** [fsync] after each physical write *)
  on_batch : (db -> unit) option;
      (** test hook, called after each batch is framed (and, under
          [flush_ms = 0], flushed), once per database operation with the
          whole operation's state in place — the crash harness captures
          shadow snapshots here *)
}

val config :
  ?flush_ms:int ->
  ?snapshot_every:int ->
  ?sync_on_flush:bool ->
  ?on_batch:(db -> unit) ->
  string ->
  config
(** [config dir] with defaults [flush_ms = 50], [snapshot_every =
    1000], [sync_on_flush = true]. *)

val backend : config -> durability_backend
(** Pack a fresh WAL instance (own buffer, generation counter and
    group-commit window; no file descriptor held between flushes).
    [dur_attach] baselines an empty directory at generation 0, or — when
    the directory already holds WAL state — arms on the latest
    generation and defers to an explicit [dur_recover] (register the
    classes first). [dur_save] writes the caller's image {e and}
    checkpoints; [dur_load] re-baselines the log on the loaded state.
    [dur_attach] and [dur_recover] raise {!Types.Ode_error}, touching
    nothing, on a directory holding a [group-manifest]: the layout of
    the old partitioned engine, which is no longer supported. *)

(** {1 Introspection — recovery, the crash harness, [odec wal-dump]} *)

val header : string
(** The log-file header, ["ODEW1"]. *)

val snap_path : string -> int -> string
val wal_path : string -> int -> string

val latest_gen : string -> int option
(** Largest generation in a directory with both its snapshot and its
    log present; [None] for a missing/empty directory. *)

type damage =
  | Bad_header
  | Truncated of { offset : int }
      (** an incomplete frame starts at [offset] *)
  | Bad_crc of { index : int; offset : int }

type scan_result = {
  frames : string list;  (** complete, CRC-valid payloads, log order *)
  damage : damage option;  (** why the scan stopped early, if it did *)
}

val scan_bytes : string -> scan_result
val scan_file : string -> scan_result
(** Walk the framing without decoding payloads — the single definition
    of "how many batches survive" shared by recovery, the harness and
    [wal-dump]. *)

val apply_batch : db -> string -> unit
(** Replay one scanned payload: set the counters and clock, upsert or
    remove each carried object, then apply the timer changes.

    A payload is the counters and clock (varints), the object entries,
    then one raw timer tag byte: [0] no timer change; [1] the full
    queue follows (a timer list, which replaces the queue); [2] a delta
    follows — a list of removed [(tm_seq, tm_oid)] varint pairs, then a
    list of added timers. Tags [0] and [1] are byte-identical to the
    option the format wrote when every record carried the whole queue,
    so older logs replay unchanged. The insertion counter is bumped
    past every replayed timer. Raises [Codec.Corrupt] on a malformed
    payload, a timer tag of [3] or more included (a CRC-valid frame
    written by this module always decodes). *)

val crc32 : string -> int
(** IEEE 802.3 CRC-32 (reflected), computed slicing-by-8; equal to the
    bytewise table loop ([crc32 "123456789" = 0xCBF43926]). *)

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
  | Full of int  (** the whole queue: n timers *)
  | Delta of { added : int; removed : int }

val decode_summary : string -> batch_summary
(** Schema-free decode of one payload for pretty-printing. Raises
    [Codec.Corrupt] on malformed bytes. *)
