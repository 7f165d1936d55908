(** The observability registry of one database instance: counters over
    the post → classify → advance → fire → commit pipeline, nanosecond
    latency histograms for its entry points, and the structured
    {!Trace} ring.

    A registry is created {e disabled}. Every instrumentation point in
    the database layers is guarded by an inlinable [enabled] check, so a
    disabled registry costs one boolean load per probe and nothing else
    (measured: EXPERIMENTS.md, E10-obs-overhead). Enable with
    {!set_enabled} on the registry returned by [Database.observe].

    {b Thread safety.} The engine posts on one thread at a time, so
    every probe of a database runs on the thread driving it. A second
    thread reaches the registry only to read it: a host calling
    [Database.observe] while [Ode_net.Server] drives the database from
    its own thread. Threads switch at allocation points, so the counters
    stay atomic and the kind table and trace ring stay mutex-guarded: a
    reader never sees a table mid-resize. Trace sinks run while the
    registry mutex is held: keep them quick and never re-enter the
    registry from one. Histograms ({!record_ns}) are {e not}
    synchronised; only the posting thread records into them. *)

(** What is counted where (emitting layer in brackets):

    - [Posts] — occurrences entering the object-scope pipeline [Engine]
    - [Db_posts] — occurrences posted to the database scope [Engine]
    - [Classified] — candidate triggers the dispatch stage handed to the
      classifier [Engine]
    - [Index_skipped] — active triggers the dispatch index pruned
      without touching [Engine] (0 under the reference stepper's
      brute-force scan, which only tests and benchmarks install)
    - [Transitions] — automaton advances on relevant occurrences
      [Engine], around {!Ode_event.Detector.post_classified}
    - [Slot_transitions] / [Word_transitions] — the same advances split
      by state representation: flat-table structure-of-arrays slots vs
      boxed word vectors [Engine]. The kernel-coverage check: with
      every object-scope detector flat-eligible, [Word_transitions]
      counts only database-scope advances
    - [Firings] — trigger firings, both scopes [Engine]
    - [Tcomplete_rounds] — §6 [before tcomplete] fixpoint rounds [Txn]
    - [Undo_entries] — undo-log entries accumulated by finished (either
      way) user and system transactions [Txn]
    - [Timer_deliveries] — due timers delivered as time events
      [Timewheel]
    - [Lock_conflicts] — incompatible lock requests [Txn]
    - [Classes_registered], [Triggers_indexed] — schema registrations
      and trigger definitions added to a dispatch index [Schema]
    - [Wal_batches] — redo batches framed by the WAL durability backend
      [Wal]
    - [Wal_flushes] — physical log writes (a group commit retires many
      batches per flush; [Wal_batches - Wal_flushes] is the work the
      window saved) [Wal]
    - [Wal_snapshots] — checkpoints (snapshot written + log truncated)
      [Wal]
    - [Wal_replayed] — batches replayed by recovery [Wal]
    - [Net_connections] — client connections accepted by the network
      front door [Ode_net.Server]
    - [Net_requests] — wire requests decoded and handled
      [Ode_net.Server]
    - [Net_outbox_dropped] — firing notifications discarded by a full
      [drop]-policy subscriber outbox [Ode_net.Server] *)
type counter =
  | Posts
  | Db_posts
  | Classified
  | Index_skipped
  | Transitions
  | Slot_transitions
  | Word_transitions
  | Firings
  | Tcomplete_rounds
  | Undo_entries
  | Timer_deliveries
  | Lock_conflicts
  | Classes_registered
  | Triggers_indexed
  | Wal_batches
  | Wal_flushes
  | Wal_snapshots
  | Wal_replayed
  | Net_connections
  | Net_requests
  | Net_outbox_dropped

val all_counters : counter list
val counter_name : counter -> string

(** Latency probes: [Post] one occurrence through the pipeline, [Call] a
    public member-function call, [Commit] a commit including its
    tcomplete rounds, [Action] one fired trigger action. *)
type probe = Post | Call | Commit | Action

val all_probes : probe list
val probe_name : probe -> string

type t

val create : ?trace_capacity:int -> unit -> t
(** Disabled, all zeros; the trace ring holds [trace_capacity] spans
    (default 1024). *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val timing : t -> bool
(** Should the pipeline take latency timestamps? True when the registry
    is enabled {e and} timing data has a consumer — a trace sink is
    attached ({!Trace.has_sinks}) or {!set_timing} forced it on. Clock
    reads dominate the enabled-registry overhead on short operations,
    so histograms are only fed when this holds; counters, the kind
    table and the span ring stay exact regardless. *)

val set_timing : t -> bool -> unit
(** Force latency histograms on (or back to sink-gated) independently of
    sink attachment. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val get : t -> counter -> int

val incr_kind : t -> string -> unit
(** Bump the per-basic-kind post table (the printed
    {!Ode_event.Symbol.basic_key}). *)

val posts_by_kind : t -> (string * int) list
(** Sorted by kind name. *)

val hist : t -> probe -> Hist.t
val record_ns : t -> probe -> int -> unit

val trace : t -> Trace.t
val span : t -> Trace.span -> unit

val reset : t -> unit
(** Zero the counters, histograms, kind table and trace ring; the
    enabled flag and attached sinks are untouched. *)

val now_ns : unit -> int
(** Wall clock in nanoseconds (µs resolution), for latency deltas. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary of every non-zero counter and histogram. *)
