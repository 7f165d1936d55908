(** [odes serve] — the streaming RPC front door over one database
    (docs/PROTOCOL.md).

    One thread runs a [select] loop that owns the database outright:
    accepting connections, decoding frames, executing verbs and
    draining per-client outboxes all happen on that thread, so the
    engine below never sees concurrent callers — client concurrency is
    multiplexed into a single serialized request stream.

    The coalescer is what makes the wire path fast: [post] /
    [post_many] requests from clients with no open transaction
    accumulate into one pending batch, flushed as a single
    [Database.post_many] — through the compiled posting kernel — once
    no connection has more input this turn of the loop, when the batch
    cap ([max_batch]) is reached, or when a non-post verb arrives
    (every other verb is a barrier, so the observable order equals
    arrival order). There is no timer: a lone [post] on an idle server
    is flushed in the turn that read it. Each contributing request is
    answered after its batch commits, and the reply is written in that
    same turn.

    Firing delivery: a [subscribe]d connection gets every firing as a
    [{"firing": ...}] frame, queued on a bounded per-client outbox.
    When the outbox is full the client's chosen {!Protocol.policy}
    applies: [Block] makes the server drain that client synchronously
    from inside the posting pipeline (lossless — one stuck subscriber
    stalls the server, which is what "block" means), [Drop] discards
    the newest firing, counts it ([Net_outbox_dropped], and the
    per-connection count is reported to the client as a
    [{"lagged": k}] frame once space frees up).

    A client disconnect — detected on read {e or} mid-write — tears the
    connection down completely: its subscription is unsubscribed, its
    open transaction aborted, its outbox freed. The connection-leak
    test pins [Database.subscriber_count] and [stats.state_bytes] flat
    across a connect/subscribe/disconnect storm. *)

module D = Ode_odb.Database

type t

val create : ?db:D.t -> config:D.Config.t -> unit -> t
(** Bind and listen on [config.serve.host : config.serve.port] (port 0
    binds an ephemeral port — see {!port}). [db] defaults to
    [D.create_db ~config ()]; pass one to serve a database whose
    schema was registered natively. Raises [D.Ode_error] naming the
    field, before anything is built, when a serve knob is out of range
    ([outbox_bound], [max_batch] or [max_frame_bytes] below 1), and [Unix.Unix_error] when the address
    is taken. *)

val port : t -> int
(** The actually-bound TCP port. *)

val db : t -> D.t

val run : t -> unit
(** The serve loop; blocks until {!stop} is called or a [shutdown]
    verb arrives, then closes every connection and the listener.
    No batch is pending between turns of the loop; outboxes are
    drained (best-effort, bounded wait) before returning. *)

val start : t -> unit
(** Spawn {!run} on a background thread (for tests and the in-process
    soak bench). *)

val stop : t -> unit
(** Ask the loop to exit and — when {!start} was used — join it.
    Idempotent; safe from any thread. *)

type stats = {
  s_connections : int;  (** currently connected clients *)
  s_accepted : int;  (** connections accepted since start *)
  s_requests : int;  (** requests handled *)
  s_batches : int;  (** coalesced post_many flushes *)
  s_dropped : int;  (** firings discarded by Drop-policy outboxes *)
}

val stats : t -> stats
(** Read by tests after quiescing; the loop thread owns the counters. *)
