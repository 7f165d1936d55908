(** Engine group: the partition-aware composition root.

    [make] builds [partitions] engine members slicing one logical
    database by oid ([oid mod n = k] lives on member [k]); member 0 is
    the facade returned to the caller. Members share the schema,
    transaction, engine and observability records (they are record
    copies of member 0), and each owns a store slice, a timer wheel
    and a durability log. With [partitions = 1] this is exactly
    {!Types.make_db} — every routing helper collapses to the identity.

    The group durability backends below replace [Persist.image_backend]
    and [Wal.backend] for a partitioned database; [Database.create_db]
    picks them when [Config.partitions > 1]. *)

open Types

val make :
  partitions:int ->
  ?start_time:int64 ->
  ?max_tcomplete_rounds:int ->
  ?trace_capacity:int ->
  unit ->
  db
(** Build the member array and return the facade (member 0), each
    member with its own empty heap slice. The facade is built with the
    no-op durability backend; callers install one of the backends
    below (or any other) and [dur_attach] it, exactly as
    [Database.create_db] does for a single engine. Raises
    {!Types.Ode_error} if [partitions < 1]. *)

val image_backend : unit -> durability_backend
(** The full-image codec over merged slices: [dur_save]/[dur_load] are
    {!Persist.group_save}/{!Persist.group_load} (bit-identical to a
    single engine's image), commit emission is a no-op, [dur_recover]
    raises. *)

val wal_backend : partitions:int -> Wal.config -> durability_backend
(** One WAL per member under [<dir>/p<k>] plus a [group-manifest]
    pinning the partition count ([dur_attach] writes it when absent
    and refuses a mismatched directory). Commits split their footprint
    by owner — member 0 always logs, others only when their slice
    moved. [dur_recover] replays every member log, then reconciles the
    shared counters and clocks by taking the max across members. *)
