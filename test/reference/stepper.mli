(** The reference classify/step stepper for object-scope posts.

    This is the posting path the compiled kernel replaced, kept as the
    kernel's oracle: candidates are resolved per post into a list,
    classification goes through the boxed [Detector.classify] /
    [post_classified] entry points, and the observability counters are
    bumped one event at a time. [Index] mode takes its candidates from
    the class's dispatch rows; [Scan] mode ignores the index and
    classifies {e every} active trigger on the object — the
    brute-force baseline that an incomplete index cannot fool. Both
    step candidates in declaration order, so firing order, undo
    snapshots, §9 bindings and state words must match the kernel's
    exactly. *)

type mode = Index | Scan

val step :
  mode ->
  Ode_odb.Types.db ->
  undo:Ode_odb.Types.undo_entry list ref ->
  Ode_odb.Types.obj ->
  Ode_event.Symbol.occurrence ->
  Ode_odb.Types.active_trigger list
(** Classify and step one occurrence on one object, returning the
    activations that fired, in declaration order. Committed-mode undo
    snapshots are pushed onto [undo]. *)

val install : Ode_odb.Types.db -> mode -> unit
(** Route the database's object-scope posts ([post], [post_many],
    commit and time-event fan-outs) through {!step} via
    [Engine.set_stepper], stepping each batch item by item in batch
    order. *)

val uninstall : Ode_odb.Types.db -> unit
(** Restore the compiled kernel. *)
