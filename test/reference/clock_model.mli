(** The day-by-day [at time(...)] search, kept as the model
    [Clock.next_match] is pinned against.

    It walks calendar days from [after] for about ten years and, on each
    day the date fields accept, enumerates every candidate time of day —
    up to 86,400 hr x min x sec combinations for a pattern that pins only
    the milliseconds. Slow, but each step is a literal reading of the
    pattern. *)

val next_match : Ode_event.Symbol.time_pattern -> after:int64 -> int64 option
(** Smallest instant strictly greater than [after] matching the
    pattern within about ten years (3,660 days), or [None]. *)
