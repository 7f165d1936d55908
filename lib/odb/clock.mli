(** Simulated civil time for O++ time events.

    Instants are milliseconds since 1970-01-01 00:00:00.000 in the
    proleptic Gregorian calendar (no leap seconds, no time zones) — the
    paper's [time(YR=…, MON=…, DAY=…, HR=…, M=…, SEC=…, MS=…)] format
    maps directly onto this.

    [at] patterns follow the convention: fields {e below} the
    least-significant specified field are taken as 0 (so
    [at time(HR=9)] is 09:00:00.000), while unspecified fields {e above}
    it are wildcards, giving recurrence ([at time(HR=9)] fires daily). *)

type civil = {
  c_year : int;
  c_mon : int;  (** 1..12 *)
  c_day : int;  (** 1..31 *)
  c_hr : int;
  c_min : int;
  c_sec : int;
  c_ms : int;
}

val civil_of_ms : int64 -> civil
val ms_of_civil : civil -> int64
val civil : ?hr:int -> ?min:int -> ?sec:int -> ?ms:int -> int -> int -> int -> civil
(** [civil ?hr ?min ?sec ?ms year mon day]; time components default 0. *)

val is_leap : int -> bool
val days_in_month : int -> int -> int

val normalize : Ode_event.Symbol.time_pattern -> Ode_event.Symbol.time_pattern option
(** Pin the fields below the least-significant specified one to 0;
    [None] if the pattern specifies no field. *)

val next_match : Ode_event.Symbol.time_pattern -> after:int64 -> int64 option
(** Smallest instant strictly greater than [after] matching the pattern.
    [None] if the pattern specifies no field, a field is out of range,
    or no date matches: within the pinned year, or within the next nine
    years when the year is free. The time of day costs constant work;
    the date search steps by month. *)

val matches : Ode_event.Symbol.time_pattern -> int64 -> bool
(** Does this instant match the pattern (with the below-LSF = 0
    convention)? *)

val pp_ms : Format.formatter -> int64 -> unit
(** Render as ["1992-06-02 09:00:00.000"]. *)
