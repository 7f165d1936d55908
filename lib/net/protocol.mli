(** The wire vocabulary of [odes serve] (docs/PROTOCOL.md §2–§4).

    Every frame payload is one JSON object. Client → server frames are
    {e requests} — [{"id": n, "verb": v, ...}] — and every request gets
    exactly one reply carrying the same [id]: [{"id": n, "ok": ...}] or
    [{"id": n, "error": {"code": c, "msg": m}}]. Server → client frames
    without an [id] are stream notifications: [{"firing": {...}}]
    delivers one trigger firing to a subscriber, [{"lagged": k}] tells a
    [drop]-policy subscriber that [k] firings were dropped since its
    last delivered one.

    Encoding of the database vocabulary:
    - a {!Ode_base.Value.t} is [null] (Unit), a JSON bool/int/float,
      a JSON string, or [{"oid": n}]; non-finite floats travel as
      [{"float": "nan" | "inf" | "-inf"}];
    - a basic event is a tagged object, e.g.
      [{"k": "method", "q": "after", "name": "deposit"}] — see
      {!encode_basic};
    - timestamps and clock spans are JSON ints (milliseconds). *)

module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

type item = {
  i_oid : int;
  i_event : Symbol.basic;
  i_args : Value.t list;
}
(** One basic-event occurrence to post: the [post]/[post_many] payload
    and the unit the server's batch coalescer works in. *)

type policy = Block | Drop
(** Subscriber backpressure when its outbox is full: [Block] stalls the
    server until the client drains (no firing is ever lost), [Drop]
    discards the newest firing and counts it (the client learns via
    [{"lagged": k}]). *)

type request =
  | Status
  | Schema of string  (** ODL source to register, server-side *)
  | Create of string * Value.t list  (** class name, constructor args *)
  | Post of item
  | Post_many of item list
  | Call of int * string * Value.t list
  | Tbegin
  | Tcommit
  | Tabort
  | Advance_clock of int64  (** span, ms *)
  | Save of string  (** server-side path *)
  | Subscribe of policy
  | Unsubscribe
  | Shutdown

type firing = {
  fg_trigger : string;
  fg_class : string;
  fg_oid : int;
  fg_at : int64;
  fg_txn : int;
}

type response = R_ok of Json.t | R_error of string * string  (** code, msg *)

type msg =
  | Reply of int * response
  | Firing of firing
  | Lagged of int
(** Everything a client can pull off the stream. *)

(** {1 Values and events} *)

val encode_value : Value.t -> Json.t
val decode_value : Json.t -> (Value.t, string) result
val encode_basic : Symbol.basic -> Json.t
val decode_basic : Json.t -> (Symbol.basic, string) result

(** {1 Requests (client side encodes, server side decodes)} *)

val verb_of_request : request -> string
(** The wire verb, e.g. ["post_many"] — the key of the server's
    per-verb latency histograms. *)

val encode_request : id:int -> request -> string
val decode_request : Json.t -> (int * request, string) result

(** {1 Request payloads (server side)} *)

type error = { e_id : int; e_code : string; e_msg : string }
(** A rejected payload: the reply's id ([-1] when none could be
    salvaged), its error code ({!err_parse} or {!err_bad_request}) and
    message. *)

val decode_payload : string -> (int * request, error) result
(** Decode one request frame payload. [post] and [post_many] frames in
    the shape {!encode_request} writes are read straight from the bytes
    by {!decode_typed}; every other payload takes the generic path,
    {!Json.of_string} then {!decode_request}. Both paths give the same
    result, and every error is the generic path's. *)

val decode_typed : string -> (int * request) option
(** The typed cursor alone: [None] when the payload leaves the subset
    it reads — another verb, keys in another order or repeated, string
    escapes, integers outside [int] range, exponents, the
    [{"float": ...}] forms, or malformed JSON. Consecutive items with
    equal event bytes share one {!Symbol.basic} value. *)

(** {1 Server → client messages} *)

val encode_reply : id:int -> response -> string
val encode_firing : firing -> string
val encode_lagged : int -> string
val decode_msg : Json.t -> (msg, string) result

(** {1 Error codes} (docs/PROTOCOL.md §4) *)

val err_parse : string
(** ["parse"] — unparseable frame payload *)

val err_bad_request : string
(** ["bad_request"] — well-formed JSON, malformed request *)

val err_aborted : string
(** ["aborted"] — the transaction aborted *)

val err_state : string
(** ["state"] — verb illegal in this state *)

val err_ode : string
(** ["ode"] — a database error, msg verbatim *)
