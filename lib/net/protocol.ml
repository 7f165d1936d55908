module Value = Ode_base.Value
module Symbol = Ode_event.Symbol

type item = { i_oid : int; i_event : Symbol.basic; i_args : Value.t list }
type policy = Block | Drop

type request =
  | Status
  | Schema of string
  | Create of string * Value.t list
  | Post of item
  | Post_many of item list
  | Call of int * string * Value.t list
  | Tbegin
  | Tcommit
  | Tabort
  | Advance_clock of int64
  | Save of string
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

type response = R_ok of Json.t | R_error of string * string
type msg = Reply of int * response | Firing of firing | Lagged of int

let err_parse = "parse"
let err_bad_request = "bad_request"
let err_aborted = "aborted"
let err_state = "state"
let err_ode = "ode"

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let encode_value : Value.t -> Json.t = function
  | Value.Unit -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int n -> Json.Int n
  | Value.Float f when Float.is_finite f -> Json.Float f
  | Value.Float f ->
    let tag =
      if Float.is_nan f then "nan" else if f > 0.0 then "inf" else "-inf"
    in
    Json.Obj [ ("float", Json.String tag) ]
  | Value.String s -> Json.String s
  | Value.Oid n -> Json.Obj [ ("oid", Json.Int n) ]

let decode_value : Json.t -> (Value.t, string) result = function
  | Json.Null -> Ok Value.Unit
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Int n -> Ok (Value.Int n)
  | Json.Float f -> Ok (Value.Float f)
  | Json.String s -> Ok (Value.String s)
  | Json.Obj [ ("oid", Json.Int n) ] -> Ok (Value.Oid n)
  | Json.Obj [ ("float", Json.String "nan") ] -> Ok (Value.Float Float.nan)
  | Json.Obj [ ("float", Json.String "inf") ] ->
    Ok (Value.Float Float.infinity)
  | Json.Obj [ ("float", Json.String "-inf") ] ->
    Ok (Value.Float Float.neg_infinity)
  | j -> Error ("bad value: " ^ Json.to_string j)

let rec decode_values acc = function
  | [] -> Ok (List.rev acc)
  | j :: rest -> (
    match decode_value j with
    | Ok v -> decode_values (v :: acc) rest
    | Error _ as e -> e)

let encode_values vs = Json.List (List.map encode_value vs)

let decode_values_field ?(field = "args") obj =
  match Json.member field obj with
  | None | Some Json.Null -> Ok []
  | Some (Json.List js) -> decode_values [] js
  | Some _ -> Error (Printf.sprintf "bad %S field" field)

(* ------------------------------------------------------------------ *)
(* Basic events                                                        *)
(* ------------------------------------------------------------------ *)

let qualifier_str = function Symbol.Before -> "before" | Symbol.After -> "after"

let decode_qualifier = function
  | "before" -> Ok Symbol.Before
  | "after" -> Ok Symbol.After
  | q -> Error ("bad qualifier " ^ q)

let encode_pattern (p : Symbol.time_pattern) =
  let field name v acc =
    match v with None -> acc | Some n -> (name, Json.Int n) :: acc
  in
  Json.Obj
    (field "year" p.Symbol.year
    @@ field "mon" p.Symbol.mon
    @@ field "day" p.Symbol.day
    @@ field "hr" p.Symbol.hr
    @@ field "min" p.Symbol.min
    @@ field "sec" p.Symbol.sec
    @@ field "ms" p.Symbol.ms [])

let decode_pattern j =
  let get name =
    match Json.member name j with
    | Some (Json.Int n) -> Some n
    | Some _ | None -> None
  in
  {
    Symbol.year = get "year";
    mon = get "mon";
    day = get "day";
    hr = get "hr";
    min = get "min";
    sec = get "sec";
    ms = get "ms";
  }

let encode_time_spec = function
  | Symbol.Every ms -> Json.Obj [ ("every", Json.Int (Int64.to_int ms)) ]
  | Symbol.After_period ms ->
    Json.Obj [ ("after", Json.Int (Int64.to_int ms)) ]
  | Symbol.At p -> Json.Obj [ ("at", encode_pattern p) ]

let decode_time_spec j =
  match (Json.member "every" j, Json.member "after" j, Json.member "at" j) with
  | Some (Json.Int ms), None, None -> Ok (Symbol.Every (Int64.of_int ms))
  | None, Some (Json.Int ms), None ->
    Ok (Symbol.After_period (Int64.of_int ms))
  | None, None, Some p -> Ok (Symbol.At (decode_pattern p))
  | _ -> Error ("bad time spec: " ^ Json.to_string j)

let encode_basic : Symbol.basic -> Json.t =
  let k kind rest = Json.Obj (("k", Json.String kind) :: rest) in
  let q kind qual = k kind [ ("q", Json.String (qualifier_str qual)) ] in
  function
  | Symbol.Create -> k "create" []
  | Symbol.Delete -> k "delete" []
  | Symbol.Update qual -> q "update" qual
  | Symbol.Read qual -> q "read" qual
  | Symbol.Access qual -> q "access" qual
  | Symbol.Method (qual, name) ->
    k "method"
      [ ("q", Json.String (qualifier_str qual)); ("name", Json.String name) ]
  | Symbol.Tbegin -> k "tbegin" []
  | Symbol.Tcomplete -> k "tcomplete" []
  | Symbol.Tcommit -> k "tcommit" []
  | Symbol.Tabort qual -> q "tabort" qual
  | Symbol.Time spec -> k "time" [ ("spec", encode_time_spec spec) ]

let decode_basic j : (Symbol.basic, string) result =
  let ( let* ) = Result.bind in
  let qual () =
    match Json.member "q" j with
    | Some (Json.String q) -> decode_qualifier q
    | _ -> Error "missing qualifier"
  in
  match Json.member "k" j with
  | Some (Json.String "create") -> Ok Symbol.Create
  | Some (Json.String "delete") -> Ok Symbol.Delete
  | Some (Json.String "update") ->
    let* q = qual () in
    Ok (Symbol.Update q)
  | Some (Json.String "read") ->
    let* q = qual () in
    Ok (Symbol.Read q)
  | Some (Json.String "access") ->
    let* q = qual () in
    Ok (Symbol.Access q)
  | Some (Json.String "method") -> (
    let* q = qual () in
    match Json.member "name" j with
    | Some (Json.String name) -> Ok (Symbol.Method (q, name))
    | _ -> Error "method event without a name")
  | Some (Json.String "tbegin") -> Ok Symbol.Tbegin
  | Some (Json.String "tcomplete") -> Ok Symbol.Tcomplete
  | Some (Json.String "tcommit") -> Ok Symbol.Tcommit
  | Some (Json.String "tabort") ->
    let* q = qual () in
    Ok (Symbol.Tabort q)
  | Some (Json.String "time") -> (
    match Json.member "spec" j with
    | Some spec ->
      let* s = decode_time_spec spec in
      Ok (Symbol.Time s)
    | None -> Error "time event without a spec")
  | _ -> Error ("bad basic event: " ^ Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

let encode_item it =
  Json.Obj
    [
      ("oid", Json.Int it.i_oid);
      ("event", encode_basic it.i_event);
      ("args", encode_values it.i_args);
    ]

let decode_item j =
  let ( let* ) = Result.bind in
  match (Json.member "oid" j, Json.member "event" j) with
  | Some (Json.Int oid), Some ev ->
    let* event = decode_basic ev in
    let* args = decode_values_field j in
    Ok { i_oid = oid; i_event = event; i_args = args }
  | _ -> Error ("bad item: " ^ Json.to_string j)

let rec decode_items acc = function
  | [] -> Ok (List.rev acc)
  | j :: rest -> (
    match decode_item j with
    | Ok it -> decode_items (it :: acc) rest
    | Error _ as e -> e)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let verb_of_request = function
  | Status -> "status"
  | Schema _ -> "schema"
  | Create _ -> "create"
  | Post _ -> "post"
  | Post_many _ -> "post_many"
  | Call _ -> "call"
  | Tbegin -> "tbegin"
  | Tcommit -> "tcommit"
  | Tabort -> "tabort"
  | Advance_clock _ -> "advance_clock"
  | Save _ -> "save"
  | Subscribe _ -> "subscribe"
  | Unsubscribe -> "unsubscribe"
  | Shutdown -> "shutdown"

let policy_str = function Block -> "block" | Drop -> "drop"

let request_fields = function
  | Status | Tbegin | Tcommit | Tabort | Unsubscribe | Shutdown -> []
  | Schema src -> [ ("src", Json.String src) ]
  | Create (cls, args) ->
    [ ("class", Json.String cls); ("args", encode_values args) ]
  | Post it -> [ ("item", encode_item it) ]
  | Post_many items ->
    [ ("items", Json.List (List.map encode_item items)) ]
  | Call (oid, name, args) ->
    [
      ("oid", Json.Int oid);
      ("method", Json.String name);
      ("args", encode_values args);
    ]
  | Advance_clock ms -> [ ("ms", Json.Int (Int64.to_int ms)) ]
  | Save path -> [ ("path", Json.String path) ]
  | Subscribe p -> [ ("policy", Json.String (policy_str p)) ]

let encode_request ~id req =
  Json.to_string
    (Json.Obj
       (("id", Json.Int id)
       :: ("verb", Json.String (verb_of_request req))
       :: request_fields req))

let decode_request j =
  let ( let* ) = Result.bind in
  let* id =
    match Json.member "id" j with
    | Some (Json.Int id) -> Ok id
    | _ -> Error "request without an integer id"
  in
  let* verb =
    match Json.member "verb" j with
    | Some (Json.String v) -> Ok v
    | _ -> Error "request without a verb"
  in
  let* req =
    match verb with
    | "status" -> Ok Status
    | "tbegin" -> Ok Tbegin
    | "tcommit" -> Ok Tcommit
    | "tabort" -> Ok Tabort
    | "unsubscribe" -> Ok Unsubscribe
    | "shutdown" -> Ok Shutdown
    | "schema" -> (
      match Json.member "src" j with
      | Some (Json.String src) -> Ok (Schema src)
      | _ -> Error "schema without src")
    | "create" -> (
      match Json.member "class" j with
      | Some (Json.String cls) ->
        let* args = decode_values_field j in
        Ok (Create (cls, args))
      | _ -> Error "create without class")
    | "post" -> (
      match Json.member "item" j with
      | Some it ->
        let* it = decode_item it in
        Ok (Post it)
      | None -> Error "post without item")
    | "post_many" -> (
      match Json.member "items" j with
      | Some (Json.List js) ->
        let* items = decode_items [] js in
        Ok (Post_many items)
      | _ -> Error "post_many without items")
    | "call" -> (
      match (Json.member "oid" j, Json.member "method" j) with
      | Some (Json.Int oid), Some (Json.String name) ->
        let* args = decode_values_field j in
        Ok (Call (oid, name, args))
      | _ -> Error "call without oid/method")
    | "advance_clock" -> (
      match Json.member "ms" j with
      | Some (Json.Int ms) -> Ok (Advance_clock (Int64.of_int ms))
      | _ -> Error "advance_clock without ms")
    | "save" -> (
      match Json.member "path" j with
      | Some (Json.String path) -> Ok (Save path)
      | _ -> Error "save without path")
    | "subscribe" -> (
      match Json.member "policy" j with
      | Some (Json.String "block") -> Ok (Subscribe Block)
      | Some (Json.String "drop") -> Ok (Subscribe Drop)
      | None -> Ok (Subscribe Block)
      | Some _ -> Error "subscribe with a bad policy")
    | v -> Error ("unknown verb " ^ v)
  in
  Ok (id, req)

(* ------------------------------------------------------------------ *)
(* Payloads: the typed cursor and the generic fallback                 *)
(* ------------------------------------------------------------------ *)

(* [post] and [post_many] frames in the shape [encode_request] writes
   are decoded straight from the payload bytes: no [Json.t], no key
   strings, no [List.assoc_opt]. The cursor accepts a strict subset of
   JSON: keys in [encode_request]'s order, each once; strings without
   escapes; integers in [int] range; floats with a [.] and no
   exponent; values that are null, a bool, a number, a string or
   [{"oid":n}]. On that subset the generic path returns the same
   request. At the first byte outside it the cursor raises [Fallback]
   and the generic path decodes the whole payload, so every error reply
   (code, message, salvaged id) is the generic path's. The subset's
   nesting is fixed, so the generic path's depth bound is never
   needed here. *)
exception Fallback

type cursor = {
  src : string;
  mutable pos : int;
  (* the last event object decoded: its byte span and its value, shared
     by the following items whose event bytes are the same *)
  mutable ev_off : int;
  mutable ev_len : int;
  mutable ev : Symbol.basic;
}

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && match String.unsafe_get c.src c.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done

(* the next non-blank byte, ['\000'] at the end (it matches nothing the
   cursor accepts, so the caller falls back) *)
let peek c =
  skip_ws c;
  if c.pos < String.length c.src then String.unsafe_get c.src c.pos else '\000'

let expect c ch = if peek c = ch then c.pos <- c.pos + 1 else raise_notrace Fallback

(* [true] and the cursor moved past [lit] when the next bytes are [lit] *)
let accept c lit =
  skip_ws c;
  let l = String.length lit in
  if c.pos + l > String.length c.src then false
  else begin
    let i = ref 0 in
    while !i < l && String.unsafe_get c.src (c.pos + !i) = String.unsafe_get lit !i do
      incr i
    done;
    if !i = l then c.pos <- c.pos + l;
    !i = l
  end

(* [key c "\"oid\""] reads the key and its colon *)
let key c k =
  if not (accept c k) then raise_notrace Fallback;
  expect c ':'

(* the comma before a field that is not the first, then its key *)
let next_key c k =
  expect c ',';
  key c k

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The end of the number token at the cursor, delimited as [Json]
   delimits it. *)
let token_end c =
  skip_ws c;
  let n = String.length c.src in
  let i = ref c.pos in
  while !i < n && is_num_char (String.unsafe_get c.src !i) do
    incr i
  done;
  !i

(* [-?digits] in [int] range; the cursor stays put when the token is
   anything else. Up to 18 digits cannot overflow and are summed in
   place; longer ones go through [int_of_string] as in [Json]. *)
let int_ c =
  let stop = token_end c in
  let neg = c.pos < stop && c.src.[c.pos] = '-' in
  let first = if neg then c.pos + 1 else c.pos in
  if stop = first then raise_notrace Fallback;
  let v = ref 0 in
  for i = first to stop - 1 do
    match String.unsafe_get c.src i with
    | '0' .. '9' as d -> v := (!v * 10) + (Char.code d - 48)
    | _ -> raise_notrace Fallback
  done;
  let v =
    if stop - first <= 18 then if neg then - !v else !v
    else
      match int_of_string_opt (String.sub c.src c.pos (stop - c.pos)) with
      | Some v -> v
      | None -> raise_notrace Fallback
  in
  c.pos <- stop;
  v

(* a token with a [.] and no exponent, as [float_of_string] reads it *)
let float_ c =
  let stop = token_end c in
  let tok = String.sub c.src c.pos (stop - c.pos) in
  if (not (String.contains tok '.')) || String.contains tok 'e' || String.contains tok 'E'
  then raise_notrace Fallback;
  match float_of_string_opt tok with
  | Some f when Float.is_finite f ->
    c.pos <- stop;
    f
  | _ -> raise_notrace Fallback

let string_ c =
  expect c '"';
  let s = c.src and start = c.pos in
  let n = String.length s in
  while c.pos < n && match String.unsafe_get s c.pos with '"' | '\\' -> false | _ -> true do
    c.pos <- c.pos + 1
  done;
  if c.pos >= n || String.unsafe_get s c.pos = '\\' then raise_notrace Fallback;
  c.pos <- c.pos + 1;
  String.sub s start (c.pos - 1 - start)

let value c =
  match peek c with
  | 'n' when accept c "null" -> Value.Unit
  | 't' when accept c "true" -> Value.Bool true
  | 'f' when accept c "false" -> Value.Bool false
  | '"' -> Value.String (string_ c)
  | '{' ->
    c.pos <- c.pos + 1;
    key c {|"oid"|};
    let oid = int_ c in
    expect c '}';
    Value.Oid oid
  | '-' | '0' .. '9' -> ( try Value.Int (int_ c) with Fallback -> Value.Float (float_ c))
  | _ -> raise_notrace Fallback

(* [[e, ...]] with [elt] reading one element *)
let list_of c elt =
  expect c '[';
  if peek c = ']' then begin
    c.pos <- c.pos + 1;
    []
  end
  else begin
    let rec go acc =
      let acc = elt c :: acc in
      match peek c with
      | ',' ->
        c.pos <- c.pos + 1;
        go acc
      | ']' ->
        c.pos <- c.pos + 1;
        List.rev acc
      | _ -> raise_notrace Fallback
    in
    go []
  end

let qualifier c =
  if accept c {|"after"|} then Symbol.After
  else if accept c {|"before"|} then Symbol.Before
  else raise_notrace Fallback

(* [encode_pattern]'s keys, in its order; each is optional *)
let pattern_keys = [| {|"year"|}; {|"mon"|}; {|"day"|}; {|"hr"|}; {|"min"|}; {|"sec"|}; {|"ms"|} |]

let pattern c =
  expect c '{';
  let got = Array.make 7 None in
  if peek c = '}' then c.pos <- c.pos + 1
  else begin
    let rec field i =
      if i = 7 then raise_notrace Fallback
      else if accept c pattern_keys.(i) then begin
        expect c ':';
        got.(i) <- Some (int_ c);
        match peek c with
        | ',' ->
          c.pos <- c.pos + 1;
          field (i + 1)
        | '}' -> c.pos <- c.pos + 1
        | _ -> raise_notrace Fallback
      end
      else field (i + 1)
    in
    field 0
  end;
  { Symbol.year = got.(0); mon = got.(1); day = got.(2); hr = got.(3);
    min = got.(4); sec = got.(5); ms = got.(6) }

let time_spec c =
  expect c '{';
  let spec =
    if accept c {|"every"|} then (
      expect c ':';
      Symbol.Every (Int64.of_int (int_ c)))
    else if accept c {|"after"|} then (
      expect c ':';
      Symbol.After_period (Int64.of_int (int_ c)))
    else (
      key c {|"at"|};
      Symbol.At (pattern c))
  in
  expect c '}';
  spec

let basic c =
  expect c '{';
  key c {|"k"|};
  let qual () =
    next_key c {|"q"|};
    qualifier c
  in
  let ev =
    if accept c {|"method"|} then (
      let q = qual () in
      next_key c {|"name"|};
      Symbol.Method (q, string_ c))
    else if accept c {|"create"|} then Symbol.Create
    else if accept c {|"delete"|} then Symbol.Delete
    else if accept c {|"update"|} then Symbol.Update (qual ())
    else if accept c {|"read"|} then Symbol.Read (qual ())
    else if accept c {|"access"|} then Symbol.Access (qual ())
    else if accept c {|"tbegin"|} then Symbol.Tbegin
    else if accept c {|"tcomplete"|} then Symbol.Tcomplete
    else if accept c {|"tcommit"|} then Symbol.Tcommit
    else if accept c {|"tabort"|} then Symbol.Tabort (qual ())
    else if accept c {|"time"|} then (
      next_key c {|"spec"|};
      Symbol.Time (time_spec c))
    else raise_notrace Fallback
  in
  expect c '}';
  ev

(* Equal bytes decode to an equal event, so an item whose event object
   repeats the previous one's bytes reuses its value. *)
let shared_basic c =
  skip_ws c;
  let s = c.src and off = c.pos and len = c.ev_len in
  let same =
    len > 0
    && off + len <= String.length s
    &&
    let i = ref 0 in
    while !i < len && String.unsafe_get s (off + !i) = String.unsafe_get s (c.ev_off + !i) do
      incr i
    done;
    !i = len
  in
  if same then begin
    c.pos <- off + len;
    c.ev
  end
  else begin
    let ev = basic c in
    c.ev_off <- off;
    c.ev_len <- c.pos - off;
    c.ev <- ev;
    ev
  end

let item c =
  expect c '{';
  key c {|"oid"|};
  let i_oid = int_ c in
  next_key c {|"event"|};
  let i_event = shared_basic c in
  next_key c {|"args"|};
  let i_args = list_of c value in
  expect c '}';
  { i_oid; i_event; i_args }

let typed_request c =
  expect c '{';
  key c {|"id"|};
  let id = int_ c in
  next_key c {|"verb"|};
  let req =
    if accept c {|"post_many"|} then (
      next_key c {|"items"|};
      Post_many (list_of c item))
    else if accept c {|"post"|} then (
      next_key c {|"item"|};
      Post (item c))
    else raise_notrace Fallback
  in
  expect c '}';
  skip_ws c;
  if c.pos <> String.length c.src then raise_notrace Fallback;
  (id, req)

let decode_typed payload =
  let c = { src = payload; pos = 0; ev_off = 0; ev_len = 0; ev = Symbol.Create } in
  match typed_request c with r -> Some r | exception Fallback -> None

type error = { e_id : int; e_code : string; e_msg : string }

let decode_generic payload =
  match Json.of_string payload with
  | Error msg -> Error { e_id = -1; e_code = err_parse; e_msg = msg }
  | Ok j -> (
    match decode_request j with
    | Ok _ as ok -> ok
    | Error msg ->
      (* salvage the id when the envelope carried one, so the client can
         correlate the rejection *)
      let e_id = match Json.member "id" j with Some (Json.Int id) -> id | _ -> -1 in
      Error { e_id; e_code = err_bad_request; e_msg = msg })

let decode_payload payload =
  match decode_typed payload with Some r -> Ok r | None -> decode_generic payload

(* ------------------------------------------------------------------ *)
(* Replies and notifications                                           *)
(* ------------------------------------------------------------------ *)

let encode_reply ~id resp =
  Json.to_string
    (match resp with
    | R_ok payload -> Json.Obj [ ("id", Json.Int id); ("ok", payload) ]
    | R_error (code, msg) ->
      Json.Obj
        [
          ("id", Json.Int id);
          ( "error",
            Json.Obj
              [ ("code", Json.String code); ("msg", Json.String msg) ] );
        ])

let firing_json f =
  Json.Obj
    [
      ("trigger", Json.String f.fg_trigger);
      ("class", Json.String f.fg_class);
      ("oid", Json.Int f.fg_oid);
      ("at", Json.Int (Int64.to_int f.fg_at));
      ("txn", Json.Int f.fg_txn);
    ]

let encode_firing f = Json.to_string (Json.Obj [ ("firing", firing_json f) ])
let encode_lagged n = Json.to_string (Json.Obj [ ("lagged", Json.Int n) ])

let decode_firing j =
  match
    ( Json.member "trigger" j,
      Json.member "class" j,
      Json.member "oid" j,
      Json.member "at" j,
      Json.member "txn" j )
  with
  | ( Some (Json.String fg_trigger),
      Some (Json.String fg_class),
      Some (Json.Int fg_oid),
      Some (Json.Int at),
      Some (Json.Int fg_txn) ) ->
    Ok { fg_trigger; fg_class; fg_oid; fg_at = Int64.of_int at; fg_txn }
  | _ -> Error ("bad firing: " ^ Json.to_string j)

let decode_msg j =
  let ( let* ) = Result.bind in
  match Json.member "firing" j with
  | Some f ->
    let* f = decode_firing f in
    Ok (Firing f)
  | None -> (
    match Json.member "lagged" j with
    | Some (Json.Int n) -> Ok (Lagged n)
    | Some _ -> Error "bad lagged notification"
    | None -> (
      match Json.member "id" j with
      | Some (Json.Int id) -> (
        match (Json.member "ok" j, Json.member "error" j) with
        | Some payload, None -> Ok (Reply (id, R_ok payload))
        | None, Some err -> (
          match (Json.member "code" err, Json.member "msg" err) with
          | Some (Json.String code), Some (Json.String msg) ->
            Ok (Reply (id, R_error (code, msg)))
          | _ -> Error "bad error reply")
        | _ -> Error "reply with neither ok nor error")
      | _ -> Error ("unrecognised message: " ^ Json.to_string j)))
