(* The wire layer: protocol round-trips, framing corruption, the
   server against the in-process oracle, backpressure policies,
   connection-teardown hygiene, the served log's idle sync and
   shutdown close, and the Database.Config facade. *)

module D = Ode_odb.Database
module History = Ode_odb.History
module Value = Ode_base.Value
module Symbol = Ode_event.Symbol
module Json = Ode_net.Json
module Frame = Ode_net.Frame
module P = Ode_net.Protocol
module Server = Ode_net.Server
module Client = Ode_net.Client
module Odl = Ode_odl.Odl

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(* One qualifying tick -> exactly one firing: the deterministic unit of
   the backpressure and leak tests. *)
let schema_simple =
  {|
  class probe {
    int n = 0;
    int marks = 0;
  public:
    probe() { activate T(); }
    update void tick(int q) { n = n + q; }
    update void mark() { marks = marks + 1; }
    read int marks_of() { return marks; }
  trigger:
    T() : perpetual after tick(q) && q > 5 ==> mark();
  };
  |}

(* Adds a sequence trigger so the merged-order equivalence test is
   sensitive to interleaving, not just to multisets of posts. *)
let schema_rich =
  {|
  class probe {
    int n = 0;
    int marks = 0;
  public:
    probe() { activate T(); activate S(); }
    update void tick(int q) { n = n + q; }
    update void mark() { marks = marks + 1; }
    read int marks_of() { return marks; }
  trigger:
    T() : perpetual after tick(q) && q > 5 ==> mark();
    S() : perpetual after tick; after tick; after tick ==> mark();
  };
  |}

let mk_config ?(outbox = 1024) ?(max_batch = D.Config.default_serve.D.Config.max_batch)
    ?(max_frame = Frame.max_frame_default) () =
  {
    D.Config.default with
    D.Config.serve =
      {
        D.Config.default_serve with
        D.Config.port = 0;
        outbox_bound = outbox;
        max_batch;
        max_frame_bytes = max_frame;
      };
  }

(* The database is built by the caller (so it follows the CI leg's env
   backend selection); the server only gets the serve knobs. *)
let with_server ?outbox ?max_batch ?max_frame ~db f =
  let srv =
    Server.create ~db ~config:(mk_config ?outbox ?max_batch ?max_frame ()) ()
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (Server.port srv))

let ok = function
  | Ok j -> j
  | Error (code, msg) -> Alcotest.failf "server error [%s]: %s" code msg

let jint key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "reply carried no int %S: %s" key (Json.to_string j)

let tick_item oid q =
  {
    P.i_oid = oid;
    i_event = Symbol.Method (Symbol.After, "tick");
    i_args = [ Value.Int q ];
  }

let setup_probe client =
  ignore (ok (Client.request client (P.Schema schema_simple)));
  jint "oid" (ok (Client.request client (P.Create ("probe", []))))

let drain_firings ?(timeout_s = 1.0) client =
  let rec go acc =
    match Client.wait_firing ~timeout_s client with
    | Some f -> go (f :: acc)
    | None -> List.rev acc
  in
  go []

let expect_ok = function
  | Ok v -> v
  | Error `Aborted -> Alcotest.fail "unexpected abort"

(* ------------------------------------------------------------------ *)
(* Protocol round-trips (qcheck)                                       *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  open QCheck.Gen

  let value =
    oneof
      [
        return Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun n -> Value.Int n) int;
        (* quotients of ints exercise the repr printer without hitting
           NaN (structural equality breaks there; NaN gets its own
           deterministic test) *)
        map2 (fun a b -> Value.Float (float_of_int a /. float_of_int (1 + abs b))) int small_nat;
        map (fun s -> Value.String s) (string_size (int_range 0 12));
        map (fun n -> Value.Oid (abs n)) nat;
      ]

  let qual = oneofl [ Symbol.Before; Symbol.After ]
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8)

  let time_pattern =
    let field hi = opt (int_range 0 hi) in
    let* year = opt (int_range 1970 2100) in
    let* mon = field 12 in
    let* day = field 31 in
    let* hr = field 23 in
    let* min = field 59 in
    let* sec = field 59 in
    let+ ms = field 999 in
    { Symbol.year; mon; day; hr; min; sec; ms }

  let basic =
    oneof
      [
        oneofl [ Symbol.Create; Symbol.Delete; Symbol.Tbegin; Symbol.Tcomplete; Symbol.Tcommit ];
        map (fun q -> Symbol.Update q) qual;
        map (fun q -> Symbol.Read q) qual;
        map (fun q -> Symbol.Access q) qual;
        map (fun q -> Symbol.Tabort q) qual;
        map2 (fun q n -> Symbol.Method (q, n)) qual name;
        map (fun n -> Symbol.Time (Symbol.Every (Int64.of_int (1 + n)))) small_nat;
        map (fun n -> Symbol.Time (Symbol.After_period (Int64.of_int (1 + n)))) small_nat;
        map (fun p -> Symbol.Time (Symbol.At p)) time_pattern;
      ]

  let item =
    let* oid = nat in
    let* event = basic in
    let+ args = list_size (int_range 0 4) value in
    { P.i_oid = oid; i_event = event; i_args = args }

  let policy = oneofl [ P.Block; P.Drop ]

  let request =
    oneof
      [
        return P.Status;
        map (fun s -> P.Schema s) (string_size (int_range 0 40));
        map2 (fun n args -> P.Create (n, args)) name (list_size (int_range 0 3) value);
        map (fun it -> P.Post it) item;
        map (fun its -> P.Post_many its) (list_size (int_range 0 6) item);
        map3 (fun oid n args -> P.Call (oid, n, args)) nat name
          (list_size (int_range 0 3) value);
        oneofl [ P.Tbegin; P.Tcommit; P.Tabort; P.Unsubscribe; P.Shutdown ];
        map (fun n -> P.Advance_clock (Int64.of_int n)) nat;
        map (fun s -> P.Save s) (string_size (int_range 0 20));
        map (fun p -> P.Subscribe p) policy;
      ]

  let firing =
    let* t = name in
    let* c = name in
    let* oid = nat in
    let* at = nat in
    let+ txn = nat in
    { P.fg_trigger = t; fg_class = c; fg_oid = oid; fg_at = Int64.of_int at; fg_txn = txn }
end

let reparse what s =
  match Json.of_string s with
  | Ok j -> j
  | Error msg -> QCheck.Test.fail_reportf "%s produced bad JSON (%s): %s" what msg s

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode . encode = id (requests)"
    (QCheck.make ~print:(fun (id, r) -> Printf.sprintf "#%d %s" id (P.encode_request ~id r))
       QCheck.Gen.(pair nat Gen.request))
    (fun (id, req) ->
      let wire = P.encode_request ~id req in
      match P.decode_request (reparse "encode_request" wire) with
      | Ok (id', req') -> id' = id && req' = req
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s (%s)" msg wire)

let qcheck_msg_roundtrip =
  QCheck.Test.make ~count:300 ~name:"decode . encode = id (stream messages)"
    (QCheck.make QCheck.Gen.(oneof [
         map (fun f -> P.Firing f) Gen.firing;
         map (fun n -> P.Lagged (1 + n)) small_nat;
         map2 (fun id j -> P.Reply (id, P.R_ok j))
           nat (map (fun v -> P.encode_value v) Gen.value);
         map2 (fun id (c, m) -> P.Reply (id, P.R_error (c, m)))
           nat (pair Gen.name (string_size (int_range 0 20)));
       ]))
    (fun msg ->
      let wire =
        match msg with
        | P.Reply (id, resp) -> P.encode_reply ~id resp
        | P.Firing f -> P.encode_firing f
        | P.Lagged k -> P.encode_lagged k
      in
      match P.decode_msg (reparse "encode_msg" wire) with
      | Ok msg' -> msg' = msg
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s (%s)" e wire)

let test_nonfinite_floats () =
  List.iter
    (fun f ->
      match P.decode_value (P.encode_value (Value.Float f)) with
      | Ok (Value.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives" f)
          true
          (Float.is_nan f' = Float.is_nan f && (Float.is_nan f || f' = f))
      | Ok v -> Alcotest.failf "decoded to %s" (Value.to_string v)
      | Error msg -> Alcotest.fail msg)
    [ Float.nan; Float.infinity; Float.neg_infinity; 1e-308; Float.pi; -0.0 ]

(* The parser must reject what the printer refuses (numerals that
   overflow to infinity) and bound its recursion, so no client-supplied
   document can break the parse/print round trip or blow the stack. *)
let test_json_limits () =
  (match Json.of_string "1e999" with
  | Error _ -> ()
  | Ok j -> Alcotest.failf "1e999 parsed to %s" (Json.to_string j));
  (match Json.of_string "[-1e999]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "-1e999 must be rejected");
  (* out-of-int-range but finite still degrades to float *)
  (match Json.of_string "123456789012345678901234567890" with
  | Ok (Json.Float _) -> ()
  | Ok j -> Alcotest.failf "big int parsed to %s" (Json.to_string j)
  | Error msg -> Alcotest.failf "finite overflow rejected: %s" msg);
  let deep_ok = String.make 100 '[' ^ "1" ^ String.make 100 ']' in
  (match Json.of_string deep_ok with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 100 rejected: %s" msg);
  match Json.of_string (String.make 200_000 '[') with
  | Error _ -> ()  (* a parse error, crucially not Stack_overflow *)
  | Ok _ -> Alcotest.fail "nesting bomb must fail to parse"

(* ------------------------------------------------------------------ *)
(* Request payloads: typed cursor = generic path                       *)
(* ------------------------------------------------------------------ *)

(* The reference the cursor must agree with on every input: the generic
   decode, [Json.of_string] then [decode_request], salvaging the id. *)
let generic_decode payload =
  match Json.of_string payload with
  | Error msg -> Error (-1, P.err_parse, msg)
  | Ok j -> (
    match P.decode_request j with
    | Ok r -> Ok r
    | Error msg ->
      let id = match Json.member "id" j with Some (Json.Int id) -> id | _ -> -1 in
      Error (id, P.err_bad_request, msg))

let payload_decode payload =
  match P.decode_payload payload with
  | Ok r -> Ok r
  | Error { P.e_id; e_code; e_msg } -> Error (e_id, e_code, e_msg)

(* [compare], not [=]: a [{"float":"nan"}] argument decodes to NaN *)
let same_decode s = compare (payload_decode s) (generic_decode s) = 0

(* Mutations of a canonical encoding, each aimed at one edge of the
   cursor's subset. The tree edits rewrite one object only, so most of
   the frame stays inside the subset. *)
let mutate =
  let open QCheck.Gen in
  (* [f] rewrites the fields of the [k]th object in pre-order *)
  let one_obj f s =
    match Json.of_string s with
    | Error _ -> return s
    | Ok j ->
      let seen = ref 0 in
      let rec walk k = function
        | Json.Obj kvs ->
          let here = !seen = k in
          incr seen;
          let kvs = List.map (fun (key, v) -> (key, walk k v)) kvs in
          Json.Obj (if here then f kvs else kvs)
        | Json.List xs -> Json.List (List.map (walk k) xs)
        | v -> v
      in
      ignore (walk (-1) j);
      let n_objs = !seen in
      map
        (fun k ->
          seen := 0;
          Json.to_string (walk k j))
        (int_bound (max 0 (n_objs - 1)))
  in
  let is_digit ch = ch >= '0' && ch <= '9' in
  let run_starts s i = is_digit s.[i] && (i = 0 || not (is_digit s.[i - 1])) in
  (* replace the [k]th run of digits *)
  let subst_digits s k by =
    let b = Buffer.create (String.length s + 32) in
    let run = ref (-1) in
    String.iteri
      (fun i ch ->
        if run_starts s i then incr run;
        if is_digit ch && !run = k then (if run_starts s i then Buffer.add_string b by)
        else Buffer.add_char b ch)
      s;
    Buffer.contents b
  in
  let digit_runs s =
    let k = ref 0 in
    String.iteri (fun i _ -> if run_starts s i then incr k) s;
    !k
  in
  let splice s i by = String.sub s 0 i ^ by ^ String.sub s i (String.length s - i) in
  fun s ->
    let n = String.length s in
    let at = map (fun i -> i mod (n + 1)) nat in
    frequency
      [
        (1, return s);
        (1, map (fun i -> String.sub s 0 i) (int_bound n));
        ( 2,
          map2
            (fun i ch ->
              if n = 0 then s else String.mapi (fun j c -> if j = i mod n then ch else c) s)
            nat
            (oneofl
               [ '"'; '\\'; ','; ':'; '{'; '}'; '['; ']'; ' '; 'e'; '.'; '-'; '0'; 'x'; '\000' ]) );
        (1, one_obj List.rev s);
        (* a repeated key: the generic path keeps the first value *)
        ( 2,
          one_obj
            (function
              | (k, v) :: rest ->
                let v' =
                  match v with
                  | Json.Int n -> Json.Int (n + 1)
                  | Json.String x -> Json.String (x ^ "x")
                  | v -> v
                in
                (k, v) :: (k, v') :: rest
              | [] -> [])
            s );
        (* JSON's four blanks, then two bytes that are not blanks *)
        (3, map2 (splice s) at (oneofl [ " "; "\n\t"; "\r "; "\000"; "\012" ]));
        (1, return (String.concat ", " (String.split_on_char ',' s)));
        (1, return (String.concat " : " (String.split_on_char ':' s)));
        (* an escape for 'a': inside a string it is a letter, outside a fault *)
        (1, map (fun i -> splice s i {|\u0061|}) at);
        ( 3,
          map2
            (fun k by -> subst_digits s (k mod (1 + digit_runs s)) by)
            nat
            (oneofl
               [ "12345678901234567890"; "4611686018427387904"; "-4611686018427387904";
                 "4611686018427387903"; "1e3"; "1E3"; "1e999"; "-1e999"; "1.5"; "-0.25";
                 "1.5.2"; "-"; "007"; "1-2" ]) );
        (1, map (fun tail -> s ^ tail) (oneofl [ " "; "x"; "}"; ","; s ]));
        (1, return (String.make 100_000 '['));
        ( 1,
          return
            ({|{"id":3,"verb":"post_many","items":[{"oid":1,"event":{"k":"create"},"args":|}
            ^ String.make 600 '[' ^ String.make 600 ']' ^ "}]}") );
      ]

(* Frames are post-shaped three times in four, the rest any request;
   up to three mutations apply in turn. *)
let qcheck_payload_decode =
  let frame =
    QCheck.Gen.(
      let* id = nat in
      let+ r =
        frequency
          [ (1, Gen.request);
            (3, oneof [ map (fun it -> P.Post it) Gen.item;
                        map (fun its -> P.Post_many its) (list_size (int_range 1 4) Gen.item) ]) ]
      in
      P.encode_request ~id r)
  in
  let rec mutations k s =
    if k = 0 then QCheck.Gen.return s else QCheck.Gen.(mutate s >>= mutations (k - 1))
  in
  QCheck.Test.make ~count:500 ~name:"decode_payload = generic decode"
    (QCheck.make ~print:(fun s -> Printf.sprintf "%S" s)
       QCheck.Gen.(pair frame (int_bound 3) >>= fun (s, k) -> mutations k s))
    (fun s ->
      (* every prefix too: truncation at every length *)
      let n = String.length s in
      let rec prefixes i =
        i > n
        || (same_decode (String.sub s 0 i)
           || QCheck.Test.fail_reportf "disagree on prefix %d: %S" i (String.sub s 0 i))
           && prefixes (i + 1)
      in
      prefixes (if n > 4096 then n else 0))

(* Hand-picked frames at the edges of the cursor's subset: each must
   decode as the generic path decodes it. *)
let test_payload_edges () =
  let frame ?(id = {|7|}) ?(verb = {|"post_many"|}) ?(key = {|"items"|}) items =
    Printf.sprintf {|{"id":%s,"verb":%s,%s:%s}|} id verb key items
  in
  let item ?(oid = "1") ?(event = {|{"k":"method","q":"after","name":"tick"}|}) args =
    Printf.sprintf {|{"oid":%s,"event":%s,"args":%s}|} oid event args
  in
  let one args = frame ("[" ^ item args ^ "]") in
  let at pattern = item ~event:({|{"k":"time","spec":{"at":|} ^ pattern ^ "}}") "[]" in
  let canonical = one {|[null,true,false,-3,0.5,"s",{"oid":4}]|} in
  Alcotest.(check bool) "the canonical frame is typed" true (P.decode_typed canonical <> None);
  let numbers =
    [ "1e999"; "-1e999"; "1e3"; "1E3"; "1.5e2"; "12345678901234567890"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905"; "007"; "-0";
      "1."; "-.5"; ".5"; "1-2"; "--1"; "-"; "1.5.2"; "0x10"; "+1" ]
  in
  let frames =
    List.map (fun n -> one ("[" ^ n ^ "]")) numbers
    @ List.map (fun n -> frame ~id:n "[]") numbers
    @ List.map (fun n -> frame ("[" ^ item ~oid:n "[]" ^ "]")) numbers
    @ [
        canonical;
        canonical ^ " ";
        canonical ^ "x";
        canonical ^ canonical;
        " \n\t\r" ^ canonical;
        "\000" ^ canonical;
        "\012" ^ canonical;
        one "[ 1 , 2 ]";
        one "[1\000]";
        one "[1,]";
        one "[,1]";
        one {|[{"oid":1,"oid":2}]|};
        one {|[{"oid":1,"x":2}]|};
        one {|[{"float":"nan"}]|};
        one {|[{"float":"inf"}]|};
        one {|["a\"b"]|};
        one {|["\u0061"]|};
        one {|["a\/b"]|};
        one "[nul]";
        one "[truex]";
        one "[[1]]";
        frame ("[" ^ item ~event:{|{"k":"method","q":"after","name":"t\u0069ck"}|} "[]" ^ "]");
        frame ("[" ^ item ~event:{|{"k":"method","name":"tick","q":"after"}|} "[]" ^ "]");
        frame ("[" ^ item ~event:{|{"k":"create","q":"after"}|} "[]" ^ "]");
        frame ("[" ^ item ~event:{|{"k":"method","q":"during","name":"x"}|} "[]" ^ "]");
        frame ("[" ^ item ~event:{|{"k":"nope"}|} "[]" ^ "]");
        frame ("[" ^ item ~event:{|{"k":"time","spec":{"every":5,"after":6}}|} "[]" ^ "]");
        frame ("[" ^ at {|{"year":2024,"hr":9}|} ^ "]");
        frame ("[" ^ at {|{"hr":9,"year":2024}|} ^ "]");
        frame ("[" ^ at {|{"hr":9,"hr":10}|} ^ "]");
        frame ("[" ^ at {|{"hr":9.5}|} ^ "]");
        frame ("[" ^ at "{}" ^ "]");
        frame ("[" ^ at "5" ^ "]");
        frame {|[{"oid":1,"event":{"k":"create"}}]|};
        frame {|[{"oid":1,"event":{"k":"create"},"args":null}]|};
        frame {|[{"event":{"k":"create"},"oid":1,"args":[]}]|};
        frame ~key:{|"item"|} "[]";
        frame ~verb:{|"post"|} ("[" ^ item "[]" ^ "]");
        frame ~verb:{|"post"|} ~key:{|"item"|} (item "[]");
        frame ~verb:{|"call"|} "[]";
        {|{"verb":"post_many","id":7,"items":[]}|};
        {|{"id":7,"id":8,"verb":"post_many","items":[]}|};
        String.make 100_000 '[';
      ]
  in
  List.iter
    (fun s ->
      if not (same_decode s) then Alcotest.failf "typed and generic disagree on %S" s)
    frames

(* Every value encoding and every basic-event kind takes the typed
   path: floats with a [.] and no exponent, strings without escapes. *)
let qcheck_typed_covers =
  let typed_value =
    QCheck.Gen.(
      oneof
        [
          return Value.Unit;
          map (fun b -> Value.Bool b) bool;
          map (fun n -> Value.Int n) int;
          map2 (fun a b -> Value.Float (float_of_int a /. float_of_int (1 + b)))
            (int_range (-1000) 1000) (int_bound 50);
          (* every byte the printer writes unescaped *)
          map
            (fun s -> Value.String s)
            (string_size
               ~gen:(map (fun c -> if c = '"' || c = '\\' then '_' else c) (char_range ' ' '\255'))
               (int_range 0 12));
          map (fun n -> Value.Oid n) nat;
        ])
  in
  let item =
    QCheck.Gen.(
      let* oid = nat in
      let* event = Gen.basic in
      let+ args = list_size (int_range 0 4) typed_value in
      { P.i_oid = oid; i_event = event; i_args = args })
  in
  QCheck.Test.make ~count:400 ~name:"typed cursor reads every post encoding"
    (QCheck.make
       ~print:(fun (id, r) -> P.encode_request ~id r)
       QCheck.Gen.(
         pair nat
           (oneof
              [ map (fun it -> P.Post it) item;
                map (fun its -> P.Post_many its) (list_size (int_range 0 6) item) ])))
    (fun (id, req) ->
      match P.decode_typed (P.encode_request ~id req) with
      | Some (id', req') -> id' = id && req' = req
      | None -> QCheck.Test.fail_report "the typed cursor fell back")

(* The ingest shape: one event repeated over 100 items decodes to one
   shared [Symbol.basic] value, where the generic path builds 100. *)
let test_typed_shares_event () =
  let items =
    List.init 100 (fun k ->
        { P.i_oid = k; i_event = Symbol.Method (Symbol.After, "sample"); i_args = [ Value.Int k ] })
  in
  let wire = P.encode_request ~id:9 (P.Post_many items) in
  match P.decode_typed wire with
  | Some (9, P.Post_many (first :: _ as decoded)) ->
    Alcotest.(check bool) "items round-trip" true (decoded = items);
    Alcotest.(check bool) "one Symbol.basic for all 100 items" true
      (List.for_all (fun it -> it.P.i_event == first.P.i_event) decoded)
  | Some _ -> Alcotest.fail "decoded to another request"
  | None -> Alcotest.fail "the ingest shape must take the typed path"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_decoder_incremental () =
  let payloads = [ "hello"; "{}"; String.make 1000 'x' ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let d = Frame.decoder () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Frame.feed d (Bytes.make 1 ch) 1;
      let rec pop () =
        match Frame.next d with
        | Ok (Some p) ->
          out := p :: !out;
          pop ()
        | Ok None -> ()
        | Error (`Oversized _) -> Alcotest.fail "spurious oversize"
      in
      pop ())
    stream;
  Alcotest.(check (list string)) "byte-at-a-time framing" payloads (List.rev !out);
  Alcotest.(check int) "no leftover bytes" 0 (Frame.pending d)

let test_decoder_poison () =
  let header_of len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    b
  in
  let d = Frame.decoder ~max:16 () in
  Frame.feed d (header_of 100) 4;
  (match Frame.next d with
  | Error (`Oversized 100) -> ()
  | _ -> Alcotest.fail "oversized length must poison the decoder");
  let d0 = Frame.decoder () in
  Frame.feed d0 (header_of 0) 4;
  match Frame.next d0 with
  | Error (`Oversized 0) -> ()
  | _ -> Alcotest.fail "zero length must poison the decoder"

let test_read_frame_errors () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Frame.encode "abcdefgh" in
  (* a whole frame, then a torn one *)
  ignore (Unix.write_substring a frame 0 (String.length frame));
  ignore (Unix.write_substring a frame 0 (String.length frame - 3));
  Unix.close a;
  (match Frame.read_frame b with
  | Ok "abcdefgh" -> ()
  | _ -> Alcotest.fail "first frame should decode");
  (match Frame.read_frame b with
  | Error (Frame.Truncated 3) -> ()
  | _ -> Alcotest.fail "torn tail should report Truncated 3");
  Unix.close b;
  let c, dd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close c;
  (match Frame.read_frame dd with
  | Error Frame.Eof -> ()
  | _ -> Alcotest.fail "clean close between frames is Eof");
  Unix.close dd

(* ------------------------------------------------------------------ *)
(* Raw socket helpers (frames without the Client's request pairing)    *)
(* ------------------------------------------------------------------ *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_send fd id req = Frame.write_frame fd (P.encode_request ~id req)

let rec raw_write fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    raw_write fd s (off + n) (len - n)
  end

(* The frames of [(id, request)] pairs, back to back, as one string. *)
let frames reqs =
  String.concat "" (List.map (fun (id, req) -> Frame.encode (P.encode_request ~id req)) reqs)

(* Several requests in one [write]: the server reads them in one burst. *)
let raw_send_burst fd reqs =
  let s = frames reqs in
  raw_write fd s 0 (String.length s)

let raw_recv fd =
  match Frame.read_frame fd with
  | Error e ->
    Alcotest.failf "read_frame: %s"
      (match e with
      | Frame.Eof -> "eof"
      | Frame.Truncated n -> Printf.sprintf "truncated (%d owed)" n
      | Frame.Oversized n -> Printf.sprintf "oversized (%d)" n)
  | Ok payload -> (
    match Json.of_string payload with
    | Error msg -> Alcotest.failf "bad JSON from server: %s" msg
    | Ok j -> (
      match P.decode_msg j with
      | Ok m -> m
      | Error msg -> Alcotest.failf "bad message from server: %s" msg))

(* ------------------------------------------------------------------ *)
(* Wire equivalence against the in-process oracle                      *)
(* ------------------------------------------------------------------ *)

(* Two concurrent wire clients post interleaved batches; the in-process
   oracle replays the server's merged order (recovered from the §9
   object history) batch by batch (batch boundaries recovered from the
   replies). The firing streams must agree event for event — including
   transaction ids — and the state fingerprints must be equal bytes.
   Shared batches come from the read-burst shape: each client writes
   its requests in one go, so they are read in one burst and flushed
   as one batch, and one frame is split across two writes. *)
let test_wire_equivalence () =
  let db_s = D.create_db () in
  ignore (Odl.load_schema db_s schema_rich);
  D.enable_history db_s ~limit:100_000;
  let db_o = D.create_db () in
  ignore (Odl.load_schema db_o schema_rich);
  D.enable_history db_o ~limit:100_000;
  let oracle_firings = ref [] in
  ignore
    (D.subscribe_firings db_o (fun f -> oracle_firings := f :: !oracle_firings));
  let wire_firings =
    with_server ~db:db_s (fun _srv port ->
        let sub = Client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Client.close sub)
          (fun () ->
            let oid = jint "oid" (ok (Client.request sub (P.Create ("probe", [])))) in
            ignore (ok (Client.request sub (P.Subscribe P.Block)));
            let oid_o =
              expect_ok (D.with_txn db_o (fun _ -> D.create db_o "probe" []))
            in
            Alcotest.(check int) "oids line up" oid oid_o;
            (* two raw clients, requests written without awaiting
               replies: a's three in one write, b's split mid-frame
               across two writes *)
            let a = raw_connect port and b = raw_connect port in
            let it = tick_item oid in
            raw_send_burst a
              [
                (1, P.Post_many [ it 9; it 1 ]);
                (2, P.Post (it 2));
                (3, P.Post (it 6));
              ];
            let sb =
              frames
                [
                  (1, P.Post_many [ it 7 ]);
                  (2, P.Post_many [ it 8; it 8; it 1 ]);
                  (3, P.Post (it 3));
                ]
            in
            let cut = String.length sb - 5 in
            raw_write b sb 0 cut;
            Thread.delay 0.01;
            raw_write b sb cut (String.length sb - cut);
            let replies fd n =
              List.init n (fun _ ->
                  match raw_recv fd with
                  | P.Reply (_, P.R_ok j) -> j
                  | P.Reply (_, P.R_error (c, m)) ->
                    Alcotest.failf "post failed [%s]: %s" c m
                  | _ -> Alcotest.fail "poster got a stream message")
            in
            let ra = replies a 3 in
            let rb = replies b 3 in
            Unix.close a;
            Unix.close b;
            (* batch sizes and contributing requests by serial, from the
               replies *)
            let tally = Hashtbl.create 8 and contributors = Hashtbl.create 8 in
            let bump tbl k n =
              Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
            in
            List.iter
              (fun j ->
                let serial = jint "batch" j in
                bump tally serial (jint "queued" j);
                bump contributors serial 1)
              (ra @ rb);
            Alcotest.(check bool)
              "some batch has more than one contributor" true
              (Hashtbl.fold (fun _ n acc -> acc || n > 1) contributors false);
            let serials =
              List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tally [])
            in
            (* merged arrival order, from the server's object history *)
            let merged =
              List.filter_map
                (fun r ->
                  match r.History.h_occurrence.Symbol.basic with
                  | Symbol.Method (Symbol.After, "tick") as basic ->
                    Some (oid, basic, r.History.h_occurrence.Symbol.args)
                  | _ -> None)
                (D.object_history db_s oid)
            in
            Alcotest.(check int) "history saw every post" 9 (List.length merged);
            (* replay per batch on the oracle *)
            let rest = ref merged in
            List.iter
              (fun serial ->
                let n = Hashtbl.find tally serial in
                let rec take k acc l =
                  if k = 0 then (List.rev acc, l)
                  else
                    match l with
                    | [] -> Alcotest.fail "history shorter than batches"
                    | x :: tl -> take (k - 1) (x :: acc) tl
                in
                let batch, tl = take n [] !rest in
                rest := tl;
                expect_ok
                  (D.with_txn db_o (fun _ -> ignore (D.post_many db_o batch))))
              serials;
            Alcotest.(check int) "batches covered the history" 0 (List.length !rest);
            drain_firings sub))
  in
  let oracle = List.rev !oracle_firings in
  Alcotest.(check int)
    "firing counts agree" (List.length oracle) (List.length wire_firings);
  Alcotest.(check bool) "some firings happened" true (List.length oracle > 0);
  List.iter2
    (fun (w : P.firing) (o : D.firing) ->
      Alcotest.(check string) "trigger" o.D.f_trigger w.P.fg_trigger;
      Alcotest.(check string) "class" o.D.f_class w.P.fg_class;
      Alcotest.(check int) "oid" o.D.f_oid w.P.fg_oid;
      Alcotest.(check int64) "at" o.D.f_at w.P.fg_at;
      Alcotest.(check int) "txn" o.D.f_txn w.P.fg_txn)
    wire_firings oracle;
  Alcotest.(check bool)
    "state fingerprints equal" true
    (D.image_bytes db_s = D.image_bytes db_o)

(* ------------------------------------------------------------------ *)
(* Read-burst batching                                                 *)
(* ------------------------------------------------------------------ *)

let server_batches c =
  match Json.member "server" (ok (Client.request c P.Status)) with
  | Some server -> jint "batches" server
  | None -> Alcotest.fail "status carried no server object"

(* [n] successful post replies, in arrival order, as (id, batch serial,
   queued) triples. *)
let post_replies fd n =
  List.init n (fun _ ->
      match raw_recv fd with
      | P.Reply (id, P.R_ok j) -> (id, jint "batch" j, jint "queued" j)
      | P.Reply (_, P.R_error (c, m)) -> Alcotest.failf "post failed [%s]: %s" c m
      | _ -> Alcotest.fail "poster got a stream message")

(* [n] posts in one write are read in one burst and flushed in arrival
   order, at most [cap] events per batch: the replies come back in
   request order, reply i carries serial [before + 1 + i/cap], and
   [batches] grows by ceil(n/cap). With [cap >= n] the whole burst is
   one batch. *)
let burst_case ~n ~cap () =
  let db = D.create_db () in
  with_server ~max_batch:cap ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let before = server_batches c in
          let fd = raw_connect port in
          raw_send_burst fd (List.init n (fun i -> (i + 1, P.Post (tick_item oid i))));
          let rs = post_replies fd n in
          Unix.close fd;
          Alcotest.(check (list int))
            "replies in arrival order" (List.init n (fun i -> i + 1))
            (List.map (fun (id, _, _) -> id) rs);
          Alcotest.(check (list int))
            "serials in arrival order, cap events each"
            (List.init n (fun i -> before + 1 + (i / cap)))
            (List.map (fun (_, s, _) -> s) rs);
          Alcotest.(check int)
            "ceil(n/cap) batches" (before + ((n + cap - 1) / cap)) (server_batches c)))

(* A lone post on an idle server is answered in the turn that read it,
   well inside a 1 s receive timeout. *)
let test_lone_post_answered () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let fd = raw_connect port in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
          raw_send fd 1 (P.Post (tick_item oid 9));
          (match post_replies fd 1 with
          | [ (1, _, 1) ] -> ()
          | _ -> Alcotest.fail "expected the reply to request 1, one event queued"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "lone post not answered within 1 s");
          Unix.close fd))

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)
(* ------------------------------------------------------------------ *)

(* One big batch floods the outbox within a single flush, where no
   writes can interleave: with bound 4, exactly 4 firings queue and 96
   drop; the lagged count rides ahead of the next firing that finds
   room. *)
let test_drop_policy () =
  let db = D.create_db () in
  with_server ~outbox:4 ~db (fun srv port ->
      let sub = Client.connect ~port () in
      let poster = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.close sub;
          Client.close poster)
        (fun () ->
          let oid = setup_probe sub in
          ignore (ok (Client.request sub (P.Subscribe P.Drop)));
          let j =
            ok
              (Client.request poster
                 (P.Post_many (List.init 100 (fun _ -> tick_item oid 9))))
          in
          Alcotest.(check int) "100 firings in the batch" 100 (jint "firings" j);
          ignore (ok (Client.request poster (P.Post (tick_item oid 9))));
          let seen = drain_firings sub in
          Alcotest.(check int) "bound + reopened firing delivered" 5 (List.length seen);
          Alcotest.(check int) "lagged count reported" 96 (Client.lagged_total sub);
          Alcotest.(check int) "server counted the drops" 96 (Server.stats srv).Server.s_dropped))

(* Block policy is lossless even when the stream far exceeds both the
   outbox bound and the socket buffer: the server stalls inside the
   posting pipeline until this reader catches up. The poster must live
   on its own thread — its reply only arrives once the subscriber
   drains. *)
let test_block_policy () =
  let db = D.create_db () in
  with_server ~outbox:4 ~db (fun srv port ->
      let sub = Client.connect ~port () in
      let poster = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.close sub;
          Client.close poster)
        (fun () ->
          let total = 2000 in
          let oid = setup_probe sub in
          ignore (ok (Client.request sub (P.Subscribe P.Block)));
          let fired = ref (-1) in
          let th =
            Thread.create
              (fun () ->
                let j =
                  ok
                    (Client.request poster
                       (P.Post_many (List.init total (fun _ -> tick_item oid 9))))
                in
                fired := jint "firings" j)
              ()
          in
          let seen = List.length (drain_firings sub) in
          Thread.join th;
          Alcotest.(check int) "every firing delivered" total seen;
          Alcotest.(check int) "batch reply confirms" total !fired;
          Alcotest.(check int) "nothing lagged" 0 (Client.lagged_total sub);
          Alcotest.(check int) "nothing dropped" 0 (Server.stats srv).Server.s_dropped))

(* ------------------------------------------------------------------ *)
(* Teardown hygiene                                                    *)
(* ------------------------------------------------------------------ *)

let await ?(timeout_s = 5.0) msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_disconnect_releases_everything () =
  let db = D.create_db () in
  with_server ~db (fun srv port ->
      let c0 = Client.connect ~port () in
      let oid = setup_probe c0 in
      (* warm the detection state: the first firing legitimately retains
         the trigger's collected §9 binding, which is state growth from
         posting, not from the connection *)
      ignore (ok (Client.request c0 (P.Post (tick_item oid 9))));
      Client.close c0;
      await "first client swept" (fun () -> (Server.stats srv).Server.s_connections = 0);
      let base_subs = D.subscriber_count db in
      let base_bytes = (D.stats db).D.state_bytes in
      for _ = 1 to 10 do
        let c = Client.connect ~port () in
        ignore (ok (Client.request c (P.Subscribe P.Block)));
        ignore (ok (Client.request c (P.Post (tick_item oid 9))));
        (match Client.wait_firing c with
        | Some _ -> ()
        | None -> Alcotest.fail "subscriber saw no firing");
        ignore (ok (Client.request c P.Tbegin));
        Client.close c;
        await "subscription released on disconnect" (fun () ->
            D.subscriber_count db = base_subs)
      done;
      Alcotest.(check int) "subscriber count flat" base_subs (D.subscriber_count db);
      Alcotest.(check int)
        "state bytes flat" base_bytes (D.stats db).D.state_bytes)

(* ------------------------------------------------------------------ *)
(* Corruption over the wire                                            *)
(* ------------------------------------------------------------------ *)

let test_wire_corruption () =
  let db = D.create_db () in
  with_server ~max_frame:1024 ~db (fun _srv port ->
      (* unparseable payload: an error reply, and the connection lives *)
      let fd = raw_connect port in
      Frame.write_frame fd "this is not json";
      (match raw_recv fd with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "parse error code" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error reply");
      (* well-formed JSON, bad verb: bad_request, with the id echoed *)
      Frame.write_frame fd {|{"id":5,"verb":"frobnicate"}|};
      (match raw_recv fd with
      | P.Reply (5, P.R_error (code, _)) ->
        Alcotest.(check string) "bad_request code" P.err_bad_request code
      | _ -> Alcotest.fail "expected a bad_request reply for id 5");
      (* a numeral that overflows to infinity: parse error, and the
         connection lives (this used to raise at re-encode inside the
         error path and kill the server) *)
      Frame.write_frame fd {|{"id":6,"verb":"post","oid":0,"event":{"kind":"create"},"args":[[1e999]]}|};
      (match raw_recv fd with
      | P.Reply (_, P.R_error (code, _)) ->
        Alcotest.(check string) "overflow numeral is a parse error" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error for 1e999");
      (* a nesting bomb inside the frame limit: parse error, not a
         Stack_overflow through the select loop *)
      Frame.write_frame fd (String.make 600 '[');
      (match raw_recv fd with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "nesting bomb is a parse error" P.err_parse code
      | _ -> Alcotest.fail "expected a parse error for the nesting bomb");
      raw_send fd 7 P.Status;
      (match raw_recv fd with
      | P.Reply (7, P.R_ok _) -> ()
      | _ -> Alcotest.fail "connection must survive payload-level garbage");
      Unix.close fd;
      (* an oversized declared length is unrecoverable: error, then the
         server hangs up *)
      let fd2 = raw_connect port in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 5000l;
      ignore (Unix.write fd2 hdr 0 4);
      (match raw_recv fd2 with
      | P.Reply (-1, P.R_error (code, _)) ->
        Alcotest.(check string) "oversize reported as parse" P.err_parse code
      | _ -> Alcotest.fail "expected an oversize error reply");
      (match Frame.read_frame fd2 with
      | Error Frame.Eof -> ()
      | _ -> Alcotest.fail "server must close after an oversized frame");
      Unix.close fd2;
      (* a peer dying mid-frame must not hurt anyone else *)
      let fd3 = raw_connect port in
      let f = Frame.encode (P.encode_request ~id:1 P.Status) in
      ignore (Unix.write_substring fd3 f 0 (String.length f - 3));
      Unix.close fd3;
      let c = Client.connect ~port () in
      ignore (ok (Client.request c P.Status));
      Client.close c)

(* A trigger whose action passes the collected event parameter into an
   int-typed method: posting a string arg makes the action itself blow
   up mid-[post_many], after decode succeeded. *)
let schema_typed =
  {|
  class tprobe {
    int acc = 0;
  public:
    tprobe() { activate TT(); }
    update void tick(int q) { }
    update void bump(int x) { acc = acc + x; }
    read int acc_of() { return acc; }
  trigger:
    TT() : perpetual after tick(q) ==> bump(q);
  };
  |}

(* A failing trigger action on the transaction-free path runs inside
   flush_batch, not inside a per-request handler: the contributing
   client must get an error reply (not silence) and the server must
   keep serving — previously the exception escaped the select loop and
   killed the process. *)
let test_action_failure_survives () =
  let db = D.create_db () in
  with_server ~db (fun srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (ok (Client.request c (P.Schema schema_typed)));
          let oid = jint "oid" (ok (Client.request c (P.Create ("tprobe", [])))) in
          let tick v =
            {
              P.i_oid = oid;
              i_event = Symbol.Method (Symbol.After, "tick");
              i_args = [ v ];
            }
          in
          (match Client.request c (P.Post (tick (Value.String "boom"))) with
          | Error (code, _) ->
            Alcotest.(check string) "action failure reported" P.err_ode code
          | Ok j -> Alcotest.failf "bad-typed post accepted: %s" (Json.to_string j));
          (* the failed batch answered its waiter and the loop lives:
             a well-typed post still goes through and acts *)
          let j = ok (Client.request c (P.Post (tick (Value.Int 4)))) in
          Alcotest.(check int) "clean post fires" 1 (jint "firings" j);
          Alcotest.(check int)
            "action applied" 4
            (jint "result" (ok (Client.request c (P.Call (oid, "acc_of", [])))));
          Alcotest.(check int)
            "server still reachable" 1 (Server.stats srv).Server.s_connections))

(* One mapping turns database exceptions into wire errors. Pin its code
   and message for a lock conflict (two connections' open transactions
   updating one object) and a type error (a native trigger action adding
   a string to an int), each on the coalesced path and on the
   open-transaction path; a lock conflict also aborts the open
   transaction it hit. *)
let test_error_mapping () =
  let db = D.create_db () in
  let b = D.define_class "acct" in
  let b = D.field b "n" (Value.Int 0) in
  let b = D.method_ b ~kind:D.Updating "tick" (fun _ _ _ -> Value.Unit) in
  let b =
    D.method_ b ~kind:D.Updating "add" (fun db oid args ->
        D.set_field db oid "n" (Value.add (D.get_field db oid "n") (List.hd args));
        Value.Unit)
  in
  let b =
    D.trigger_str b ~perpetual:true "T" ~event:"after tick" ~action:(fun db ctx ->
        ignore (D.call db ctx.D.fc_oid "add" ctx.D.fc_occurrence.Symbol.args))
  in
  D.register_class db b;
  let oid =
    expect_ok
      (D.with_txn db (fun _ ->
           let oid = D.create db "acct" [] in
           D.activate db oid "T" [];
           oid))
  in
  with_server ~db (fun _srv port ->
      let a = Client.connect ~port () and b = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          let tick v =
            let event = Symbol.Method (Symbol.After, "tick") in
            P.Post { P.i_oid = oid; i_event = event; i_args = [ v ] }
          in
          let expect what c req err =
            match Client.request c req with
            | Error (code, msg) ->
              Alcotest.(check (pair string string)) what err (code, msg)
            | Ok j -> Alcotest.failf "%s: accepted with %s" what (Json.to_string j)
          in
          let type_error = (P.err_ode, "type error: add: unexpected int, string") in
          let conflict = (P.err_ode, Printf.sprintf "lock conflict on oid %d" oid) in
          expect "type error, coalesced" b (tick (Value.String "boom")) type_error;
          ignore (ok (Client.request b P.Tbegin));
          expect "type error, open txn" b (tick (Value.String "boom")) type_error;
          ignore (ok (Client.request b P.Tabort));
          (* [a] holds the object's write lock until it aborts *)
          let add q = P.Call (oid, "add", [ Value.Int q ]) in
          ignore (ok (Client.request a P.Tbegin));
          ignore (ok (Client.request a (add 1)));
          ignore (ok (Client.request b P.Tbegin));
          expect "lock conflict, open txn" b (add 2) conflict;
          expect "the conflict aborted b's txn" b P.Tcommit
            (P.err_state, "no open transaction");
          expect "lock conflict, coalesced" b (tick (Value.Int 3)) conflict;
          ignore (ok (Client.request a P.Tabort))))

(* The host argument accepts names, not just dotted quads. *)
let test_hostname_connect () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~host:"localhost" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> ignore (ok (Client.request c P.Status))));
  match Client.resolve_host "no-such-host.invalid" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bogus hostname must raise a descriptive Failure"

(* ------------------------------------------------------------------ *)
(* Transactions, clock and save over the wire                          *)
(* ------------------------------------------------------------------ *)

let test_wire_txn () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let marks () =
            jint "result" (ok (Client.request c (P.Call (oid, "marks_of", []))))
          in
          Alcotest.(check int) "clean start" 0 (marks ());
          (* a posted trigger action inside an explicit txn, then undo *)
          ignore (ok (Client.request c P.Tbegin));
          let j = ok (Client.request c (P.Post (tick_item oid 9))) in
          Alcotest.(check int) "in-txn post fired" 1 (jint "firings" j);
          Alcotest.(check int) "action visible inside txn" 1 (marks ());
          ignore (ok (Client.request c P.Tabort));
          Alcotest.(check int) "abort undid the action" 0 (marks ());
          (* same again, committed *)
          ignore (ok (Client.request c P.Tbegin));
          ignore (ok (Client.request c (P.Post (tick_item oid 9))));
          ignore (ok (Client.request c P.Tcommit));
          Alcotest.(check int) "commit kept the action" 1 (marks ());
          (* state errors *)
          (match Client.request c P.Tcommit with
          | Error (code, _) -> Alcotest.(check string) "commit w/o txn" P.err_state code
          | Ok _ -> Alcotest.fail "tcommit without a txn must fail");
          ignore (ok (Client.request c P.Tbegin));
          (match Client.request c P.Tbegin with
          | Error (code, _) -> Alcotest.(check string) "nested tbegin" P.err_state code
          | Ok _ -> Alcotest.fail "nested tbegin must fail");
          ignore (ok (Client.request c P.Tabort));
          (* clock and save *)
          let j = ok (Client.request c (P.Advance_clock 250L)) in
          Alcotest.(check int) "clock advanced" 250 (jint "now" j);
          let path = Filename.temp_file "odes-test" ".ode" in
          ignore (ok (Client.request c (P.Save path)));
          Alcotest.(check bool)
            "save wrote an image" true
            ((Unix.stat path).Unix.st_size > 0);
          Sys.remove path))

(* ------------------------------------------------------------------ *)
(* Durability of a served database                                     *)
(* ------------------------------------------------------------------ *)

(* A WAL-backed database under a one-hour group-commit window: nothing
   reaches the log unless the server syncs it. *)
let wal_db () =
  let dir = Filename.temp_file "odes-wal" "" in
  Sys.remove dir;
  let cfg =
    Ode_odb.Wal.config ~flush_ms:3_600_000 ~sync_on_flush:false
      ~snapshot_every:0 dir
  in
  (D.create_db ~durability:(`Wal cfg) (), dir)

let logged_frames dir =
  List.length
    (Ode_odb.Wal.scan_file (Ode_odb.Wal.wal_path dir 0)).Ode_odb.Wal.frames

(* A commit acknowledged over the wire, then the shutdown verb: the
   orderly shutdown closes the durability backend, so the log holds the
   commit and a fresh database recovers it. *)
let test_shutdown_flushes_log () =
  let db, dir = wal_db () in
  let oid =
    with_server ~db (fun _srv port ->
        let c = Client.connect ~port () in
        let oid = setup_probe c in
        ignore (ok (Client.request c (P.Call (oid, "tick", [ Value.Int 9 ]))));
        ignore (ok (Client.request c P.Shutdown));
        Client.close c;
        oid)
  in
  Alcotest.(check bool) "the log holds the commits" true (logged_frames dir >= 1);
  let rdb = D.create_db ~durability:(`Wal (Ode_odb.Wal.config dir)) () in
  ignore (Odl.load_schema rdb schema_simple);
  D.recover rdb;
  Alcotest.(check bool) "recovery sees the object" true (D.exists rdb oid);
  Alcotest.(check bool) "with its committed state" true
    (D.get_field rdb oid "n" = Value.Int 9);
  D.close_durability rdb

(* An idle server syncs the log when its select times out: the commit
   is on disk with the connection still open and no shutdown. *)
let test_idle_flushes_log () =
  let db, dir = wal_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (setup_probe c);
          Unix.sleepf 0.5;
          Alcotest.(check bool) "the commit reached the log while idle" true
            (logged_frames dir >= 1)))

(* ------------------------------------------------------------------ *)
(* The Config facade                                                   *)
(* ------------------------------------------------------------------ *)

let with_env key v f =
  let old = Sys.getenv_opt key in
  Unix.putenv key v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv key (Option.value old ~default:""))
    f

let test_config_of_env () =
  with_env "ODE_DURABILITY" "" (fun () ->
      Alcotest.(check bool)
        "empty means unset" true
        ((D.Config.of_env ()).D.Config.durability = `Image));
  with_env "ODE_DURABILITY" "wal:-1" (fun () ->
      Alcotest.check_raises "negative flush window rejected"
        (D.Ode_error "ODE_DURABILITY: bad flush window in \"wal:-1\"") (fun () ->
          ignore (D.Config.of_env ())));
  with_env "ODE_DURABILITY" "paper-tape" (fun () ->
      Alcotest.check_raises "unknown durability rejected"
        (D.Ode_error "ODE_DURABILITY: unknown backend \"paper-tape\"") (fun () ->
          ignore (D.Config.of_env ())));
  (* the documented [create_db] bounds, each named in the error *)
  Alcotest.check_raises "zero trace capacity rejected"
    (D.Ode_error "trace_capacity must be >= 1 (got 0)") (fun () ->
      ignore
        (D.create_db ~config:{ D.Config.default with D.Config.trace_capacity = 0 } ()));
  Alcotest.check_raises "zero tcomplete rounds rejected"
    (D.Ode_error "max_tcomplete_rounds must be >= 1 (got 0)") (fun () ->
      ignore
        (D.create_db
           ~config:
             { D.Config.default with D.Config.max_tcomplete_rounds = 0 }
           ()))

(* Out-of-range serve knobs are refused by [Server.create], naming the
   field — before anything binds. A zero outbox bound would hang the
   server on its first firing to a block-policy subscriber. *)
let test_serve_bounds () =
  let db = D.create_db ~config:D.Config.default () in
  let base = mk_config () in
  let s = base.D.Config.serve in
  List.iter
    (fun (serve, expected) ->
      match Server.create ~db ~config:{ base with D.Config.serve } () with
      | srv ->
        Server.stop srv;
        Alcotest.failf "accepted out-of-range serve config (%s)" expected
      | exception D.Ode_error msg -> Alcotest.(check string) "field named" expected msg)
    [
      ({ s with D.Config.outbox_bound = 0 }, "serve.outbox_bound must be >= 1 (got 0)");
      ({ s with D.Config.max_batch = 0 }, "serve.max_batch must be >= 1 (got 0)");
      ({ s with D.Config.max_frame_bytes = 0 }, "serve.max_frame_bytes must be >= 1 (got 0)");
    ]

(* An empty [post_many] is a true no-op: answered on the spot. Enrolled
   as a zero-item waiter it would go unanswered (the flush runs only
   when [b_n > 0]); routed through the flush it would spend a server
   transaction — and a WAL batch record — on posting nothing. The
   witness is the batch count, which the no-op leaves unchanged. *)
let test_empty_post_many () =
  let db = D.create_db () in
  with_server ~db (fun _srv port ->
      let c = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oid = setup_probe c in
          let batches () = server_batches c in
          let before = batches () in
          let r = ok (Client.request c (P.Post_many [])) in
          Alcotest.(check int) "joined no batch" 0 (jint "batch" r);
          Alcotest.(check int) "queued nothing" 0 (jint "queued" r);
          Alcotest.(check int) "fired nothing" 0 (jint "firings" r);
          Alcotest.(check int) "consumed no batch serial" before (batches ());
          (* the coalescer still works after the no-op *)
          let r = ok (Client.request c (P.Post (tick_item oid 9))) in
          Alcotest.(check int) "later posts still flush" 1 (jint "queued" r)))

(* Drive the same scenario through a db built four ways; the canonical
   fingerprint must not notice how the db was configured into the same
   logical state. *)
let test_config_equivalence () =
  let drive db =
    ignore (Odl.load_schema db schema_simple);
    let oid = expect_ok (D.with_txn db (fun _ -> D.create db "probe" [])) in
    expect_ok
      (D.with_txn db (fun _ ->
           ignore
             (D.post_many db
                (List.init 7 (fun i ->
                     (oid, Symbol.Method (Symbol.After, "tick"), [ Value.Int i ]))))));
    D.image_bytes db
  in
  let bare = drive (D.create_db ()) in
  let via_env_config = drive (D.create_db ~config:(D.Config.of_env ()) ()) in
  let via_default = drive (D.create_db ~config:D.Config.default ()) in
  Alcotest.(check bool)
    "create_db () = create_db ~config:(of_env ())" true (bare = via_env_config);
  Alcotest.(check bool)
    "explicit default config converges" true (bare = via_default)

let test_config_overrides () =
  let c = { D.Config.default with D.Config.start_time = 5L } in
  let db = D.create_db ~config:c () in
  Alcotest.(check int64) "config start_time" 5L (D.now db);
  let db2 = D.create_db ~config:c ~start_time:9L () in
  Alcotest.(check int64) "optional shim wins over config" 9L (D.now db2);
  let summary = D.config_summary (D.create_db ~config:D.Config.default ()) in
  let contains needle =
    let nl = String.length needle and hl = String.length summary in
    let rec go i = i + nl <= hl && (String.sub summary i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %s" needle)
        true (contains needle))
    [ "durability=image"; "obs=off" ];
  Alcotest.(check bool) "no store, domain or partition knobs" false
    (contains "backend=" || contains "domain" || contains "partitions=")

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "non-finite float encoding" `Quick test_nonfinite_floats;
    Alcotest.test_case "json rejects overflow and nesting bombs" `Quick
      test_json_limits;
    Alcotest.test_case "post_many items share one event" `Quick test_typed_shares_event;
    Alcotest.test_case "payloads at the typed subset's edges" `Quick test_payload_edges;
    Alcotest.test_case "incremental frame decoding" `Quick test_decoder_incremental;
    Alcotest.test_case "bad lengths poison the decoder" `Quick test_decoder_poison;
    Alcotest.test_case "blocking reads report torn frames" `Quick test_read_frame_errors;
    Alcotest.test_case "wire run = in-process oracle" `Quick test_wire_equivalence;
    Alcotest.test_case "one read burst is one batch" `Quick
      (burst_case ~n:5 ~cap:D.Config.default_serve.D.Config.max_batch);
    Alcotest.test_case "a burst over max_batch splits at the cap" `Quick
      (burst_case ~n:10 ~cap:4);
    Alcotest.test_case "a lone post is answered without a timer" `Quick
      test_lone_post_answered;
    Alcotest.test_case "drop policy counts what it sheds" `Quick test_drop_policy;
    Alcotest.test_case "block policy is lossless" `Quick test_block_policy;
    Alcotest.test_case "disconnect releases subscription, txn, outbox" `Quick
      test_disconnect_releases_everything;
    Alcotest.test_case "corrupt frames: survive or hang up per contract" `Quick
      test_wire_corruption;
    Alcotest.test_case "failing trigger action: error reply, server lives" `Quick
      test_action_failure_survives;
    Alcotest.test_case "database errors map to pinned wire errors" `Quick
      test_error_mapping;
    Alcotest.test_case "hostnames resolve" `Quick test_hostname_connect;
    Alcotest.test_case "transactions, clock and save over the wire" `Quick
      test_wire_txn;
    Alcotest.test_case "shutdown puts acknowledged commits on disk" `Quick
      test_shutdown_flushes_log;
    Alcotest.test_case "an idle server syncs its log" `Quick
      test_idle_flushes_log;
    Alcotest.test_case "empty post_many is an immediate no-op" `Quick
      test_empty_post_many;
    Alcotest.test_case "Config.of_env parses and rejects" `Quick test_config_of_env;
    Alcotest.test_case "out-of-range serve knobs are refused" `Quick
      test_serve_bounds;
    Alcotest.test_case "config paths converge bit-identically" `Quick
      test_config_equivalence;
    Alcotest.test_case "optional shims override config" `Quick test_config_overrides;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_request_roundtrip; qcheck_msg_roundtrip; qcheck_payload_decode;
        qcheck_typed_covers ]
