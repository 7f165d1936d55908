(* odec — inspect O++ event specifications from the command line.

     odec parse   'after withdraw(i, q) && q > 100'
     odec compile 'after deposit; before withdraw; after withdraw'
     odec dot     'fa(after a, after b, after c)' > fa.dot
     odec run     'after deposit; after withdraw' \
                  -e 'after deposit' -e 'after withdraw'

   Events for [run] are given with repeated [-e]; variables referenced by
   masks with [-v name=value]. *)

open Ode_event
module P = Ode_lang.Parser
module Value = Ode_base.Value

let parse_expr src =
  match P.event_of_string src with
  | Ok e -> Ok e
  | Error msg -> Error (`Msg ("parse error at " ^ msg))

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let cmd_parse expr =
  Fmt.pr "%s@." (Expr.to_string expr);
  let leaves = Expr.logical_events expr in
  Fmt.pr "@.%d logical events:@." (List.length leaves);
  List.iter (fun l -> Fmt.pr "  %a@." Expr.pp (Expr.Leaf l)) leaves;
  Ok ()

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compiled_of expr =
  let alphabet, lowered, masks = Rewrite.build expr in
  let compiled = Compile.compile ~m:(Rewrite.n_symbols alphabet) lowered in
  (alphabet, lowered, masks, compiled)

let cmd_compile expr =
  match compiled_of expr with
  | exception Invalid_argument msg -> Error (`Msg msg)
  | alphabet, lowered, masks, compiled ->
    Fmt.pr "%a@." Rewrite.pp alphabet;
    Fmt.pr "lowered: %a@." Lowered.pp lowered;
    if Array.length masks > 0 then begin
      Fmt.pr "composite masks:@.";
      Array.iteri (fun i m -> Fmt.pr "  m%d: %a@." i Mask.pp m) masks
    end;
    Array.iteri
      (fun i level ->
        Fmt.pr "level %d automaton (mask m%d): %d states@." i level.Compile.l_mask
          (Dfa.n_states level.Compile.l_dfa))
      compiled.Compile.levels;
    Fmt.pr "top automaton: %d states over %d symbols@."
      (Dfa.n_states compiled.Compile.top_dfa)
      compiled.Compile.top_dfa.Dfa.m;
    Fmt.pr "detection state: %d word(s) per active trigger per object@."
      (Compile.n_state_words compiled);
    Ok ()

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let cmd_dot expr =
  match compiled_of expr with
  | exception Invalid_argument msg -> Error (`Msg msg)
  | alphabet, _, _, compiled ->
    let dfa = compiled.Compile.top_dfa in
    let sym_label s =
      let base = s / (1 lsl Array.length compiled.Compile.top_deps) in
      if base = Rewrite.other alphabet then "other"
      else begin
        let key, bits = alphabet.Rewrite.atoms.(base) in
        Fmt.str "%a/%d" Symbol.pp_basic alphabet.Rewrite.keys.(key) bits
      end
    in
    Fmt.pr "digraph event {@.  rankdir=LR;@.  node [shape=circle];@.";
    Fmt.pr "  start [shape=point];@.  start -> %d;@." dfa.Dfa.start;
    Array.iteri
      (fun s acc -> if acc then Fmt.pr "  %d [shape=doublecircle];@." s)
      dfa.Dfa.accept;
    (* merge parallel edges *)
    Array.iteri
      (fun s row ->
        let targets = Hashtbl.create 8 in
        Array.iteri
          (fun c q ->
            let labels = Option.value (Hashtbl.find_opt targets q) ~default:[] in
            Hashtbl.replace targets q (sym_label c :: labels))
          row;
        Hashtbl.iter
          (fun q labels ->
            Fmt.pr "  %d -> %d [label=\"%s\"];@." s q
              (String.concat "\\n" (List.rev labels)))
          targets)
      dfa.Dfa.delta;
    Fmt.pr "}@.";
    Ok ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* An occurrence is written like a basic event with literal arguments:
   "after withdraw(1, 200)". *)
let parse_occurrence src : (Symbol.occurrence, [ `Msg of string ]) result =
  let module L = Ode_lang.Lexer in
  let err fmt = Format.kasprintf (fun m -> Error (`Msg m)) fmt in
  match L.tokenize src with
  | exception L.Lex_error (msg, _) -> err "bad occurrence %S: %s" src msg
  | toks -> (
    let tok i = if i < Array.length toks then toks.(i).L.tok else L.EOF in
    let qualifier q name =
      match q, name with
      | "after", "create" -> Ok Symbol.Create
      | "before", "delete" -> Ok Symbol.Delete
      | q, "update" -> Ok (Symbol.Update (if q = "before" then Before else After))
      | q, "read" -> Ok (Symbol.Read (if q = "before" then Before else After))
      | q, "access" -> Ok (Symbol.Access (if q = "before" then Before else After))
      | "after", "tbegin" -> Ok Symbol.Tbegin
      | "before", "tcomplete" -> Ok Symbol.Tcomplete
      | "after", "tcommit" -> Ok Symbol.Tcommit
      | q, "tabort" -> Ok (Symbol.Tabort (if q = "before" then Before else After))
      | q, name ->
        Ok (Symbol.Method ((if q = "before" then Before else After), name))
    in
    match tok 0, tok 1 with
    | L.IDENT (("before" | "after") as q), L.IDENT name -> (
      match qualifier q name with
      | Error _ as e -> e
      | Ok basic -> (
        let rec args i acc =
          match tok i with
          | L.RPAREN when tok (i + 1) = L.EOF -> Ok (List.rev acc)
          | L.INT n -> next (i + 1) (Value.Int n :: acc)
          | L.FLOAT f -> next (i + 1) (Value.Float f :: acc)
          | L.STRING str -> next (i + 1) (Value.String str :: acc)
          | L.MINUS -> (
            match tok (i + 1) with
            | L.INT n -> next (i + 2) (Value.Int (-n) :: acc)
            | L.FLOAT f -> next (i + 2) (Value.Float (-.f) :: acc)
            | _ -> err "bad argument in %S" src)
          | _ -> err "bad argument list in %S" src
        and next i acc =
          match tok i with
          | L.COMMA -> args (i + 1) acc
          | L.RPAREN when tok (i + 1) = L.EOF -> Ok (List.rev acc)
          | _ -> err "bad argument list in %S" src
        in
        match tok 2 with
        | L.EOF -> Ok { Symbol.basic; args = []; at = 0L }
        | L.LPAREN -> (
          match args 3 [] with
          | Ok args -> Ok { Symbol.basic; args; at = 0L }
          | Error _ as e -> e)
        | _ -> err "trailing tokens in %S" src))
    | _ -> err "%S is not a basic event occurrence (expected 'before NAME' or 'after NAME')" src)

let parse_binding src =
  match String.index_opt src '=' with
  | None -> Error (`Msg (Printf.sprintf "bad binding %S (expected name=value)" src))
  | Some i ->
    let name = String.sub src 0 i in
    let v = String.sub src (i + 1) (String.length src - i - 1) in
    let value =
      match int_of_string_opt v, float_of_string_opt v, bool_of_string_opt v with
      | Some n, _, _ -> Value.Int n
      | None, Some f, _ -> Value.Float f
      | None, None, Some b -> Value.Bool b
      | None, None, None -> Value.String v
    in
    Ok (name, value)

let cmd_run expr events bindings =
  let ( let* ) = Result.bind in
  let rec collect f acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* v = f x in
      collect f (v :: acc) rest
  in
  let* occurrences = collect parse_occurrence [] events in
  let* bound = collect parse_binding [] bindings in
  match Detector.make expr with
  | exception Invalid_argument msg -> Error (`Msg msg)
  | det ->
    let env =
      {
        Mask.empty_env with
        var = (fun name -> List.assoc_opt name bound);
      }
    in
    let state = Detector.initial det in
    List.iteri
      (fun i occ ->
        let fired = Detector.post det state ~env occ in
        Fmt.pr "%3d  %-40s %s@." (i + 1)
          (Fmt.str "%a" Symbol.pp_occurrence occ)
          (if fired then "<-- event occurs" else ""))
      occurrences;
    Ok ()

(* ------------------------------------------------------------------ *)
(* normalize: simplify, minimal automaton, equivalent regex             *)
(* ------------------------------------------------------------------ *)

let cmd_normalize expr =
  let simplified = Expr.simplify expr in
  Fmt.pr "input:      %s@." (Expr.to_string expr);
  Fmt.pr "simplified: %s@." (Expr.to_string simplified);
  match compiled_of simplified with
  | exception Invalid_argument msg -> Error (`Msg msg)
  | _, _, masks, compiled when Array.length masks > 0 || Array.length compiled.Compile.levels > 0 ->
    Fmt.pr "(composite masks present: no single-automaton regex view)@.";
    Ok ()
  | alphabet, _, _, compiled ->
    let dfa = Dfa.minimize compiled.Compile.top_dfa in
    Fmt.pr "minimal automaton: %d states over %d atoms + other@." (Dfa.n_states dfa)
      (Array.length alphabet.Rewrite.atoms);
    let regex = Regex.of_dfa dfa in
    Fmt.pr "equivalent regex (s<i> = atom i, by Kleene state elimination):@.  %a@."
      Regex.pp regex;
    Ok ()

(* ------------------------------------------------------------------ *)
(* schema: load an ODL file, optionally drive it with a script          *)
(* ------------------------------------------------------------------ *)

let cmd_schema schema_file script_file obs =
  let module D = Ode_odb.Database in
  let module Obs = Ode_obs.Registry in
  let module Trace = Ode_obs.Trace in
  let db = D.create_db () in
  if obs then begin
    D.set_observability db true;
    (* narrate firings as they happen; everything else is summarised at
       the end from the registry *)
    ignore
      (Trace.add_sink
         (Obs.trace (D.observe db))
         (function
           | Trace.Fired { scope; trigger; txn; _ } ->
             Fmt.epr "[obs] fired %a.%s (txn %d)@." Trace.pp_scope scope trigger
               txn
           | _ -> ()))
  end;
  (* a few built-in database functions scripts tend to want *)
  D.register_fun db "now" (fun db _ ->
      Value.Int (Int64.to_int (D.now db)));
  let summarise () =
    if obs then Fmt.pr "-- observability --@.%a@." Obs.pp (D.observe db)
  in
  match
    let classes = Ode_odl.Odl.load_schema_file db schema_file in
    Fmt.pr "loaded %d class(es): %s@." (List.length classes)
      (String.concat ", " classes);
    (match script_file with
    | Some path ->
      Fmt.pr "-- running %s --@." path;
      Ode_odl.Odl.run_script_file db path
    | None -> ());
    let st = Ode_odb.Database.stats db in
    Fmt.pr "-- %d object(s), %d active trigger(s), %d bytes of detection state --@."
      st.Ode_odb.Database.n_objects st.Ode_odb.Database.n_active_triggers
      st.Ode_odb.Database.state_bytes;
    Fmt.pr "-- config: %s --@." (D.config_summary db);
    summarise ()
  with
  | () -> Ok ()
  | exception Ode_odl.Odl.Odl_error (msg, pos) ->
    Error (`Msg (Printf.sprintf "syntax error at offset %d: %s" pos msg))
  | exception Ode_odb.Database.Ode_error msg -> Error (`Msg msg)

(* ------------------------------------------------------------------ *)
(* wal-dump: pretty-print a write-ahead log                            *)
(* ------------------------------------------------------------------ *)

let cmd_wal_dump path =
  let module Wal = Ode_odb.Wal in
  match Ode_base.Codec.of_file path with
  | exception Sys_error msg -> Error (`Msg msg)
  | bytes ->
    let { Wal.frames; damage } = Wal.scan_bytes bytes in
    Fmt.pr "%s: %d bytes, %d complete frame(s)@." path (String.length bytes)
      (List.length frames);
    let offset = ref (String.length Wal.header) in
    List.iteri
      (fun i payload ->
        (match Wal.decode_summary payload with
        | s ->
          Fmt.pr "frame %3d @@ %-8d %4d bytes  crc ok   next_oid=%d next_txn=%d \
                  clock=%Ldms%s@."
            i !offset (String.length payload) s.Wal.s_next_oid s.Wal.s_next_txn
            s.Wal.s_clock_ms
            (match s.Wal.s_timers with
            | Wal.No_timers -> ""
            | Wal.Full n -> Fmt.str " timers=%d" n
            | Wal.Delta { added; removed } ->
              Fmt.str " timers +%d -%d" added removed);
          List.iter
            (function
              | Wal.Upsert { oid; class_name; n_triggers } ->
                Fmt.pr "          upsert oid %d (%s, %d activation(s))@." oid
                  class_name n_triggers
              | Wal.Delete oid -> Fmt.pr "          delete oid %d@." oid)
            s.Wal.s_entries
        | exception Ode_base.Codec.Corrupt msg ->
          (* a CRC-valid frame this module wrote always decodes; flag it
             rather than die so the rest of the log still prints *)
          Fmt.pr "frame %3d @@ %-8d %4d bytes  crc ok   UNDECODABLE: %s@." i
            !offset (String.length payload) msg);
        offset := !offset + 8 + String.length payload)
      frames;
    (match damage with
    | None -> Fmt.pr "log is clean@."
    | Some Wal.Bad_header ->
      Fmt.pr "DAMAGE: bad log header (expected %S)@." Wal.header
    | Some (Wal.Truncated { offset }) ->
      Fmt.pr "DAMAGE: incomplete frame at offset %d (torn tail; %d byte(s) \
              dangle)@."
        offset
        (String.length bytes - offset)
    | Some (Wal.Bad_crc { index; offset }) ->
      Fmt.pr "DAMAGE: CRC mismatch on frame %d at offset %d@." index offset);
    if damage = None then Ok ()
    else Error (`Msg "log damaged (recovery would replay the clean prefix)")

(* ------------------------------------------------------------------ *)
(* client: drive a running odes server over the wire                   *)
(* ------------------------------------------------------------------ *)

module Net = Ode_net

let with_client host port f =
  match Net.Client.connect ~host ~port () with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (`Msg
        (Printf.sprintf "cannot reach %s:%d: %s" host port
           (Unix.error_message err)))
  | c ->
    Fun.protect
      ~finally:(fun () -> Net.Client.close c)
      (fun () ->
        match f c with
        | r -> r
        | exception Net.Client.Protocol_error msg -> Error (`Msg msg)
        | exception End_of_file -> Error (`Msg "server closed the connection"))

let rpc c req =
  match Net.Client.request c req with
  | Ok j -> Ok j
  | Error (code, msg) -> Error (`Msg (Printf.sprintf "server error [%s]: %s" code msg))

let cmd_client_status host port =
  with_client host port (fun c ->
      let ( let* ) = Result.bind in
      let* j = rpc c Net.Protocol.Status in
      Fmt.pr "%s@." (Net.Json.to_string j);
      Ok ())

let cmd_client_schema host port file =
  with_client host port (fun c ->
      let ( let* ) = Result.bind in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let* j = rpc c (Net.Protocol.Schema src) in
      Fmt.pr "%s@." (Net.Json.to_string j);
      Ok ())

let cmd_client_post host port oid occs =
  with_client host port (fun c ->
      let ( let* ) = Result.bind in
      let rec items acc = function
        | [] -> Ok (List.rev acc)
        | src :: rest ->
          let* o = parse_occurrence src in
          items
            ({
               Net.Protocol.i_oid = oid;
               i_event = o.Symbol.basic;
               i_args = o.Symbol.args;
             }
            :: acc)
            rest
      in
      let* items = items [] occs in
      let* j = rpc c (Net.Protocol.Post_many items) in
      Fmt.pr "%s@." (Net.Json.to_string j);
      Ok ())

let cmd_client_shutdown host port =
  with_client host port (fun c ->
      let ( let* ) = Result.bind in
      let* _ = rpc c Net.Protocol.Shutdown in
      Fmt.pr "server stopping@.";
      Ok ())

(* The soak: one subscriber connection watching firings, N poster
   connections hammering a shared schema. Used by the CI server-smoke
   step; exits nonzero unless every post is acknowledged and at least
   one firing arrives at the subscriber. *)
let soak_schema =
  {|
  class meter {
    int total = 0;
    int spikes = 0;
  public:
    meter() { activate Spike(); activate Surge(); }
    update void bump(int q)  { total = total + q; }
    update void mark() { spikes = spikes + 1; }
  trigger:
    Spike() : perpetual after bump(q) && q > 5 ==> mark();
    Surge() : perpetual after bump; after bump; after bump ==> mark();
  };
  |}

let cmd_client_soak host port clients events =
  with_client host port (fun sub ->
      let ( let* ) = Result.bind in
      let* _ = rpc sub (Net.Protocol.Schema soak_schema) in
      let* created = rpc sub (Net.Protocol.Create ("meter", [])) in
      let* oid =
        match Net.Json.member "oid" created with
        | Some (Net.Json.Int oid) -> Ok oid
        | _ -> Error (`Msg "create reply carried no oid")
      in
      let* _ = rpc sub (Net.Protocol.Subscribe Net.Protocol.Block) in
      let failures = Atomic.make 0 in
      let posted = Atomic.make 0 in
      let t0 = Unix.gettimeofday () in
      let poster _i =
        Thread.create
          (fun () ->
            match Net.Client.connect ~host ~port () with
            | exception Unix.Unix_error _ -> Atomic.incr failures
            | c ->
              for k = 1 to events do
                match
                  Net.Client.request c
                    (Net.Protocol.Post
                       {
                         Net.Protocol.i_oid = oid;
                         i_event = Symbol.Method (After, "bump");
                         i_args = [ Value.Int (k mod 10) ];
                       })
                with
                | Ok _ -> Atomic.incr posted
                | Error _ -> Atomic.incr failures
              done;
              Net.Client.close c)
          ()
      in
      let threads = List.init clients poster in
      List.iter Thread.join threads;
      let dt = Unix.gettimeofday () -. t0 in
      (* drain the firing stream until it goes quiet *)
      let fired = ref (List.length (Net.Client.poll_firings sub)) in
      let quiet = ref 0 in
      while !quiet < 2 do
        match Net.Client.wait_firing ~timeout_s:0.25 sub with
        | Some _ -> incr fired
        | None -> incr quiet
      done;
      Fmt.pr
        "soak: %d client(s) x %d event(s): %d posted, %d failed, %d firing(s) \
         observed, %.0f events/s@."
        clients events (Atomic.get posted) (Atomic.get failures) !fired
        (float_of_int (Atomic.get posted) /. Float.max 1e-9 dt);
      if Atomic.get failures > 0 then Error (`Msg "soak saw request failures")
      else if Atomic.get posted <> clients * events then
        Error (`Msg "soak lost posts")
      else if !fired = 0 then Error (`Msg "soak observed no firings")
      else Ok ())

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let expr_arg =
  let parse src = parse_expr src in
  let print ppf e = Expr.pp ppf e in
  Arg.(
    required
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"EVENT" ~doc:"An O++ event specification.")

let events_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "event" ] ~docv:"OCCURRENCE"
        ~doc:"A basic-event occurrence to post, e.g. 'after withdraw(1, 200)'.")

let bindings_arg =
  Arg.(
    value & opt_all string []
    & info [ "v"; "var" ] ~docv:"NAME=VALUE" ~doc:"Bind a mask variable.")

let wrap f = Term.(term_result (const f $ expr_arg))

let parse_cmd =
  Cmd.v (Cmd.info "parse" ~doc:"Parse and pretty-print an event specification")
    (wrap cmd_parse)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile to finite automata and report alphabet and state counts")
    (wrap cmd_compile)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit the compiled automaton as Graphviz dot")
    (wrap cmd_dot)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Post a sequence of occurrences and show detections")
    Term.(term_result (const cmd_run $ expr_arg $ events_arg $ bindings_arg))

let schema_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCHEMA.odl" ~doc:"An ODL class-declaration file.")

let script_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "script" ] ~docv:"FILE" ~doc:"A transaction script to run against the schema.")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Enable the Ode_obs observability layer: trace trigger firings to \
           stderr as they happen and print pipeline counters and latency \
           histograms after the script.")

let schema_cmd =
  Cmd.v
    (Cmd.info "schema" ~doc:"Load an ODL schema and optionally run a transaction script")
    Term.(term_result (const cmd_schema $ schema_file_arg $ script_arg $ obs_arg))

let normalize_cmd =
  Cmd.v
    (Cmd.info "normalize"
       ~doc:"Simplify an event specification and show its minimal automaton and regex")
    (wrap cmd_normalize)

let wal_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WAL.log"
        ~doc:"A write-ahead log file (wal-<gen>.log in a database's \
              durability directory).")

let wal_dump_cmd =
  Cmd.v
    (Cmd.info "wal-dump"
       ~doc:
         "Pretty-print the frames of a write-ahead log, flagging CRC \
          mismatches and torn tails")
    Term.(term_result (const cmd_wal_dump $ wal_file_arg))

let chost_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let cport_arg =
  Arg.(
    value & opt int 7912
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let client_status_cmd =
  Cmd.v (Cmd.info "status" ~doc:"Print the server's status JSON")
    Term.(term_result (const cmd_client_status $ chost_arg $ cport_arg))

let client_schema_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCHEMA.odl" ~doc:"ODL source to register on the server.")

let client_schema_cmd =
  Cmd.v (Cmd.info "schema" ~doc:"Register an ODL schema on the server")
    Term.(
      term_result
        (const cmd_client_schema $ chost_arg $ cport_arg $ client_schema_file_arg))

let client_oid_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "oid" ] ~docv:"OID" ~doc:"Object to post the occurrences at.")

let client_occs_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"OCCURRENCE"
        ~doc:"Basic-event occurrences, e.g. 'after withdraw(1, 200)'.")

let client_post_cmd =
  Cmd.v
    (Cmd.info "post" ~doc:"Post basic-event occurrences at an object")
    Term.(
      term_result
        (const cmd_client_post $ chost_arg $ cport_arg $ client_oid_arg
       $ client_occs_arg))

let client_shutdown_cmd =
  Cmd.v (Cmd.info "shutdown" ~doc:"Ask the server to stop")
    Term.(term_result (const cmd_client_shutdown $ chost_arg $ cport_arg))

let soak_clients_arg =
  Arg.(
    value & opt int 4
    & info [ "clients" ] ~docv:"N" ~doc:"Concurrent poster connections.")

let soak_events_arg =
  Arg.(
    value & opt int 500
    & info [ "events" ] ~docv:"M" ~doc:"Events posted per client.")

let client_soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Register a built-in schema, hammer it from N concurrent \
          connections and verify firings stream back (exits nonzero on any \
          lost post or a silent trigger)")
    Term.(
      term_result
        (const cmd_client_soak $ chost_arg $ cport_arg $ soak_clients_arg
       $ soak_events_arg))

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running odes server (docs/PROTOCOL.md)")
    [
      client_status_cmd;
      client_schema_cmd;
      client_post_cmd;
      client_soak_cmd;
      client_shutdown_cmd;
    ]

let () =
  let doc = "composite trigger events, compiled to finite automata (SIGMOD '92)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "odec" ~doc)
          [
            parse_cmd;
            compile_cmd;
            dot_cmd;
            run_cmd;
            schema_cmd;
            normalize_cmd;
            wal_dump_cmd;
            client_cmd;
          ]))
