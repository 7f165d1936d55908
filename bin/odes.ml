(* odes — serve one active database over TCP (docs/PROTOCOL.md).

     odes serve --port 7912 --schema examples/odl/stockroom.odl

   The database is configured exactly like an embedded one: the
   Database.Config env var (ODE_DURABILITY) applies, and the
   serve-specific knobs (port, batch window, outbox bound, backpressure)
   ride on the same Config record. *)

module D = Ode_odb.Database
module Server = Ode_net.Server

let cmd_serve host port window max_batch outbox bp schema_file obs =
  match
    let base = D.Config.of_env () in
    let config =
      {
        base with
        D.Config.serve =
          {
            base.D.Config.serve with
            D.Config.host;
            port;
            batch_window_ms = window;
            max_batch;
            outbox_bound = outbox;
            backpressure = bp;
          };
      }
    in
    let srv = Server.create ~config () in
    let db = Server.db srv in
    if obs then D.set_observability db true;
    (match schema_file with
    | None -> ()
    | Some path ->
      let classes = Ode_odl.Odl.load_schema_file db path in
      Fmt.pr "odes: loaded %d class(es): %s@." (List.length classes)
        (String.concat ", " classes));
    Fmt.pr "odes: listening on %s:%d@." host (Server.port srv);
    Fmt.pr "odes: %s@." (D.config_summary db);
    (* ctrl-C exits the loop the same way the shutdown verb does *)
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Server.stop srv));
    Server.run srv;
    Fmt.pr "odes: stopped@."
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, fn, _) ->
    Error (`Msg (Printf.sprintf "%s: %s" fn (Unix.error_message err)))
  | exception Ode_odl.Odl.Odl_error (msg, pos) ->
    Error (`Msg (Printf.sprintf "schema error at offset %d: %s" pos msg))
  | exception D.Ode_error msg -> Error (`Msg msg)

open Cmdliner

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 7912
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (0 binds an ephemeral port).")

let window_arg =
  Arg.(
    value & opt int 2
    & info [ "batch-window-ms" ] ~docv:"MS"
        ~doc:
          "Coalescing window: posts from clients with no open transaction \
           accumulate for up to $(docv) milliseconds and flush as one \
           post_many batch (0 flushes after every read burst).")

let max_batch_arg =
  Arg.(
    value & opt int 8192
    & info [ "max-batch" ] ~docv:"N"
        ~doc:"Flush the coalesced batch when it reaches $(docv) events.")

let outbox_arg =
  Arg.(
    value & opt int 1024
    & info [ "outbox-bound" ] ~docv:"N"
        ~doc:"Queued firing notifications allowed per subscriber.")

let bp_arg =
  Arg.(
    value
    & opt (enum [ ("block", D.Config.Block); ("drop", D.Config.Drop) ]) D.Config.Block
    & info [ "backpressure" ] ~docv:"POLICY"
        ~doc:
          "Default policy when a subscriber's outbox fills: $(b,block) \
           stalls the server until the client drains (lossless), $(b,drop) \
           discards the newest firing and reports a lagged count. A \
           subscribe request may override per connection.")

let schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "schema" ] ~docv:"SCHEMA.odl"
        ~doc:"Load this ODL schema before accepting connections.")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ] ~doc:"Enable the Ode_obs observability registry.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve the database over TCP (docs/PROTOCOL.md)")
    Term.(
      term_result
        (const cmd_serve $ host_arg $ port_arg $ window_arg $ max_batch_arg
       $ outbox_arg $ bp_arg $ schema_arg $ obs_arg))

let () =
  let doc = "the active-database server (SIGMOD '92 event triggers over TCP)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "odes" ~doc) [ serve_cmd ]))
