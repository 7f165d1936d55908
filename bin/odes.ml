(* odes — serve one active database over TCP (docs/PROTOCOL.md).

     odes serve --port 7912 --schema examples/odl/stockroom.odl

   The database is configured exactly like an embedded one: the
   Database.Config env var (ODE_DURABILITY) applies, and the
   serve-specific knobs (address, batch cap, outbox bound,
   backpressure) ride on the same Config record. Every
   serve option takes its default from [D.Config.default_serve], so the
   command line cannot shadow a Config default. *)

module D = Ode_odb.Database
module Server = Ode_net.Server

let cmd_serve host port max_batch outbox_bound backpressure schema_file obs =
  match
    let base = D.Config.of_env () in
    let serve =
      { base.D.Config.serve with host; port; max_batch; outbox_bound; backpressure }
    in
    let config = { base with D.Config.serve } in
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

let dflt = D.Config.default_serve

let host_arg =
  Arg.(
    value
    & opt string dflt.D.Config.host
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value
    & opt int dflt.D.Config.port
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (0 binds an ephemeral port).")

let max_batch_arg =
  Arg.(
    value
    & opt int dflt.D.Config.max_batch
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Cap on one coalesced batch. Posts from clients with no open \
           transaction are flushed as one post_many at the end of every \
           read burst, or as soon as $(docv) events are pending.")

let outbox_arg =
  Arg.(
    value
    & opt int dflt.D.Config.outbox_bound
    & info [ "outbox-bound" ] ~docv:"N"
        ~doc:"Queued firing notifications allowed per subscriber.")

let bp_arg =
  Arg.(
    value
    & opt (enum [ ("block", D.Config.Block); ("drop", D.Config.Drop) ])
        dflt.D.Config.backpressure
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
        (const cmd_serve $ host_arg $ port_arg $ max_batch_arg $ outbox_arg
       $ bp_arg $ schema_arg $ obs_arg))

let () =
  let doc = "the active-database server (SIGMOD '92 event triggers over TCP)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "odes" ~doc) [ serve_cmd ]))
