(* The traced run: the generated inputs of a workload replayed in
   process through each layer's public functions, with a span around
   every call. The path of one wire request is replayed stage by stage
   — client encode, frame decode, JSON parse, protocol decode, the
   database call, commit, WAL sync, reply encode, client decode — so the
   stages' self times can be set against the wire run's latency.

   The database uses the default configuration with a WAL whose
   group-commit window never closes on its own; the replay syncs it
   explicitly, once per 50 ms window as the server's log does, so the
   sync is a span of its own and the commit span holds no I/O. *)

open Common
module D = Ode_odb.Database
module Wal = Ode_odb.Wal
module Odl = Ode_odl.Odl
module P = Ode_net.Protocol
module Frame = Ode_net.Frame
module Json = Ode_net.Json
module Value = Ode_base.Value

type env = {
  db : D.t;
  sp : Spans.t;
  wal_dir : string;
  mutable req : int;
  mutable next_id : int;
  mutable frame_bytes : int;
  mutable items : int;  (** request items: events for post_many, 1 otherwise *)
  mutable firings : int;
  mutable wal_gen : int;
  mutable wal_size : int;
  mutable wal_bytes : int;
  mutable wal_ops : int;
  mutable decoded : Json.t list;  (** request trees to re-print after the request *)
  mutable last_sync : int;
  mutable unsynced : int;  (** operations since the last sync *)
  dec : Frame.decoder;
}

let open_env ~dir ~on =
  rm_rf dir;
  (* no periodic snapshots: the log then grows by exactly the redo
     bytes, which wal.bytes_per_commit reads off its size *)
  let wal = Wal.config ~flush_ms:max_int ~snapshot_every:0 dir in
  let db = D.create_db ~config:{ D.Config.default with D.Config.durability = `Wal wal } () in
  let env =
    {
      db;
      sp = Spans.create ~on;
      wal_dir = dir;
      req = -1;
      next_id = 1;
      frame_bytes = 0;
      items = 0;
      firings = 0;
      wal_gen = -1;
      wal_size = 0;
      wal_bytes = 0;
      wal_ops = 0;
      decoded = [];
      last_sync = now_ns ();
      unsynced = 0;
      dec = Frame.decoder ();
    }
  in
  (* one block-policy subscriber: every firing is encoded as the server
     would encode it for a subscribed connection *)
  ignore
    (D.subscribe_firings db (fun f ->
         env.firings <- env.firings + 1;
         Spans.span env.sp "protocol.encode_firing" ~req:env.req (fun () ->
             ignore
               (Frame.encode
                  (P.encode_firing
                     {
                       P.fg_trigger = f.D.f_trigger;
                       fg_class = f.D.f_class;
                       fg_oid = f.D.f_oid;
                       fg_at = f.D.f_at;
                       fg_txn = f.D.f_txn;
                     })))));
  env

let close_env env =
  D.close_durability env.db;
  rm_rf env.wal_dir

let span env name f = Spans.span env.sp name ~req:env.req f

(* Bytes the log grew by since the last look, over [ops] operations;
   an interval with a checkpoint in it (a new generation) is skipped. *)
let wal_account env ~ops =
  match Wal.latest_gen env.wal_dir with
  | None -> ()
  | Some g ->
    let size = file_size (Wal.wal_path env.wal_dir g) in
    if g = env.wal_gen then begin
      env.wal_bytes <- env.wal_bytes + (size - env.wal_size);
      env.wal_ops <- env.wal_ops + ops
    end;
    env.wal_gen <- g;
    env.wal_size <- size

let sync env ~ops =
  span env "wal.sync" (fun () -> D.sync_durability env.db);
  wal_account env ~ops

(* The server's 50 ms group-commit window: a sync once 50 ms have
   passed since the last one. *)
let group_sync env ~ops =
  env.unsynced <- env.unsynced + ops;
  if now_ns () - env.last_sync >= 50_000_000 then begin
    sync env ~ops:env.unsynced;
    env.unsynced <- 0;
    env.last_sync <- now_ns ()
  end

(* One wire request's codec path on the way in: returns the request as
   the server decodes it. *)
let wire_in env (r : P.request) ~items =
  let id = env.next_id in
  env.next_id <- id + 1;
  let payload = span env "protocol.encode_request" (fun () -> P.encode_request ~id r) in
  let frame = span env "frame.encode" (fun () -> Frame.encode payload) in
  env.frame_bytes <- env.frame_bytes + String.length frame;
  env.items <- env.items + items;
  let got =
    span env "frame.decode" (fun () ->
        Frame.feed env.dec (Bytes.unsafe_of_string frame) (String.length frame);
        Frame.next env.dec)
  in
  let payload = match got with Ok (Some p) -> p | _ -> fail "frame did not decode" in
  let j =
    match span env "json.parse" (fun () -> Json.of_string payload) with
    | Ok j -> j
    | Error e -> fail "json: %s" e
  in
  env.decoded <- j :: env.decoded;
  match span env "protocol.decode" (fun () -> P.decode_request j) with
  | Ok (_, r) -> (id, r)
  | Error e -> fail "protocol: %s" e

(* ... and on the way out: the server's reply encode and framing, then
   the client's decode. *)
let wire_out env ~id payload =
  let frame =
    span env "protocol.encode_reply" (fun () ->
        Frame.encode (P.encode_reply ~id (P.R_ok payload)))
  in
  span env "client.decode_reply" (fun () ->
      let body = String.sub frame 4 (String.length frame - 4) in
      match Json.of_string body with
      | Ok j -> ignore (P.decode_msg j)
      | Error e -> fail "reply json: %s" e)

(* One wire request (or, for stockroom, one transaction's requests)
   under a "request" root. The client's JSON printing of each request is
   timed afterwards as a root of its own: encode_request inside the
   request already holds it. *)
let request env k f =
  env.req <- k;
  span env "request" f;
  List.iter
    (fun j -> ignore (span env "json.print" (fun () -> Json.to_string j)))
    (List.rev env.decoded);
  env.decoded <- []

let expect_ok = function Ok v -> v | Error `Aborted -> fail "replay transaction aborted"

let load_schema env workload =
  ignore
    (span env "schema.load" (fun () ->
         Odl.load_schema env.db (read_file (Wl.schema_file workload))))

let create env cls args = span env "store.create" (fun () -> D.create env.db cls args)

let create_all env cls ~chunk (args : Value.t list array) =
  let n = Array.length args in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    expect_ok
      (D.with_txn env.db (fun _ ->
           for k = !i to hi - 1 do
             out.(k) <- create env cls args.(k)
           done));
    D.sync_durability env.db;
    i := hi
  done;
  out

(* ------------------------------------------------------------------ *)
(* Per-workload replays                                                *)
(* ------------------------------------------------------------------ *)

type replay = {
  env : env;
  ops : int;  (** operations replayed: events, transactions or timers *)
  loop_s : float;  (** wall time of the request loop *)
  bulk_timers : int;
  stag_timers : int;
  bulk_ns : int;
  stag_ns : int;
}

let ingest_requests = 600
let stock_txns = 2000
let txns_per_sync = int_of_float (Gen.txn_rate *. 0.05)

let replay_ingest ~seed ~dir ~on =
  let env = open_env ~dir ~on in
  load_schema env "ingest";
  let oids = create_all env "meter" ~chunk:Gen.create_chunk (Array.make Gen.meters []) in
  let gens = Array.init 2 (fun k -> Gen.ingest_stream ~seed ~conn:k ~oids) in
  let posted = ref 0 in
  let t0 = now_ns () in
  for k = 0 to ingest_requests - 1 do
    let p = gens.(k mod 2) () in
    request env k (fun () ->
        let id, r = wire_in env (P.Post_many p.Gen.items) ~items:p.Gen.n_events in
        let items =
          match r with
          | P.Post_many its -> List.map (fun it -> (it.P.i_oid, it.P.i_event, it.P.i_args)) its
          | _ -> fail "not a post_many"
        in
        let tx = span env "txn.begin" (fun () -> D.begin_txn env.db) in
        let fired = span env "engine.post_many" (fun () -> D.post_many env.db items) in
        expect_ok (span env "txn.commit" (fun () -> D.commit env.db tx));
        group_sync env ~ops:1;
        posted := !posted + List.length items;
        wire_out env ~id
          (Json.Obj
             [ ("batch", Json.Int (k + 1)); ("queued", Json.Int p.Gen.n_events); ("firings", Json.Int fired) ]))
  done;
  let loop_s = s_of_ns (now_ns () - t0) in
  {
    env;
    ops = !posted;
    loop_s;
    bulk_timers = 0;
    stag_timers = 0;
    bulk_ns = 0;
    stag_ns = 0;
  }

let replay_stockroom ~seed ~dir ~on =
  let env = open_env ~dir ~on in
  load_schema env "stockroom";
  let item_oids = create_all env "item" ~chunk:Gen.create_chunk (Gen.item_args seed) in
  let room_oids = create_all env "stockRoom" ~chunk:Gen.create_chunk (Array.make Gen.rooms []) in
  let next = Gen.stock_stream ~seed in
  let t0 = now_ns () in
  for k = 0 to stock_txns - 1 do
    let t = next () in
    request env k (fun () ->
        let id, _ = wire_in env P.Tbegin ~items:1 in
        let tx = span env "txn.begin" (fun () -> D.begin_txn env.db) in
        wire_out env ~id (Json.Obj [ ("txn", Json.Int (D.txn_id tx)) ]);
        List.iter
          (fun o ->
            let oid, m, args = Gen.op_call ~room_oid:room_oids.(t.Gen.room) ~item_oids o in
            let id, r = wire_in env (P.Call (oid, m, args)) ~items:1 in
            let v =
              match r with
              | P.Call (oid, m, args) -> span env "engine.call" (fun () -> D.call env.db oid m args)
              | _ -> fail "not a call"
            in
            wire_out env ~id (Json.Obj [ ("result", P.encode_value v) ]))
          t.Gen.ops;
        let id, _ = wire_in env P.Tcommit ~items:1 in
        expect_ok (span env "txn.commit" (fun () -> D.commit env.db tx));
        (* the transactions the server's 50 ms window holds at the
           workload's rate; the replay itself runs faster *)
        if (k + 1) mod txns_per_sync = 0 then sync env ~ops:txns_per_sync;
        wire_out env ~id (Json.Obj [ ("committed", Json.Bool true) ]))
  done;
  let loop_s = s_of_ns (now_ns () - t0) in
  {
    env;
    ops = stock_txns;
    loop_s;
    bulk_timers = 0;
    stag_timers = 0;
    bulk_ns = 0;
    stag_ns = 0;
  }

let replay_fleet ~seed ~dir ~on =
  let env = open_env ~dir ~on in
  load_schema env "fleet";
  let plan = Gen.fleet_plan ~seed in
  let advance_to t =
    let now = Int64.to_int (D.now env.db) in
    if t > now then D.advance_clock env.db (Int64.of_int (t - now))
  in
  List.iter
    (fun (t, lo, hi) ->
      advance_to t;
      expect_ok
        (D.with_txn env.db (fun _ ->
             for k = lo to hi - 1 do
               ignore (create env "vehicle" [ Value.Int plan.(k).Gen.cadence ])
             done)))
    (Gen.stagger_groups plan);
  advance_to Gen.stagger_span;
  ignore
    (create_all env "vehicle" ~chunk:Gen.bulk_chunk
       (Array.init Gen.bulk (fun k -> [ Value.Int plan.(Gen.staggered + k).Gen.cadence ])));
  D.sync_durability env.db;
  wal_account env ~ops:0;
  let steps = Gen.fleet_steps plan in
  let bulk_timers = ref 0 and stag_timers = ref 0 in
  let bulk_ns = ref 0 and stag_ns = ref 0 in
  let t0 = now_ns () in
  Array.iteri
    (fun k (ends, timers) ->
      let clock = Gen.stagger_span + ends in
      let span_ms = clock - Int64.to_int (D.now env.db) in
      request env k (fun () ->
          let id, r = wire_in env (P.Advance_clock (Int64.of_int span_ms)) ~items:1 in
          let span_ms = match r with P.Advance_clock ms -> ms | _ -> fail "not an advance" in
          let a0 = now_ns () in
          span env "timer.advance" (fun () -> D.advance_clock env.db span_ms);
          (* traced, the self time: firing encodes are child spans *)
          let dt =
            if env.sp.Spans.on then Spans.self_ns env.sp.Spans.spans.(env.sp.Spans.n - 1)
            else now_ns () - a0
          in
          if Gen.bulk_instant clock then begin
            bulk_timers := !bulk_timers + timers;
            bulk_ns := !bulk_ns + dt
          end
          else begin
            stag_timers := !stag_timers + timers;
            stag_ns := !stag_ns + dt
          end;
          group_sync env ~ops:timers;
          wire_out env ~id (Json.Obj [ ("now", Json.Int clock) ])))
    steps;
  let loop_s = s_of_ns (now_ns () - t0) in
  {
    env;
    ops = !bulk_timers + !stag_timers;
    loop_s;
    bulk_timers = !bulk_timers;
    stag_timers = !stag_timers;
    bulk_ns = !bulk_ns;
    stag_ns = !stag_ns;
  }

let replay workload =
  match workload with
  | "ingest" -> replay_ingest
  | "stockroom" -> replay_stockroom
  | _ -> replay_fleet

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one traced replay                              *)
(* ------------------------------------------------------------------ *)

let layer_metrics r =
  let env = r.env in
  let tot = Spans.totals env.sp in
  let self name = match Hashtbl.find_opt tot name with Some (ns, c) -> (float_of_int ns, c) | None -> (0.0, 0) in
  let per_call name = let ns, c = self name in mean_div ns c in
  let per_item name = mean_div (fst (self name)) env.items in
  let st = D.stats env.db in
  [
    ("frame.decode_ns", per_call "frame.decode", "ns");
    ("frame.bytes_per_event", mean_div (float_of_int env.frame_bytes) env.items, "bytes");
    ("json.parse_ns_per_event", per_item "json.parse", "ns");
    ("json.print_ns_per_event", per_item "json.print", "ns");
    ("protocol.decode_ns_per_event", per_item "protocol.decode", "ns");
    ("protocol.encode_reply_ns", per_call "protocol.encode_reply", "ns");
    ("protocol.encode_firing_ns", per_call "protocol.encode_firing", "ns");
    ("engine.post_ns_per_event", mean_div (fst (self "engine.post_many")) r.ops, "ns");
    ("engine.call_ns", per_call "engine.call", "ns");
    ("engine.firings_per_op", mean_div (float_of_int env.firings) r.ops, "count");
    ("txn.commit_us", per_call "txn.commit" /. 1e3, "us");
    ("wal.sync_us", per_call "wal.sync" /. 1e3, "us");
    ("wal.bytes_per_commit", mean_div (float_of_int env.wal_bytes) env.wal_ops, "bytes");
    ("timer.deliver_us.bulk", mean_div (float_of_int r.bulk_ns /. 1e3) r.bulk_timers, "us");
    ("timer.deliver_us.staggered", mean_div (float_of_int r.stag_ns /. 1e3) r.stag_timers, "us");
    ("timer.pending", float_of_int st.D.n_timers, "count");
    ("schema.load_ms", per_call "schema.load" /. 1e6, "ms");
    ("store.create_us", per_call "store.create" /. 1e3, "us");
    ( "store.state_bytes_per_object",
      mean_div (float_of_int st.D.state_bytes) st.D.n_objects,
      "bytes" );
  ]
