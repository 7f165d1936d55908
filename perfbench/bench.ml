(* The repository benchmark: one workload against a separately launched
   [odes serve], measured end to end over the wire (--trace 0), or the
   same wire run followed by the in-process traced replay that gives
   the per-layer numbers (--trace 1).

     bench.exe --odes PATH --workload ingest|stockroom|fleet \
               --seed N --seconds S --trace 0|1 [--run-dir DIR]

   Prints one line per metric ("name value unit"), a metadata line, and
   as its last line the result object
   {"correct", "attempted", "failed", "metrics"}. Exits non-zero, with
   no result, when the run cannot be made. *)

open Common
module Json = Ode_net.Json

let workloads = [ "ingest"; "stockroom"; "fleet" ]

(* End-to-end set-ups per wire run; setup_s is their median. *)
let setups = 7

type args = {
  odes : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  run_dir : string;
}

let parse_args () =
  let odes = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and run_dir = ref ".bench_run" in
  Arg.parse
    [
      ("--odes", Arg.Set_string odes, "PATH the odes executable");
      ("--workload", Arg.Set_string workload, "NAME ingest | stockroom | fleet");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--run-dir", Arg.Set_string run_dir, "DIR directory for server logs, samples, spans and results");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --odes PATH --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then
    fail "unknown workload %S (one of %s)" !workload (String.concat ", " workloads);
  if !odes = "" || not (Sys.file_exists !odes) then fail "no odes executable at %S" !odes;
  {
    odes = !odes;
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    run_dir = !run_dir;
  }

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic ->
    let l = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    l

(* Digest of the program's sources, so runs of a checkout without git
   metadata can still be matched to the code they measured. *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  let all = List.concat_map files (List.filter Sys.file_exists [ "lib"; "bin" ]) in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file all)))

let metadata a ~config =
  (* only this directory's own repository: a checkout without .git may
     sit inside another one *)
  let commit = if Sys.file_exists ".git" then command_line "git rev-parse HEAD" else "" in
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("commit", Json.String (if commit = "" then "unknown" else commit));
      ("source_md5", Json.String (source_digest ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("config", Json.String config);
      ("workload", Json.String a.workload);
      ("seed", Json.Int a.seed);
      ("seconds", Json.Float a.seconds);
      ("trace", Json.Bool a.trace);
      ( "date",
        Json.String
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
             tm.Unix.tm_sec) );
    ]

(* ------------------------------------------------------------------ *)
(* The wire run                                                        *)
(* ------------------------------------------------------------------ *)

type status = {
  batches : int;
  requests : int;
  dropped : int;
  state_bytes : int;
  config : string;
}

let read_status port =
  let c = Wire.connect port in
  let j = Wire.rpc c Ode_net.Protocol.Status in
  Wire.close c;
  let int keys = match Wire.path keys j with Json.Int n -> n | _ -> fail "status field" in
  {
    batches = int [ "server"; "batches" ];
    requests = int [ "server"; "requests" ];
    dropped = int [ "server"; "outbox_dropped" ];
    state_bytes = int [ "db"; "state_bytes" ];
    config = (match Json.member "config" j with Some (Json.String s) -> s | _ -> "");
  }

type wire = {
  setup_s : float;
  phase : Wl.phase;
  status : status;
  rss_mb : float;
  cpu_s : float;  (** server CPU time over the measured phase and warm-up *)
  problems : string list;
}

let wire_run a ~n_setups =
  let dir k = Filename.concat a.run_dir (Printf.sprintf "server%d" k) in
  let times = ref [] in
  let rec go k =
    let srv, pop, dt = Wl.setup ~odes:a.odes ~dir:(dir k) a.workload ~seed:a.seed in
    times := dt :: !times;
    Printf.eprintf "bench: set-up %d took %.4f s\n%!" k dt;
    if k < n_setups then begin
      Wire.stop srv;
      go (k + 1)
    end
    else (srv, pop)
  in
  let srv, pop = go 1 in
  let port = srv.Wire.port in
  let before = read_status port in
  (* start from a quiet disk: set-up writes are flushed before measuring *)
  ignore (Sys.command "sync");
  let cpu0 = ref 0.0 in
  let at_start () = cpu0 := Wire.cpu_s srv in
  let phase =
    match a.workload with
    | "ingest" -> Wl.measure_ingest port pop ~seed:a.seed ~seconds:a.seconds ~at_start
    | "stockroom" -> Wl.measure_stockroom port pop ~seed:a.seed ~seconds:a.seconds ~at_start
    | _ -> Wl.measure_fleet port pop ~seconds:a.seconds ~at_start
  in
  let cpu_s = Wire.cpu_s srv -. !cpu0 in
  let after = read_status port in
  let rss_mb = Wire.vmhwm_mb srv in
  Wire.stop srv;
  (* a block-policy subscriber never loses a firing *)
  let dropped = after.dropped - before.dropped in
  {
    setup_s = median (Array.of_list !times);
    phase = { phase with Wl.failed = phase.Wl.failed + dropped };
    status =
      {
        after with
        batches = after.batches - before.batches;
        requests = after.requests - before.requests;
        dropped;
      };
    rss_mb;
    cpu_s;
    problems =
      (phase.Wl.problems @ if dropped > 0 then [ Printf.sprintf "%d firings dropped" dropped ] else []);
  }

(* A percentile is only reported with at least ten samples beyond it. *)
let pct what xs p problems =
  let n = Array.length xs in
  if beyond n p < 10 then
    problems :=
      Printf.sprintf "%s: %d samples leave fewer than ten beyond p%g" what n (100.0 *. p)
      :: !problems;
  quantile xs p

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let emit ~meta ~correct ~attempted ~failed metrics ~path =
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %14.4f %s\n" name v unit) metrics;
  let obj =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  let line = Json.to_string obj in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Json.Obj [ ("meta", meta); ("result", obj) ])));
  Printf.printf "%s\n" (Json.to_string (Json.Obj [ ("meta", meta) ]));
  print_endline line

(* Measured requests in completion order — completion time (ns from
   the start of the phase), latency (us), operations — for a look at
   the tail. *)
let write_samples a (ph : Wl.phase) =
  Out_channel.with_open_bin
    (Filename.concat a.run_dir (Printf.sprintf "latency-%s-%d.txt" a.workload a.seed))
    (fun oc ->
      Array.iter
        (fun (t, l, n) -> Printf.fprintf oc "%d %.1f %d\n" (t - ph.Wl.t_start) l n)
        ph.Wl.reqs)

let lat_us (ph : Wl.phase) = Array.map (fun (_, l, _) -> l) ph.Wl.reqs
let fire_us (ph : Wl.phase) = Array.map snd ph.Wl.fires
let ops (ph : Wl.phase) = Array.fold_left (fun acc (_, _, n) -> acc + n) 0 ph.Wl.reqs

(* The measured requests are cut into blocks of equal request counts,
   about one per second of the phase. A rate or a median is reported as
   the median of its per-block values, so a stall confined to a few
   blocks does not move it. Block [k] spans the time from the previous
   block's last completion to its own. *)
let block_edges (ph : Wl.phase) =
  let n = Array.length ph.Wl.reqs in
  let t_of i = (fun (t, _, _) -> t) ph.Wl.reqs.(i) in
  let dur = if n = 0 then 0 else t_of (n - 1) - ph.Wl.t_start in
  let nb = max 1 (min n (dur / 1_000_000_000)) in
  Array.init nb (fun k ->
      let lo = k * n / nb and hi = ((k + 1) * n / nb) - 1 in
      let t_lo = if k = 0 then ph.Wl.t_start else t_of (lo - 1) in
      (lo, hi, t_lo, t_of hi))

let ops_per_s ph =
  median
    (Array.map
       (fun (lo, hi, t_lo, t_hi) ->
         let n = ref 0 in
         for i = lo to hi do
           n := !n + (fun (_, _, k) -> k) ph.Wl.reqs.(i)
         done;
         float_of_int !n /. s_of_ns (t_hi - t_lo))
       (block_edges ph))

let latency_p50 ph =
  median
    (Array.map
       (fun (lo, hi, _, _) ->
         median (Array.init (hi - lo + 1) (fun i -> (fun (_, l, _) -> l) ph.Wl.reqs.(lo + i))))
       (block_edges ph))

(* Firings fall into the block during which they arrived; stragglers
   after the last completion count in the last block. *)
let firing_p50 ph =
  let edges = block_edges ph in
  let nb = Array.length edges in
  let per = Array.make nb [] in
  Array.iter
    (fun (t, l) ->
      let k = ref 0 in
      while !k < nb - 1 && (fun (_, _, _, hi) -> t > hi) edges.(!k) do incr k done;
      per.(!k) <- l :: per.(!k))
    ph.Wl.fires;
  median
    (Array.of_list
       (List.filter_map
          (fun l -> if l = [] then None else Some (median (Array.of_list l)))
          (Array.to_list per)))

let end_to_end a =
  let w = wire_run a ~n_setups:setups in
  let ph = w.phase in
  write_samples a ph;
  let problems = ref w.problems in
  (* the whole-run tails, printed for reference: on a shared box their
     run-to-run spread is too wide to gate on *)
  Printf.printf "%-32s %14.4f %s\n" "latency_p99_us" (pct "latency" (lat_us ph) 0.99 problems) "us";
  Printf.printf "%-32s %14.4f %s\n" "firing_p99_us" (pct "firing" (fire_us ph) 0.99 problems) "us";
  let metrics =
    [
      ("setup_s", w.setup_s, "s");
      ("ops_per_s", ops_per_s ph, "1/s");
      ("latency_p50_us", latency_p50 ph, "us");
      ("firing_p50_us", firing_p50 ph, "us");
      ("server_cpu_us_per_op", w.cpu_s *. 1e6 /. float_of_int (ops ph), "us");
      ("rss_mb", w.rss_mb, "MB");
    ]
  in
  (w, ph, metrics, !problems)

let per_layer a =
  let w = wire_run a ~n_setups:1 in
  let ph = w.phase in
  let problems = ref w.problems in
  let replay_dir = Filename.concat a.run_dir "replay" in
  (* the workload's own replay, untraced and then traced *)
  let plain = (Traced.replay a.workload) ~seed:a.seed ~dir:replay_dir ~on:false in
  Traced.close_env plain.Traced.env;
  let own = (Traced.replay a.workload) ~seed:a.seed ~dir:replay_dir ~on:true in
  Traced.close_env own.Traced.env;
  Spans.write own.Traced.env.Traced.sp
    (Filename.concat a.run_dir (Printf.sprintf "spans-%s-%d.jsonl" a.workload a.seed));
  (* the layers this workload does not exercise are measured on the
     workload that does *)
  let others =
    List.filter_map
      (fun wl ->
        if wl = a.workload then None
        else begin
          let r = (Traced.replay wl) ~seed:a.seed ~dir:replay_dir ~on:true in
          Traced.close_env r.Traced.env;
          Some (wl, Traced.layer_metrics r)
        end)
      workloads
  in
  let mine = Traced.layer_metrics own in
  let value_in src name =
    match List.find_opt (fun (n, _, _) -> n = name) src with
    | Some (_, v, _) -> v
    | None -> fail "no layer metric %s" name
  in
  let from owner name =
    value_in (if owner = a.workload then mine else List.assoc owner others) name
  in
  let owned_by name =
    match name with
    | "engine.post_ns_per_event" -> from "ingest" name
    | "engine.call_ns" -> from "stockroom" name
    | "txn.commit_us" when a.workload = "fleet" -> from "stockroom" name
    | "timer.deliver_us.bulk" | "timer.deliver_us.staggered" | "timer.pending" ->
      from "fleet" name
    | _ -> value_in mine name
  in
  let layer = List.map (fun (name, _, unit) -> (name, owned_by name, unit)) mine in
  let stages_us = Spans.stages_per_request_ns own.Traced.env.Traced.sp /. 1e3 in
  let e2e_p50 = latency_p50 ph in
  let metrics =
    layer
    @ [
        ( "server.events_per_batch",
          (if w.status.batches = 0 then 0.0
           else float_of_int ph.Wl.posted /. float_of_int w.status.batches),
          "count" );
        ("server.outbox_dropped", float_of_int w.status.dropped, "count");
        ("server.residual_us", e2e_p50 -. stages_us, "us");
        ("gen.late_p99_us", pct "generator lateness" ph.Wl.late_us 0.99 problems, "us");
        ("wire.latency_p99_us", pct "latency" (lat_us ph) 0.99 problems, "us");
        ("wire.firing_p99_us", pct "firing" (fire_us ph) 0.99 problems, "us");
        ("trace.overhead", own.Traced.loop_s /. plain.Traced.loop_s, "ratio");
      ]
  in
  (* self time per traced layer of the workload's own replay *)
  let tot = Spans.totals own.Traced.env.Traced.sp in
  let rows = Hashtbl.fold (fun name (ns, c) acc -> (name, ns, c) :: acc) tot [] in
  List.iter
    (fun (name, ns, c) ->
      Printf.printf "self %-26s %9d calls %12.3f ms %12.3f us/call\n" name c
        (float_of_int ns /. 1e6)
        (float_of_int ns /. 1e3 /. float_of_int c))
    (List.sort compare rows);
  (w, ph, metrics, !problems)

let () =
  match parse_args () with
  | exception Failure msg ->
    prerr_endline ("bench: " ^ msg);
    exit 2
  | a -> (
    mkdir_p a.run_dir;
    at_exit Wire.kill_all;
    (* a run stopped from outside takes its servers with it *)
    List.iter
      (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
      [ Sys.sigterm; Sys.sigint; Sys.sighup ];
    match (if a.trace then per_layer a else end_to_end a) with
    | exception e ->
      Wire.kill_all ();
      prerr_endline ("bench: " ^ Printexc.to_string e);
      exit 1
    | w, ph, metrics, problems ->
      List.iter (fun p -> prerr_endline ("bench: check failed: " ^ p)) problems;
      let error_rate = mean_div (float_of_int ph.Wl.failed) ph.Wl.attempted in
      Printf.printf "%-32s %14.4f %s\n" "error_rate" error_rate "ratio";
      Printf.printf "%-32s %14d %s\n" "status.batches" w.status.batches "count";
      Printf.printf "%-32s %14d %s\n" "status.requests" w.status.requests "count";
      Printf.printf "%-32s %14d %s\n" "status.state_bytes" w.status.state_bytes "bytes";
      let meta = metadata a ~config:w.status.config in
      emit ~meta
        ~correct:(ph.Wl.failed = 0 && problems = [])
        ~attempted:(max 1 ph.Wl.attempted) ~failed:ph.Wl.failed metrics
        ~path:
          (Filename.concat a.run_dir
             (Printf.sprintf "result-%s-%d-trace%d.json" a.workload a.seed
                (if a.trace then 1 else 0))))
