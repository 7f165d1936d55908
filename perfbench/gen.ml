(* Seeded inputs of the three workloads. The wire run and the traced
   replay draw from the same generators, so both see the same requests
   for a given seed. *)

module Value = Ode_base.Value
module Sym = Ode_event.Symbol
module P = Ode_net.Protocol

let rng seed stream = Random.State.make [| seed; stream |]

(* ------------------------------------------------------------------ *)
(* ingest: skewed post_many frames over a meter population             *)
(* ------------------------------------------------------------------ *)

let meters = 20_000
let events_per_post = 100
let create_chunk = 1_000
let fire_at = 97 (* a reading v >= 97 of a uniform [0, 100) fires Hi *)
let zipf_s = 0.9
let sample = Sym.Method (Sym.After, "sample")

(* CDF of a Zipf(s) law over ranks 0..n-1. *)
let zipf_cdf n s =
  let w = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type post = { items : P.item list; n_events : int; predicted : int }

(* An endless stream of post_many requests for client connection
   [conn]; [oids.(rank)] is the meter a Zipf rank lands on. *)
let ingest_stream ~seed ~conn ~(oids : int array) =
  let st = rng seed (100 + conn) in
  let cdf = zipf_cdf (Array.length oids) zipf_s in
  fun () ->
    let fired = ref 0 in
    let items =
      List.init events_per_post (fun _ ->
          let oid = oids.(zipf_pick cdf st) in
          let v = Random.State.int st 100 in
          if v >= fire_at then incr fired;
          { P.i_oid = oid; i_event = sample; i_args = [ Value.Int v ] })
    in
    { items; n_events = events_per_post; predicted = !fired }

(* ------------------------------------------------------------------ *)
(* stockroom: the paper's §3.5 rooms and items, open-loop transactions *)
(* ------------------------------------------------------------------ *)

let rooms = 100
let items = 1_000
let txn_rate = 1000.0 (* transactions per second, open loop *)

let item_args seed =
  let st = rng seed 200 in
  Array.init items (fun k ->
      [
        Value.String (Printf.sprintf "i%d" k);
        Value.Int (200 + Random.State.int st 800);
        Value.Int (20 + Random.State.int st 80);
      ])

type op = { deposit : bool; item : int; qty : int }
type txn = { room : int; ops : op list }

let stock_stream ~seed =
  let st = rng seed 201 in
  fun () ->
    let room = Random.State.int st rooms in
    let k = 2 + Random.State.int st 3 in
    let ops =
      List.init k (fun _ ->
          {
            deposit = Random.State.bool st;
            item = Random.State.int st items;
            qty = 1 + Random.State.int st 150;
          })
    in
    { room; ops }

let op_call ~room_oid ~item_oids o =
  ( room_oid,
    (if o.deposit then "deposit" else "withdraw"),
    [ Value.Oid item_oids.(o.item); Value.Int o.qty ] )

(* ------------------------------------------------------------------ *)
(* fleet: heartbeat timers, one bulk-armed cohort and one staggered    *)
(* ------------------------------------------------------------------ *)

let cadences = [| 1000; 2000; 4000 |]
let period = 4000 (* ms of simulated time: the cadences' least common multiple *)
let bulk = 500
let staggered = 1_500
let stagger_span = 1000 (* staggered arms fall in [0, stagger_span) ms *)
let bulk_chunk = 250
let timers_per_step = 4

type vehicle = { cadence : int; armed_at : int }

(* Staggered vehicles first, sorted by arming instant; then the bulk
   cohort, all armed at [stagger_span] in chunked transactions. *)
let fleet_plan ~seed =
  let st = rng seed 300 in
  let stag =
    Array.init staggered (fun _ ->
        {
          cadence = Random.State.int st (Array.length cadences);
          armed_at = Random.State.int st stagger_span;
        })
  in
  Array.stable_sort (fun a b -> compare a.armed_at b.armed_at) stag;
  let bulk_v =
    Array.init bulk (fun j ->
        { cadence = j mod Array.length cadences; armed_at = stagger_span })
  in
  Array.append stag bulk_v

(* The staggered cohort grouped by arming instant: (instant, first
   index, last index + 1), in time order. *)
let stagger_groups plan =
  let rec go i acc =
    if i >= staggered then List.rev acc
    else begin
      let t = plan.(i).armed_at in
      let j = ref i in
      while !j < staggered && plan.(!j).armed_at = t do incr j done;
      go !j ((t, i, !j) :: acc)
    end
  in
  go 0 []

let beats_at v clock =
  if clock <= v.armed_at then 0 else (clock - v.armed_at) / cadences.(v.cadence)

let bulk_instant clock =
  clock > stagger_span && (clock - stagger_span) mod cadences.(0) = 0

(* The advance_clock steps of one schedule period, as (end offset in
   (0, period], timers delivered). A step ends at the first instant by
   which [timers_per_step] timers have come due since the last one, so
   every request delivers about the same slice of the fleet; a bulk
   instant delivers its whole group in one step. Every vehicle is armed
   by [stagger_span], so the steps repeat with the period from there. *)
let fleet_steps plan =
  let steps = ref [] and acc = ref 0 in
  for k = 1 to period do
    let clock = stagger_span + k in
    acc := !acc + Array.fold_left (fun n v -> n + beats_at v clock - beats_at v (clock - 1)) 0 plan;
    if !acc >= timers_per_step || k = period then begin
      steps := (k, !acc) :: !steps;
      acc := 0
    end
  done;
  Array.of_list (List.rev !steps)

(* The clock at the end of the step that delivers a timer due at [at]. *)
let step_end steps =
  let tab = Array.make (period + 1) 0 in
  let lo = ref 1 in
  Array.iter
    (fun (e, _) ->
      for k = !lo to e do tab.(k) <- e done;
      lo := e + 1)
    steps;
  fun at ->
    let off = ((at - stagger_span - 1) mod period) + 1 in
    at - off + tab.(off)
