(* An in-memory span recorder for the traced replay. A span is one call
   into a layer's public function: name, start, end, parent span and the
   request it served. Spans nest through an explicit stack; a layer's
   self time is its span's duration minus the time its child spans
   cover. When [on] is false, [span] only runs the function, so the
   same replay runs traced and untraced. *)

open Common

type span = {
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** index of the parent span, -1 for a root *)
  req : int;
  mutable child_ns : int;
}

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
}

let dummy =
  { name = ""; start_ns = 0; stop_ns = 0; parent = -1; req = -1; child_ns = 0 }

let create ~on = { on; spans = Array.make 4096 dummy; n = 0 }

(* Spans are stored when they close, so every span stored while one was
   open lies inside it; those still without a parent are its direct
   children. *)
let span t name ~req f =
  if not t.on then f ()
  else begin
    let start = now_ns () in
    let first_child = t.n in
    let finish () =
      let stop = now_ns () in
      if t.n = Array.length t.spans then begin
        let bigger = Array.make (2 * t.n) dummy in
        Array.blit t.spans 0 bigger 0 t.n;
        t.spans <- bigger
      end;
      let idx = t.n in
      t.spans.(idx) <-
        { name; start_ns = start; stop_ns = stop; parent = -1; req; child_ns = 0 };
      t.n <- t.n + 1;
      (* direct children closed inside this span: adopt them *)
      for k = first_child to idx - 1 do
        let c = t.spans.(k) in
        if c.parent = -1 then begin
          t.spans.(k) <- { c with parent = idx };
          t.spans.(idx).child_ns <- t.spans.(idx).child_ns + (c.stop_ns - c.start_ns)
        end
      done
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let self_ns s = s.stop_ns - s.start_ns - s.child_ns

(* Self time and call count per span name. *)
let totals t =
  let h = Hashtbl.create 32 in
  for k = 0 to t.n - 1 do
    let s = t.spans.(k) in
    let tot, cnt = Option.value (Hashtbl.find_opt h s.name) ~default:(0, 0) in
    Hashtbl.replace h s.name (tot + self_ns s, cnt + 1)
  done;
  h

(* Median, over "request" roots, of the time their child spans cover:
   the sum of the traced stages' self times along one wire request, set
   against the wire run's median latency. *)
let stages_per_request_ns t =
  let covered = ref [] in
  for k = 0 to t.n - 1 do
    let s = t.spans.(k) in
    if s.name = "request" then covered := float_of_int s.child_ns :: !covered
  done;
  if !covered = [] then 0.0 else median (Array.of_list !covered)

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      for k = 0 to t.n - 1 do
        let s = t.spans.(k) in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
          k s.name s.start_ns s.stop_ns s.parent s.req
      done)
