(* Clock, order statistics and file helpers shared by the wire run and
   the traced run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

(* Nearest-rank quantile of an unsorted sample. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = quantile xs 0.5

(* Samples strictly above the nearest-rank [p] quantile: a percentile is
   reported only when at least ten lie beyond it. *)
let beyond n p = n - int_of_float (ceil (p *. float_of_int n))

let mean_div total n = if n = 0 then 0.0 else total /. float_of_int n

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let fail fmt = Printf.ksprintf failwith fmt
