(* The server process and the load generator's connections.

   [odes serve] runs as its own process with the default configuration
   apart from durability, given through ODE_DURABILITY; every other
   ODE_* variable of the caller's environment is removed. Each server
   gets its own TMPDIR, so its WAL directory stays inside the run
   directory and is removed when the server stops.

   A connection is driven without threads: the load generator selects
   over at most two connections and decodes frames itself. *)

open Common
module P = Ode_net.Protocol
module Frame = Ode_net.Frame
module Json = Ode_net.Json

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  port : int;
  out : in_channel;
  dir : string;
  mutable alive : bool;
}

let live : server list ref = ref []

let kill_all () =
  List.iter
    (fun s ->
      if s.alive then begin
        s.alive <- false;
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ()
      end)
    !live;
  live := []

let server_env ~durability ~dir =
  let keep v =
    not
      (String.length v >= 4 && String.sub v 0 4 = "ODE_"
      || String.length v >= 7 && String.sub v 0 7 = "TMPDIR=")
  in
  Array.append
    [| "ODE_DURABILITY=" ^ durability; "TMPDIR=" ^ dir |]
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))

let spawn ~odes ~durability ~dir =
  rm_rf dir;
  mkdir_p dir;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env odes
      [| odes; "serve"; "--port"; "0" |]
      (server_env ~durability ~dir)
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let srv = { pid; port = 0; out; dir; alive = true } in
  live := srv :: !live;
  let rec wait_port () =
    match In_channel.input_line out with
    | None -> fail "odes serve exited before listening"
    | Some line -> (
      match Scanf.sscanf line "odes: listening on %s@:%d" (fun _ p -> p) with
      | p -> p
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> wait_port ())
  in
  let port = wait_port () in
  let srv = { srv with port } in
  live := srv :: List.filter (fun s -> s.pid <> pid) !live;
  srv

(* Peak resident set of the server, MB. *)
let vmhwm_mb srv =
  let path = Printf.sprintf "/proc/%d/status" srv.pid in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* CPU time the server's threads have run, in seconds, from the
   scheduler's nanosecond counters (/proc/<pid>/task/<tid>/schedstat). *)
let cpu_s srv =
  let dir = Printf.sprintf "/proc/%d/task" srv.pid in
  Array.fold_left
    (fun acc tid ->
      let stat = read_file (Filename.concat (Filename.concat dir tid) "schedstat") in
      acc +. (float_of_string (List.hd (String.split_on_char ' ' stat)) /. 1e9))
    0.0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  inbox : P.msg Queue.t;
  mutable next_id : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; dec = Frame.decoder (); inbox = Queue.create (); next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  Frame.write_frame c.fd (P.encode_request ~id req);
  id

let buf = Bytes.create 65536

(* One read — call it when [select] reports the fd readable — then
   every complete frame goes to the inbox. *)
let pump c =
  let n = Unix.read c.fd buf 0 (Bytes.length buf) in
  if n = 0 then raise End_of_file;
  Frame.feed c.dec buf n;
  let rec drain () =
    match Frame.next c.dec with
    | Ok None -> ()
    | Ok (Some payload) ->
      (match Json.of_string payload with
      | Error e -> fail "bad frame from server: %s" e
      | Ok j -> (
        match P.decode_msg j with
        | Ok m -> Queue.add m c.inbox
        | Error e -> fail "bad message from server: %s" e));
      drain ()
    | Error (`Oversized n) -> fail "oversized frame (%d bytes)" n
  in
  drain ()

(* Block until the reply to [id]; notifications are dropped (setup and
   status connections never subscribe). *)
let await c id =
  let rec go () =
    match Queue.take_opt c.inbox with
    | Some (P.Reply (i, r)) when i = id -> r
    | Some _ -> go ()
    | None ->
      pump c;
      go ()
  in
  go ()

let rpc c req =
  match await c (send c req) with
  | P.R_ok j -> j
  | P.R_error (code, msg) ->
    fail "%s request failed: [%s] %s" (P.verb_of_request req) code msg

let int_field key j =
  match Json.member key j with
  | Some (Json.Int n) -> n
  | _ -> fail "reply carried no integer %S" key

let path keys j =
  List.fold_left
    (fun j k ->
      match Json.member k j with Some v -> v | None -> fail "no %S in status" k)
    j keys

(* Readable connections among [cs], waiting at most [timeout] s. *)
let readable cs timeout =
  match Unix.select (List.map (fun c -> c.fd) cs) [] [] (Float.max 0.0 timeout) with
  | rs, _, _ -> List.filter (fun c -> List.memq c.fd rs) cs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Stop a server through the shutdown verb, wait for the process, and
   remove its directory. SIGKILL after 10 s. *)
let stop srv =
  if srv.alive then begin
    (try
       let c = connect srv.port in
       ignore (rpc c P.Shutdown);
       close c
     with _ -> ());
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid)
      | _ -> ()
    in
    wait ();
    srv.alive <- false;
    live := List.filter (fun s -> s.pid <> srv.pid) !live;
    (try close_in srv.out with Sys_error _ -> ());
    rm_rf srv.dir
  end
