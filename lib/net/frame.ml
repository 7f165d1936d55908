let max_frame_default = 16 * 1024 * 1024

let header_of_len len =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.unsafe_to_string b

let len_of_header s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode payload = header_of_len (String.length payload) ^ payload

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let write_frame fd payload = write_all fd (encode payload)

type read_error = Eof | Truncated of int | Oversized of int

(* read exactly [n] bytes; [`Short k] when EOF arrived with k still owed *)
let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    let r = Unix.read fd b !got (n - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  if !got = n then Ok (Bytes.unsafe_to_string b) else Error (n - !got)

let read_frame ?(max = max_frame_default) fd =
  match read_exactly fd 4 with
  | Error 4 -> Error Eof
  | Error owed -> Error (Truncated owed)
  | Ok hdr ->
    let len = len_of_header hdr 0 in
    if len <= 0 || len > max then Error (Oversized len)
    else (
      match read_exactly fd len with
      | Ok payload -> Ok payload
      | Error owed -> Error (Truncated owed))

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                 *)
(* ------------------------------------------------------------------ *)

(* A grow-only buffer with a consume offset, compacted when the parsed
   prefix dominates — bounded memory under a long-lived connection. *)
type decoder = {
  max : int;
  buf : Buffer.t;
  mutable off : int;  (* bytes of [buf] already returned *)
  mutable bad : int option;  (* the oversized length, once seen *)
}

let decoder ?(max = max_frame_default) () =
  { max; buf = Buffer.create 4096; off = 0; bad = None }

let feed d b n = Buffer.add_subbytes d.buf b 0 n

let compact d =
  if d.off > 65536 && d.off * 2 > Buffer.length d.buf then begin
    let rest = Buffer.sub d.buf d.off (Buffer.length d.buf - d.off) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.off <- 0
  end

let next d =
  match d.bad with
  | Some len -> Error (`Oversized len)
  | None ->
    let avail = Buffer.length d.buf - d.off in
    if avail < 4 then Ok None
    else begin
      (* the header is read in place: no copy of its 4 bytes *)
      let b = d.buf and o = d.off in
      let len =
        (Char.code (Buffer.nth b o) lsl 24)
        lor (Char.code (Buffer.nth b (o + 1)) lsl 16)
        lor (Char.code (Buffer.nth b (o + 2)) lsl 8)
        lor Char.code (Buffer.nth b (o + 3))
      in
      if len <= 0 || len > d.max then begin
        d.bad <- Some len;
        Error (`Oversized len)
      end
      else if avail < 4 + len then Ok None
      else begin
        let payload = Buffer.sub d.buf (d.off + 4) len in
        d.off <- d.off + 4 + len;
        compact d;
        Ok (Some payload)
      end
    end

let pending d = Buffer.length d.buf - d.off
