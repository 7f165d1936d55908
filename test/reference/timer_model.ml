open Ode_odb.Types

type t = { mutable q : timer list }

let create () = { q = [] }
let pending m = m.q

let key_le (a : timer) (b : timer) =
  a.tm_due < b.tm_due || (a.tm_due = b.tm_due && a.tm_seq <= b.tm_seq)

let same_key (a : timer) (b : timer) = a.tm_due = b.tm_due && a.tm_seq = b.tm_seq

(* Tail-recursive: the benchmark baseline runs it at 10^6 entries. *)
let insert_list tm tms =
  let rec go acc = function
    | t :: rest when key_le t tm -> go (t :: acc) rest
    | rest -> List.rev_append acc (tm :: rest)
  in
  go [] tms

let insert m tm = m.q <- insert_list tm m.q

let cancel_where m p =
  let gone, kept = List.partition p m.q in
  m.q <- kept;
  gone

let cancel_object m oid = cancel_where m (fun t -> t.tm_oid = oid)

let cancel_trigger m oid tname =
  cancel_where m (fun t -> t.tm_oid = oid && t.tm_trigger = tname)

let cancel_timer m tm = ignore (cancel_where m (same_key tm))
let replace m tms = m.q <- tms
let clear m = m.q <- []

type delivery = { d_oid : oid; d_due : int64 }

let advance_to m ~target ~alive ~reschedule =
  let rec loop acc =
    match m.q with
    | tm :: _ when tm.tm_due <= target ->
      let group =
        cancel_where m (fun t ->
            t.tm_due = tm.tm_due && t.tm_oid = tm.tm_oid && t.tm_spec = tm.tm_spec)
      in
      let acc =
        if List.exists alive group then
          { d_oid = tm.tm_oid; d_due = tm.tm_due } :: acc
        else acc
      in
      List.iter
        (fun t ->
          if alive t then
            match reschedule t with Some t' -> insert m t' | None -> ())
        group;
      loop acc
    | _ -> List.rev acc
  in
  loop []
