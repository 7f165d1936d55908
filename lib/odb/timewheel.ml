module Symbol = Ode_event.Symbol
module Expr = Ode_event.Expr
open Types

let now db = db.wheel.clock_ms

(* ------------------------------------------------------------------ *)
(* Engine hook                                                         *)
(* ------------------------------------------------------------------ *)

(* Firing a due timer delivers a time-event occurrence to an object,
   inside a system transaction — an upward call into the posting
   pipeline. [Engine] fills this at load time. *)
let deliver_hook : (db -> oid -> Symbol.time_spec -> unit) ref =
  ref (fun _ _ _ -> ())

let set_deliver_hook f = deliver_hook := f

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* The delivery order, everywhere: due instant, then insertion stamp.
   Seqs are unique, so this is total. *)
let key_lt (a : timer) (b : timer) =
  a.tm_due < b.tm_due || (a.tm_due = b.tm_due && a.tm_seq < b.tm_seq)

let cmp_key (a : timer) (b : timer) =
  match Int64.compare a.tm_due b.tm_due with
  | 0 -> compare a.tm_seq b.tm_seq
  | c -> c

(* ------------------------------------------------------------------ *)
(* The hierarchical hashed wheel (Varghese–Lauck)                      *)
(*                                                                     *)
(* 8 levels of 64 slots; level l's slots are 64^l ms wide. A pending    *)
(* timer lives at the lowest level whose current rotation (the clock's *)
(* high bits above the level) covers its due instant — so a level-0    *)
(* slot holds exactly one instant, and advancing the clock cascades    *)
(* exactly one destination bucket per level whose cursor moved. Nodes  *)
(* drained from a level-l cursor bucket share the clock's level-l      *)
(* prefix and therefore re-place strictly below l: one pass, high to   *)
(* low, terminates. Buckets are intrusive doubly-linked lists — O(1)   *)
(* unlink — and [tw_index] maps oid to its live nodes, so eager        *)
(* cancellation is O(timers-on-that-object).                           *)
(* ------------------------------------------------------------------ *)

let bits = Types.wheel_bits
let wslots = Types.wheel_slots
let wmask = wslots - 1
let nlevels = Types.wheel_levels

(* [tn_level] address codes outside 0..nlevels-1 *)
let lvl_ovf = -1 (* beyond the top level's rotation *)
let lvl_detached = -2
let lvl_past = -3 (* due <= clock: recovery clock-skew only *)

(* The lowest level whose current rotation covers [due]: the smallest l
   with [due >> bits*(l+1) = clock >> bits*(l+1)]; [lvl_ovf] when even
   the top rotation differs. The xor's high bits answer both at once. *)
let level_of ~clock due =
  let x = Int64.logxor due clock in
  if Int64.shift_right_logical x (bits * nlevels) <> 0L then lvl_ovf
  else
    let x = Int64.to_int x in
    let rec go l = if x lsr (bits * (l + 1)) = 0 then l else go (l + 1) in
    go 0

let slot_of l due =
  Int64.to_int (Int64.shift_right_logical due (bits * l)) land wmask

let get_head w level slot =
  if level >= 0 then w.tw_slots.(level).(slot)
  else if level = lvl_ovf then w.tw_ovf
  else w.tw_past

let set_head w level slot v =
  if level >= 0 then w.tw_slots.(level).(slot) <- v
  else if level = lvl_ovf then w.tw_ovf <- v
  else w.tw_past <- v

let link w n level slot =
  let h = get_head w level slot in
  n.tn_level <- level;
  n.tn_slot <- slot;
  n.tn_prev <- None;
  n.tn_next <- h;
  (match h with Some h2 -> h2.tn_prev <- Some n | None -> ());
  set_head w level slot (Some n);
  if level >= 0 then w.tw_counts.(level) <- w.tw_counts.(level) + 1
  else if level = lvl_ovf then w.tw_ovf_n <- w.tw_ovf_n + 1
  else w.tw_past_n <- w.tw_past_n + 1

(* Unlink from its bucket; invalidates the peek cache when it held this
   node. Does not touch [tw_n] or the index — callers own those. *)
let unlink_node w n =
  (match n.tn_prev with
  | Some p -> p.tn_next <- n.tn_next
  | None -> set_head w n.tn_level n.tn_slot n.tn_next);
  (match n.tn_next with Some s -> s.tn_prev <- n.tn_prev | None -> ());
  (if n.tn_level >= 0 then
     w.tw_counts.(n.tn_level) <- w.tw_counts.(n.tn_level) - 1
   else if n.tn_level = lvl_ovf then w.tw_ovf_n <- w.tw_ovf_n - 1
   else w.tw_past_n <- w.tw_past_n - 1);
  n.tn_prev <- None;
  n.tn_next <- None;
  n.tn_level <- lvl_detached;
  match w.tw_peek with Some m when m == n -> w.tw_peek <- None | _ -> ()

let place w ~clock n =
  let due = n.tn_timer.tm_due in
  if due <= clock then link w n lvl_past 0
  else
    let l = level_of ~clock due in
    if l < 0 then link w n lvl_ovf 0 else link w n l (slot_of l due)

(* Detach a whole bucket at once, returning its nodes. Used by the
   cascade: the nodes stay pending (they re-[place] immediately), so
   the peek cache is deliberately left alone — node identity survives
   the move. *)
let drain_bucket w level slot =
  let rec collect acc = function
    | None -> acc
    | Some n ->
      let nx = n.tn_next in
      n.tn_prev <- None;
      n.tn_next <- None;
      n.tn_level <- lvl_detached;
      collect (n :: acc) nx
  in
  let ns = collect [] (get_head w level slot) in
  set_head w level slot None;
  (if level >= 0 then w.tw_counts.(level) <- w.tw_counts.(level) - List.length ns
   else if level = lvl_ovf then w.tw_ovf_n <- 0
   else w.tw_past_n <- 0);
  ns

(* Move the wheel's notion of "now" from [from_] to [to_], cascading
   each moved cursor's destination bucket downward. Correctness leans
   on the advance-to-minimum discipline of [advance_to]: no pending due
   lies strictly below [to_], so buckets the cursors skip over are
   empty and only the destination slots need draining. Dues equal to
   [to_] descend all the way to level 0 (their slot is the new cursor
   at every level), which is where delivery reads them. *)
let wheel_advance w ~from_ ~to_ =
  if to_ > from_ then begin
    if
      Int64.shift_right_logical to_ (bits * nlevels)
      <> Int64.shift_right_logical from_ (bits * nlevels)
    then List.iter (place w ~clock:to_) (drain_bucket w lvl_ovf 0);
    for l = nlevels - 1 downto 1 do
      if
        Int64.shift_right_logical to_ (bits * l)
        <> Int64.shift_right_logical from_ (bits * l)
      then List.iter (place w ~clock:to_) (drain_bucket w l (slot_of l to_))
    done
  end

let bucket_min best h =
  let rec go best = function
    | None -> best
    | Some n ->
      let best =
        match best with
        | Some b when key_lt b.tn_timer n.tn_timer -> best
        | _ -> Some n
      in
      go best n.tn_next
  in
  go best h

(* The global minimum, recomputed: the past list beats everything, then
   the lowest non-empty level (levels are due-disjoint: everything at
   level l+1 is due after everything at level l), then overflow. Within
   a level the first non-empty slot at or after the cursor holds the
   minimum due (slot index is monotone in due within a rotation). *)
let recompute_peek w ~clock =
  if w.tw_past_n > 0 then bucket_min None w.tw_past
  else begin
    let best = ref None in
    let l = ref 0 in
    while Option.is_none !best && !l < nlevels do
      if w.tw_counts.(!l) > 0 then begin
        let cur = slot_of !l clock in
        let s = ref cur in
        while Option.is_none !best && !s < wslots do
          best := bucket_min None w.tw_slots.(!l).(!s);
          incr s
        done;
        (* defensive: a node below the cursor would mean a discipline
           violation upstream; scan the wrap rather than lose it *)
        let s = ref 0 in
        while Option.is_none !best && !s < cur do
          best := bucket_min None w.tw_slots.(!l).(!s);
          incr s
        done
      end;
      incr l
    done;
    match !best with Some _ as b -> b | None -> bucket_min None w.tw_ovf
  end

let wheel_peek w ~clock =
  match w.tw_peek with
  | Some _ as p -> p
  | None ->
    if w.tw_n = 0 then None
    else begin
      let b = recompute_peek w ~clock in
      w.tw_peek <- b;
      b
    end

let index_add w n =
  let oid = n.tn_timer.tm_oid in
  match Hashtbl.find_opt w.tw_index oid with
  | Some ns -> Hashtbl.replace w.tw_index oid (n :: ns)
  | None -> Hashtbl.add w.tw_index oid [ n ]

let wheel_insert w ~clock tm =
  let n =
    { tn_timer = tm; tn_prev = None; tn_next = None; tn_level = lvl_detached;
      tn_slot = 0 }
  in
  place w ~clock n;
  index_add w n;
  w.tw_n <- w.tw_n + 1;
  match w.tw_peek with
  | Some m when key_lt tm m.tn_timer -> w.tw_peek <- Some n
  | Some _ -> ()
  | None -> if w.tw_n = 1 then w.tw_peek <- Some n

(* Every pending timer, in (due, seq) order — the serialization order. *)
let wheel_all w =
  let acc = ref [] in
  let rec chain = function
    | None -> ()
    | Some n ->
      acc := n.tn_timer :: !acc;
      chain n.tn_next
  in
  Array.iter (fun slots -> Array.iter chain slots) w.tw_slots;
  chain w.tw_ovf;
  chain w.tw_past;
  List.sort cmp_key !acc

(* ------------------------------------------------------------------ *)
(* The change log                                                      *)
(* ------------------------------------------------------------------ *)

(* Every change to the pending set is recorded in [tq_added] /
   [tq_removed] until a durability batch drains it ([take_changes]), so
   a batch carries what moved rather than the whole queue. Inserted
   timers are pending, so [tq_added] never outgrows the queue; removals
   are bounded by collapsing to [tq_full] once the log holds more than
   [change_log_slack] entries beyond the pending count — backends that
   never drain (image, none) stay bounded too. *)
let change_log_slack = 64

let mark_full ws =
  ws.tq_full <- true;
  Hashtbl.reset ws.tq_added;
  Hashtbl.reset ws.tq_removed

let record_insert db (tm : timer) =
  let ws = db.wheel in
  if not ws.tq_full then Hashtbl.replace ws.tq_added tm.tm_seq tm

(* Call after the node has left the wheel, so [tw_n] is current. *)
let record_remove db (tm : timer) =
  let ws = db.wheel in
  if not ws.tq_full then
    if Hashtbl.mem ws.tq_added tm.tm_seq then
      Hashtbl.remove ws.tq_added tm.tm_seq
    else begin
      Hashtbl.replace ws.tq_removed tm.tm_seq tm.tm_oid;
      if
        Hashtbl.length ws.tq_added + Hashtbl.length ws.tq_removed
        > ws.tq.tw_n + change_log_slack
      then mark_full ws
    end

(* ------------------------------------------------------------------ *)
(* The queue                                                           *)
(* ------------------------------------------------------------------ *)

(* Fresh insertion-order stamp: equal-due timers deliver in stamp
   order. *)
let fresh_seq db =
  let s = db.wheel.tm_next_seq in
  db.wheel.tm_next_seq <- s + 1;
  s

(* The caller provides the stamp: fresh for new arms and re-arms
   (insertion order), the persisted one when reloading an image. *)
let insert_timer db tm =
  wheel_insert db.wheel.tq ~clock:db.wheel.clock_ms tm;
  record_insert db tm

(* Remove the pending timers on [oid] that satisfy [pred], returning
   them in (due, seq) order. O(timers on that object): [tw_index] holds
   every live node, wherever the wheel placed it. *)
let remove_where db oid pred =
  let w = db.wheel.tq in
  match Hashtbl.find_opt w.tw_index oid with
  | None -> []
  | Some ns ->
    let gone, kept = List.partition (fun n -> pred n.tn_timer) ns in
    if gone <> [] then begin
      (match kept with
      | [] -> Hashtbl.remove w.tw_index oid
      | _ -> Hashtbl.replace w.tw_index oid kept);
      List.iter
        (fun n ->
          unlink_node w n;
          w.tw_n <- w.tw_n - 1;
          record_remove db n.tn_timer)
        gone
    end;
    List.sort cmp_key (List.map (fun n -> n.tn_timer) gone)

(* ------------------------------------------------------------------ *)
(* Persistence plumbing                                                *)
(* ------------------------------------------------------------------ *)

let pending db = wheel_all db.wheel.tq

let pending_count db = Types.timerq_count db.wheel

let clear db =
  db.wheel.tq <- make_wheel ();
  mark_full db.wheel

(* A fresh wheel holding [tms], placed against [clock]. *)
let rebuild ~clock tms =
  let w = make_wheel () in
  List.iter (wheel_insert w ~clock) tms;
  w

(* Bulk-load a (due, seq)-sorted queue (WAL replay, image load): every
   timer is re-placed at the current clock — set the clock
   first. *)
let replace db tms =
  db.wheel.tq <- rebuild ~clock:db.wheel.clock_ms tms;
  mark_full db.wheel

type changes =
  | No_change
  | Full of timer list
  | Delta of { removed : (int * oid) list; added : timer list }

let take_changes db =
  let ws = db.wheel in
  if ws.tq_full then begin
    ws.tq_full <- false;
    Full (pending db)
  end
  else if Hashtbl.length ws.tq_added = 0 && Hashtbl.length ws.tq_removed = 0
  then No_change
  else begin
    let removed =
      List.sort compare
        (Hashtbl.fold (fun s o acc -> (s, o) :: acc) ws.tq_removed [])
    and added =
      List.sort
        (fun a b -> compare a.tm_seq b.tm_seq)
        (Hashtbl.fold (fun _ tm acc -> tm :: acc) ws.tq_added [])
    in
    Hashtbl.reset ws.tq_added;
    Hashtbl.reset ws.tq_removed;
    Delta { removed; added }
  end

(* Removals first: a timer removed and re-inserted under its own seq
   (an aborted cancellation) is in both lists. The clock is already
   set, so the inserts place correctly. *)
let apply_delta db ~removed ~added =
  List.iter
    (fun (seq, oid) -> ignore (remove_where db oid (fun tm -> tm.tm_seq = seq)))
    removed;
  List.iter (insert_timer db) added

(* Replay-time clock hop: move the clock while keeping
   the wheel's placement invariant, delivering nothing. Forward hops
   cascade — safe because a logged clock-only batch implies the
   original execution had no pending due at or below that clock, the
   same advance-to-minimum discipline [advance_to] relies on. Backward
   hops (never emitted by a monotone log, kept for safety) rebuild. *)
let set_clock db c =
  let from_ = db.wheel.clock_ms in
  if c <> from_ then begin
    db.wheel.clock_ms <- c;
    if c > from_ then wheel_advance db.wheel.tq ~from_ ~to_:c
    else db.wheel.tq <- rebuild ~clock:c (wheel_all db.wheel.tq)
  end

(* ------------------------------------------------------------------ *)
(* Eager cancellation                                                  *)
(* ------------------------------------------------------------------ *)

(* Cancel every pending timer on [oid], returning them in (due, seq)
   order — [Engine] records them in a [U_timers_cancelled] undo entry
   so an abort restores the queue byte-for-byte (seqs preserved). *)
let cancel_object db oid = remove_where db oid (fun _ -> true)

(* Cancel the pending timers of one trigger on one object (deactivate,
   or the epoch bump of a re-activation), in (due, seq) order. *)
let cancel_trigger db oid tname =
  remove_where db oid (fun tm -> tm.tm_trigger = tname)

(* Cancel one specific pending timer, matched by physical identity —
   the undo of [U_timers_armed]. Absent timers (already delivered or
   cancelled) are ignored. *)
let cancel_timer db (tm : timer) =
  ignore (remove_where db tm.tm_oid (fun t -> t == tm))

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

let first_due (spec : Symbol.time_spec) ~after =
  match spec with
  | Every p | After_period p -> if p <= 0L then None else Some (Int64.add after p)
  | At pattern -> Clock.next_match pattern ~after

(* The re-armed incarnation takes a {e fresh} seq: a single queue's
   stable insert puts it after every already-queued timer of the same
   due instant, i.e. in insertion order — which is exactly what the
   fresh stamp encodes. *)
let reschedule db (tm : timer) ~fired_at =
  match tm.tm_spec with
  | Symbol.Every p ->
    Some { tm with tm_due = Int64.add fired_at p; tm_seq = fresh_seq db }
  | Symbol.After_period _ -> None
  | Symbol.At pattern ->
    Option.map
      (fun due -> { tm with tm_due = due; tm_seq = fresh_seq db })
      (Clock.next_match pattern ~after:fired_at)

(* Arm one timer per time-event leaf of the trigger's specification,
   returning the armed timers (newest first) so [Engine] can record
   them for undo. *)
let schedule_trigger_timers db obj (at : active_trigger) =
  let specs =
    List.filter_map
      (fun (l : Expr.leaf) ->
        match l.basic with Symbol.Time spec -> Some spec | _ -> None)
      (Expr.logical_events at.at_def.t_event)
  in
  let clock = db.wheel.clock_ms in
  List.fold_left
    (fun armed spec ->
      match first_due spec ~after:clock with
      | None -> armed
      | Some due ->
        let tm =
          {
            tm_due = due;
            tm_seq = fresh_seq db;
            tm_oid = obj.o_id;
            tm_trigger = at.at_def.t_name;
            tm_epoch = at.at_epoch;
            tm_spec = spec;
            tm_anchor = clock;
          }
        in
        insert_timer db tm;
        tm :: armed)
    [] specs

let timer_alive db (tm : timer) =
  match Store.live_obj_opt db tm.tm_oid with
  | Some obj -> (
    match Hashtbl.find_opt obj.o_triggers tm.tm_trigger with
    | Some at -> at.at_active && at.at_epoch = tm.tm_epoch
    | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Advancing the clock                                                 *)
(* ------------------------------------------------------------------ *)

(* The minimum pending timer, if due by [target]. Amortized O(1) (peek
   cache). *)
let peek db ~target =
  match wheel_peek db.wheel.tq ~clock:db.wheel.clock_ms with
  | Some n when n.tn_timer.tm_due <= target -> Some n.tn_timer
  | _ -> None

(* Pull every pending timer for one (object, spec, instant) out of the
   queue, in seq order. O(timers on that object), through [tw_index]. *)
let pull_group db ~due ~oid ~spec =
  remove_where db oid (fun tm -> tm.tm_due = due && tm.tm_spec = spec)

(* The head-of-queue loop: deliver the minimum (due, seq) timer while
   it is due by [target]. One operation: every delivery's system
   transaction, the reschedules and the final clock go into one redo
   batch, which holds each touched object once. *)
let advance_to db target =
  if target < db.wheel.clock_ms then ode_error "clock cannot go backwards";
  let advance_wheel d =
    let c = db.wheel.clock_ms in
    if d > c then begin
      wheel_advance db.wheel.tq ~from_:c ~to_:d;
      db.wheel.clock_ms <- d
    end
  in
  let rec loop () =
    match peek db ~target with
    | None -> ()
    | Some tm ->
      advance_wheel tm.tm_due;
      (* Several triggers may watch the same time event on the same
         object; pull every timer for this (object, spec, instant) and
         deliver a single occurrence — logical events are points, and a
         doubled delivery would wrongly feed expressions like
         [!prior(dayBegin, ...)] twice. *)
      let group = pull_group db ~due:tm.tm_due ~oid:tm.tm_oid ~spec:tm.tm_spec in
      let rearm () =
        List.iter
          (fun t ->
            if timer_alive db t then
              match reschedule db t ~fired_at:t.tm_due with
              | Some t' -> insert_timer db t'
              | None -> ())
          group
      in
      if List.exists (timer_alive db) group then begin
        let obs = db.obs in
        if Ode_obs.Registry.enabled obs then begin
          Ode_obs.Registry.incr obs Ode_obs.Registry.Timer_deliveries;
          Ode_obs.Registry.span obs
            (Ode_obs.Trace.Timer_delivered
               { oid = tm.tm_oid; at_ms = tm.tm_due })
        end;
        (* an action that raises must not lose the pulled group's
           periodic timers *)
        try !deliver_hook db tm.tm_oid tm.tm_spec
        with e ->
          rearm ();
          raise e
      end;
      rearm ();
      loop ()
  in
  with_operation db (fun () ->
      loop ();
      advance_wheel target)

let advance_clock db span =
  if span < 0L then ode_error "clock cannot go backwards";
  advance_to db (Int64.add db.wheel.clock_ms span)
