(* Civil calendar and time-pattern matching. *)

open Ode_odb
module Symbol = Ode_event.Symbol

let ms = Clock.ms_of_civil

let test_roundtrip () =
  List.iter
    (fun c ->
      let back = Clock.civil_of_ms (Clock.ms_of_civil c) in
      Alcotest.(check bool) "civil round-trip" true (back = c))
    [
      Clock.civil 1970 1 1;
      Clock.civil ~hr:9 1992 6 2;
      Clock.civil ~hr:23 ~min:59 ~sec:59 ~ms:999 1999 12 31;
      Clock.civil 2000 2 29;
      Clock.civil 1900 3 1;
      Clock.civil ~hr:12 1969 7 20 (* pre-epoch *);
    ]

let test_epoch () =
  Alcotest.(check int64) "epoch is zero" 0L (ms (Clock.civil 1970 1 1));
  Alcotest.(check int64) "one day" 86_400_000L (ms (Clock.civil 1970 1 2))

let test_leap () =
  Alcotest.(check bool) "2000 leap" true (Clock.is_leap 2000);
  Alcotest.(check bool) "1900 not leap" false (Clock.is_leap 1900);
  Alcotest.(check bool) "1992 leap" true (Clock.is_leap 1992);
  Alcotest.(check int) "feb 1992" 29 (Clock.days_in_month 1992 2)

let pat = Symbol.pattern

let test_next_match_daily () =
  (* at time(HR=9): daily at 09:00:00.000 *)
  let p = pat ~hr:9 () in
  let from = ms (Clock.civil ~hr:10 1992 6 2) in
  Alcotest.(check (option int64))
    "next 9am is tomorrow"
    (Some (ms (Clock.civil ~hr:9 1992 6 3)))
    (Clock.next_match p ~after:from);
  let before9 = ms (Clock.civil ~hr:8 1992 6 2) in
  Alcotest.(check (option int64))
    "next 9am is today"
    (Some (ms (Clock.civil ~hr:9 1992 6 2)))
    (Clock.next_match p ~after:before9);
  (* strictly greater: at exactly 9am, next is tomorrow *)
  let at9 = ms (Clock.civil ~hr:9 1992 6 2) in
  Alcotest.(check (option int64))
    "strictly after"
    (Some (ms (Clock.civil ~hr:9 1992 6 3)))
    (Clock.next_match p ~after:at9)

let test_next_match_specific () =
  let p = pat ~year:1992 ~mon:6 ~day:2 ~hr:9 () in
  let from = ms (Clock.civil 1992 1 1) in
  Alcotest.(check (option int64))
    "specific instant"
    (Some (ms (Clock.civil ~hr:9 1992 6 2)))
    (Clock.next_match p ~after:from);
  Alcotest.(check (option int64))
    "already past"
    None
    (Clock.next_match p ~after:(ms (Clock.civil 1993 1 1)))

let test_next_match_monthly () =
  (* at time(DAY=31): only months with a 31st *)
  let p = pat ~day:31 () in
  let from = ms (Clock.civil 1992 4 1) in
  Alcotest.(check (option int64))
    "skips April to May 31"
    (Some (ms (Clock.civil 1992 5 31)))
    (Clock.next_match p ~after:from)

let test_no_field () =
  Alcotest.(check (option int64)) "empty pattern" None
    (Clock.next_match Symbol.wildcard_pattern ~after:0L)

let test_matches () =
  let p = pat ~hr:9 () in
  Alcotest.(check bool) "9am matches" true (Clock.matches p (ms (Clock.civil ~hr:9 1992 6 2)));
  Alcotest.(check bool) "9:30 does not" false
    (Clock.matches p (ms (Clock.civil ~hr:9 ~min:30 1992 6 2)))

let test_yearly_and_monthly () =
  (* at time(MON=1, DAY=1): yearly on January 1st *)
  let p = pat ~mon:1 ~day:1 () in
  Alcotest.(check (option int64))
    "new year's"
    (Some (ms (Clock.civil 1993 1 1)))
    (Clock.next_match p ~after:(ms (Clock.civil 1992 6 2)));
  Alcotest.(check (option int64))
    "and the year after"
    (Some (ms (Clock.civil 1994 1 1)))
    (Clock.next_match p ~after:(ms (Clock.civil 1993 1 1)));
  (* leap-day pattern: only in leap years *)
  let p29 = pat ~mon:2 ~day:29 () in
  Alcotest.(check (option int64))
    "Feb 29 skips non-leap years"
    (Some (ms (Clock.civil 1996 2 29)))
    (Clock.next_match p29 ~after:(ms (Clock.civil 1993 1 1)))

let test_minute_pattern () =
  (* at time(M=30): every hour on the half hour, seconds pinned to 0 *)
  let p = pat ~min:30 () in
  Alcotest.(check (option int64))
    "next half hour"
    (Some (ms (Clock.civil ~hr:9 ~min:30 1992 6 2)))
    (Clock.next_match p ~after:(ms (Clock.civil ~hr:9 ~min:15 1992 6 2)));
  Alcotest.(check (option int64))
    "then the next hour's"
    (Some (ms (Clock.civil ~hr:10 ~min:30 1992 6 2)))
    (Clock.next_match p ~after:(ms (Clock.civil ~hr:9 ~min:30 1992 6 2)))

(* The two patterns the day-walking search handled badly: a pinned-ms
   pattern (86,400 time-of-day candidates per day, rebuilt per
   candidate) and a date more than ten years past the 1970 clock
   origin of a default database, which it never reached. *)
let test_dated_patterns () =
  let p = pat ~ms:500 () in
  Alcotest.(check (option int64))
    "MS=500: the next second's 500th ms"
    (Some (ms (Clock.civil ~hr:9 ~sec:1 ~ms:500 1992 6 2)))
    (Clock.next_match p ~after:(ms (Clock.civil ~hr:9 ~ms:700 1992 6 2)));
  Alcotest.(check (option int64))
    "MS=500: same second when still ahead"
    (Some (ms (Clock.civil ~hr:9 ~ms:500 1992 6 2)))
    (Clock.next_match p ~after:(ms (Clock.civil ~hr:9 ~ms:499 1992 6 2)));
  Alcotest.(check (option int64))
    "MS=500: carries over midnight and the year"
    (Some (ms (Clock.civil ~ms:500 1993 1 1)))
    (Clock.next_match p
       ~after:(ms (Clock.civil ~hr:23 ~min:59 ~sec:59 ~ms:600 1992 12 31)));
  let d = pat ~year:1992 ~mon:6 ~day:2 () in
  Alcotest.(check (option int64))
    "YR=1992, MON=6, DAY=2 from the 1970 origin"
    (Some (ms (Clock.civil 1992 6 2)))
    (Clock.next_match d ~after:0L);
  (* end to end: the timer arms on a default database and fires *)
  let module D = Database in
  let db = D.create_db () in
  let fired = ref [] in
  let b = D.define_class "c" in
  let b =
    D.trigger_str b "paper" ~event:"at time(YR=1992, MON=6, DAY=2)"
      ~action:(fun db _ -> fired := D.now db :: !fired)
  in
  D.register_class db b;
  (match
     D.with_txn db (fun _ -> D.activate db (D.create db "c" []) "paper" [])
   with
  | Ok () -> ()
  | Error `Aborted -> Alcotest.fail "setup transaction aborted");
  Alcotest.(check int) "timer armed" 1 (D.stats db).D.n_timers;
  D.advance_to db (ms (Clock.civil 1992 6 3));
  Alcotest.(check (list int64)) "fired on the date" [ ms (Clock.civil 1992 6 2) ] !fired

let next_match_is_match =
  QCheck.Test.make ~count:200 ~name:"next_match yields a matching instant"
    (QCheck.make
       QCheck.Gen.(
         let opt g = option g in
         let* hr = opt (int_bound 23) in
         let* min = opt (int_bound 59) in
         let* day = opt (int_range 1 28) in
         let* after = map Int64.of_int (int_bound 1_000_000_000) in
         return (hr, min, day, after)))
    (fun (hr, min, day, after) ->
      let p = { Symbol.wildcard_pattern with hr; min; day } in
      match Clock.next_match p ~after with
      | None -> hr = None && min = None && day = None
      | Some t -> t > after && Clock.matches p t)

(* Random patterns against the day-walking model: [after] values sit
   next to day, month, year and leap-day boundaries, patterns mix pinned
   and free fields (within range). Wherever the model finds an instant
   the field-by-field search must return the same one, and every
   instant it returns must match. *)
let gen_pattern_case =
  let open QCheck.Gen in
  let opt p g = frequency [ (p, map Option.some g); (10 - p, return None) ] in
  let* year = opt 2 (int_range 1995 2001) in
  let* mon = opt 4 (int_range 1 12) in
  let* day = opt 4 (oneof [ int_range 1 31; int_range 28 31 ]) in
  let* hr = opt 4 (int_bound 23) in
  let* min = opt 4 (oneof [ int_bound 59; return 59; return 0 ]) in
  let* sec = opt 4 (oneof [ int_bound 59; return 59; return 0 ]) in
  let* msf = opt 5 (oneof [ int_bound 999; return 999; return 0 ]) in
  let* y = int_range 1995 2001 in
  let* m = int_range 1 12 in
  let* d =
    oneof [ int_range 1 (Clock.days_in_month y m); return (Clock.days_in_month y m) ]
  in
  let* edge = bool in
  let* h = if edge then return 23 else int_bound 23 in
  let* mi = if edge then return 59 else int_bound 59 in
  let* se = if edge then return 59 else int_bound 59 in
  let* mss = if edge then int_range 990 999 else int_bound 999 in
  let after = ms (Clock.civil ~hr:h ~min:mi ~sec:se ~ms:mss y m d) in
  return ({ Symbol.year; mon; day; hr; min; sec; ms = msf }, after)

let print_pattern_case ((p : Symbol.time_pattern), after) =
  let f name = function None -> "" | Some v -> Printf.sprintf "%s=%d " name v in
  Fmt.str "time(%s%s%s%s%s%s%s) after %a" (f "YR" p.year) (f "MON" p.mon)
    (f "DAY" p.day) (f "HR" p.hr) (f "M" p.min) (f "SEC" p.sec) (f "MS" p.ms)
    Clock.pp_ms after

let next_match_equals_model =
  QCheck.Test.make ~count:500 ~name:"next_match = day-walking model"
    (QCheck.make ~print:print_pattern_case gen_pattern_case)
    (fun (p, after) ->
      let got = Clock.next_match p ~after in
      (match got with None -> true | Some r -> r > after && Clock.matches p r)
      &&
      match Ode_reference.Clock_model.next_match p ~after with
      | Some expected -> got = Some expected
      | None -> true)

let suite =
  [
    Alcotest.test_case "civil round-trip" `Quick test_roundtrip;
    Alcotest.test_case "epoch" `Quick test_epoch;
    Alcotest.test_case "leap years" `Quick test_leap;
    Alcotest.test_case "daily pattern" `Quick test_next_match_daily;
    Alcotest.test_case "fully specified pattern" `Quick test_next_match_specific;
    Alcotest.test_case "day-of-month pattern" `Quick test_next_match_monthly;
    Alcotest.test_case "empty pattern" `Quick test_no_field;
    Alcotest.test_case "matches" `Quick test_matches;
    Alcotest.test_case "yearly and leap-day patterns" `Quick test_yearly_and_monthly;
    Alcotest.test_case "minute pattern" `Quick test_minute_pattern;
    Alcotest.test_case "dated patterns" `Quick test_dated_patterns;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ next_match_is_match; next_match_equals_model ]
