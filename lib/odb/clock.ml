module Symbol = Ode_event.Symbol

type civil = {
  c_year : int;
  c_mon : int;
  c_day : int;
  c_hr : int;
  c_min : int;
  c_sec : int;
  c_ms : int;
}

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month year mon =
  match mon with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap year then 29 else 28
  | _ -> invalid_arg "Clock.days_in_month"

(* Howard Hinnant's days-from-civil algorithm (public domain). *)
let days_from_civil ~year ~mon ~day =
  let y = if mon <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (mon + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let ms_per_day = 86_400_000L

(* Euclidean division for Int64 (round toward negative infinity). *)
let ediv a b =
  let q = Int64.div a b in
  if Int64.rem a b < 0L then Int64.pred q else q

let emod a b = Int64.sub a (Int64.mul (ediv a b) b)

let civil_of_ms ms =
  let days = Int64.to_int (ediv ms ms_per_day) in
  let rem = Int64.to_int (emod ms ms_per_day) in
  let year, mon, day = civil_from_days days in
  {
    c_year = year;
    c_mon = mon;
    c_day = day;
    c_hr = rem / 3_600_000;
    c_min = rem / 60_000 mod 60;
    c_sec = rem / 1_000 mod 60;
    c_ms = rem mod 1_000;
  }

let ms_of_civil c =
  let days = days_from_civil ~year:c.c_year ~mon:c.c_mon ~day:c.c_day in
  let rem =
    (c.c_hr * 3_600_000) + (c.c_min * 60_000) + (c.c_sec * 1_000) + c.c_ms
  in
  Int64.add (Int64.mul (Int64.of_int days) ms_per_day) (Int64.of_int rem)

let civil ?(hr = 0) ?(min = 0) ?(sec = 0) ?(ms = 0) year mon day =
  { c_year = year; c_mon = mon; c_day = day; c_hr = hr; c_min = min; c_sec = sec; c_ms = ms }

(* Normalize a pattern: fields below the least-significant specified field
   become 0. Field order: year > mon > day > hr > min > sec > ms. *)
let normalize (p : Symbol.time_pattern) : Symbol.time_pattern option =
  let fields = [ p.year; p.mon; p.day; p.hr; p.min; p.sec; p.ms ] in
  match
    List.fold_left
      (fun (idx, last) f -> (idx + 1, match f with Some _ -> idx | None -> last))
      (0, -1) fields
  with
  | _, -1 -> None (* no field specified *)
  | _, last ->
    let fill idx f = if idx > last then Some (Option.value f ~default:0) else f in
    Some
      {
        year = p.year;
        mon = fill 1 p.mon;
        day = fill 2 p.day;
        hr = fill 3 p.hr;
        min = fill 4 p.min;
        sec = fill 5 p.sec;
        ms = fill 6 p.ms;
      }

let matches p ms =
  match normalize p with
  | None -> false
  | Some p ->
    let c = civil_of_ms ms in
    let ok field value = match field with None -> true | Some v -> v = value in
    ok p.year c.c_year && ok p.mon c.c_mon && ok p.day c.c_day && ok p.hr c.c_hr
    && ok p.min c.c_min && ok p.sec c.c_sec && ok p.ms c.c_ms

(* Time-of-day fields, most significant first: hr, min, sec, ms. *)
let tod_hi = [| 23; 59; 59; 999 |]
let tod_ms = [| 3_600_000; 60_000; 1_000; 1 |]

(* Smallest time of day (ms) >= [bound] whose fields match [pat] (an
   [int option] per field, [None] = any), chosen field by field: a free
   field first keeps the bound's value and, if the fields below cannot
   then reach the bound, carries to the next value with the fields below
   at their least. Constant work; [None] if no such time today. *)
let first_time_of_day pat bound =
  let rec least i =
    if i = 4 then 0 else (tod_ms.(i) * Option.value pat.(i) ~default:0) + least (i + 1)
  in
  let rec from i =
    if i = 4 then Some 0
    else
      let b = bound.(i) in
      let at v rest = Option.map (fun r -> (tod_ms.(i) * v) + r) rest in
      match pat.(i) with
      | Some v when v < 0 || v > tod_hi.(i) -> None
      | Some v when v > b -> at v (Some (least (i + 1)))
      | Some v when v = b -> at v (from (i + 1))
      | Some _ -> None
      | None -> (
        match at b (from (i + 1)) with
        | Some t -> Some t
        | None when b < tod_hi.(i) -> at (b + 1) (Some (least (i + 1)))
        | None -> None)
  in
  from 0

(* First date strictly after [(year, mon, day)] matching the date
   fields, scanning month by month: only the pinned year when there is
   one, else the next nine years (a leap day recurs within eight). *)
let next_date (p : Symbol.time_pattern) ~year ~mon ~day =
  let last = match p.year with Some y -> y | None -> year + 8 in
  let rec scan y m lo =
    if y > last then None
    else if m > 12 then scan (y + 1) 1 1
    else
      let dim = days_in_month y m in
      let d =
        match p.day with
        | Some v -> if v >= lo && v <= dim then Some v else None
        | None -> if lo <= dim then Some lo else None
      in
      match d with
      | Some d when p.mon = None || p.mon = Some m -> Some (y, m, d)
      | Some _ | None -> scan y (m + 1) 1
  in
  match p.year with
  | Some y when y > year -> scan y 1 1
  | Some _ | None -> scan year mon (day + 1)

let next_match p ~after =
  match normalize p with
  | None -> None
  | Some p ->
    let start = civil_of_ms (Int64.succ after) in
    let pat = [| p.hr; p.min; p.sec; p.ms |] in
    let at ~year ~mon ~day t =
      Int64.add
        (Int64.mul (Int64.of_int (days_from_civil ~year ~mon ~day)) ms_per_day)
        (Int64.of_int t)
    in
    let ok field v = match field with None -> true | Some f -> f = v in
    let today =
      if ok p.year start.c_year && ok p.mon start.c_mon && ok p.day start.c_day
      then
        first_time_of_day pat
          [| start.c_hr; start.c_min; start.c_sec; start.c_ms |]
      else None
    in
    match today with
    | Some t -> Some (at ~year:start.c_year ~mon:start.c_mon ~day:start.c_day t)
    | None ->
      Option.bind (first_time_of_day pat [| 0; 0; 0; 0 |]) (fun t ->
          Option.map
            (fun (year, mon, day) -> at ~year ~mon ~day t)
            (next_date p ~year:start.c_year ~mon:start.c_mon ~day:start.c_day))

let pp_ms ppf ms =
  let c = civil_of_ms ms in
  Fmt.pf ppf "%04d-%02d-%02d %02d:%02d:%02d.%03d" c.c_year c.c_mon c.c_day c.c_hr
    c.c_min c.c_sec c.c_ms
