module Clock = Ode_odb.Clock

let ms_per_day = 86_400_000L

(* Euclidean division: day numbers stay correct before the epoch. *)
let day_of ms =
  let q = Int64.div ms ms_per_day in
  Int64.to_int (if Int64.rem ms ms_per_day < 0L then Int64.pred q else q)

(* Candidate values of a field: the fixed value, or the whole range. *)
let candidates field lo hi =
  match field with Some v -> [ v ] | None -> List.init (hi - lo + 1) (fun i -> lo + i)

let next_match p ~after =
  match Clock.normalize p with
  | None -> None
  | Some p ->
    let start_ms = Int64.succ after in
    let start_day = day_of start_ms in
    let horizon = start_day + 3660 in
    let day_matches (c : Clock.civil) =
      (match p.year with None -> true | Some v -> v = c.c_year)
      && (match p.mon with None -> true | Some v -> v = c.c_mon)
      && (match p.day with None -> true | Some v -> v = c.c_day)
    in
    (* Smallest matching time of day (ms) >= bound, trying every
       hr x min x sec x ms candidate. *)
    let first_time_of_day ~bound =
      let best = ref None in
      List.iter
        (fun hr ->
          List.iter
            (fun min ->
              List.iter
                (fun sec ->
                  List.iter
                    (fun msf ->
                      let t = (hr * 3_600_000) + (min * 60_000) + (sec * 1_000) + msf in
                      if t >= bound then
                        match !best with
                        | Some b when b <= t -> ()
                        | _ -> best := Some t)
                    (candidates p.ms 0 999))
                (candidates p.sec 0 59))
            (candidates p.min 0 59))
        (candidates p.hr 0 23);
      !best
    in
    let rec scan day =
      if day > horizon then None
      else begin
        let midnight = Int64.mul (Int64.of_int day) ms_per_day in
        let bound =
          if day = start_day then Int64.to_int (Int64.sub start_ms midnight) else 0
        in
        if day_matches (Clock.civil_of_ms midnight) then
          match first_time_of_day ~bound with
          | Some t -> Some (Int64.add midnight (Int64.of_int t))
          | None -> scan (day + 1)
        else scan (day + 1)
      end
    in
    scan start_day
