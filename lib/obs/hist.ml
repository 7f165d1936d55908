(* Log2-bucketed latency histogram. Bucket i holds samples whose value
   in nanoseconds lies in [2^i, 2^(i+1)); recording is one array
   increment plus three field updates, cheap enough for the posting hot
   path when observability is on. *)

let n_buckets = 63

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum_ns : int;
  mutable max_ns : int;
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; sum_ns = 0; max_ns = 0 }

let bucket_of ns =
  if ns <= 0 then 0
  else begin
    (* floor (log2 ns), capped *)
    let rec go i v = if v <= 1 || i >= n_buckets - 1 then i else go (i + 1) (v lsr 1) in
    go 0 ns
  end

let record t ns =
  let ns = if ns < 0 then 0 else ns in
  t.buckets.(bucket_of ns) <- t.buckets.(bucket_of ns) + 1;
  t.count <- t.count + 1;
  t.sum_ns <- t.sum_ns + ns;
  if ns > t.max_ns then t.max_ns <- ns

let count t = t.count
let sum_ns t = t.sum_ns
let max_ns t = t.max_ns
let mean_ns t = if t.count = 0 then 0. else float_of_int t.sum_ns /. float_of_int t.count

(* Upper bound of the bucket containing the q-th quantile (0 <= q <= 1),
   clamped to the largest sample. Exact values are not retained; the
   bound is within 2x of the true quantile, which is enough to spot a
   regressed tail, and never exceeds [max_ns]. *)
let quantile_ns t q =
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else if rank > t.count then t.count else rank in
    let rec go i seen =
      if i >= n_buckets then t.max_ns
      else
        let seen = seen + t.buckets.(i) in
        if seen >= rank then min (1 lsl (i + 1)) t.max_ns else go (i + 1) seen
    in
    go 0 0
  end

let reset t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.sum_ns <- 0;
  t.max_ns <- 0

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.0fns p50<=%dns p99<=%dns max=%dns" t.count
      (mean_ns t) (quantile_ns t 0.5) (quantile_ns t 0.99) t.max_ns
