(** Log2-bucketed nanosecond latency histogram.

    Fixed memory ([n_buckets] ints), O(1) recording. Quantiles are
    bucket upper bounds clamped to the largest sample — within 2x of
    the true value and never above {!max_ns}, which is what a
    serving stack needs to watch a tail, at none of the cost of keeping
    samples. *)

type t

val n_buckets : int

val create : unit -> t

val record : t -> int -> unit
(** Record one sample in nanoseconds. Negative samples clamp to 0. *)

val count : t -> int
val sum_ns : t -> int
val max_ns : t -> int
val mean_ns : t -> float

val quantile_ns : t -> float -> int
(** [quantile_ns t q] is an upper bound of the q-th quantile (e.g.
    [quantile_ns t 0.99]): the upper edge of its log2 bucket, clamped
    to {!max_ns}, so no quantile reads above the largest sample. 0 when
    empty. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
