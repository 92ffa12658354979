(** Inverse-probability flow-size estimation over sampled counts, with
    normal-approximation confidence bounds. *)

(** Unbiased (Horvitz–Thompson) estimate [c / rate] of the true packet
    count behind [c] samples.  Raises unless [rate] is in (0,1]. *)
val scaled : rate:float -> int -> float

(** [(lo, hi)] confidence interval on the true count at the one-sided
    95 % normal quantile; [lo] clamped at 0. *)
val interval : rate:float -> int -> float * float

(** Lower confidence bound on the packet rate ([fst (interval ...)]
    over a report [window] seconds long; 0 for an empty window) — what
    the [Sampled] detection policy compares against the elephant
    threshold. *)
val rate_lower : rate:float -> window:float -> int -> float
