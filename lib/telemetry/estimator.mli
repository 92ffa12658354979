(** Inverse-probability flow-size estimation over sampled counts, with
    normal-approximation confidence bounds. *)

(** Unbiased (Horvitz–Thompson) estimate [c / rate] of the true packet
    count behind [c] samples.  Raises unless [rate] is in (0,1]. *)
val scaled : rate:float -> int -> float

(** [(lo, hi)] confidence interval on the true count at confidence
    quantile [z]; [lo] clamped at 0. *)
val interval : ?z:float -> rate:float -> int -> float * float

val lower_bound : ?z:float -> rate:float -> int -> float
val upper_bound : ?z:float -> rate:float -> int -> float

(** Packet-rate estimate (pkts/s) over a report [window] seconds long;
    0 for an empty window. *)
val rate_estimate : rate:float -> window:float -> int -> float

(** Lower confidence bound on the packet rate — what the [Sampled]
    detection policy compares against the elephant threshold. *)
val rate_lower : rate:float -> window:float -> int -> float
