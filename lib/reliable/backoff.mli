(** Deterministic exponential backoff with jitter.

    Delays are a pure function of [(seed, salt, attempt)]: retry
    schedules are reproducible for a given seed, independent of how
    retries from different sources interleave, while the jitter keeps
    concurrent retries from thundering in lock-step. *)

(** The schedule's shape: the delay before retry [n] is
    [min cap (base * factor^(n-1))] — 50 ms, doubling, capped at 1 s —
    scaled by a draw in [1 ± jitter], ±25 %. *)

val base : float
val factor : float
val cap : float
val jitter : float

type t

val create : ?seed:int -> unit -> t

(** Delay before retry [attempt] (1-based); [salt] distinguishes
    independent retry sequences (e.g. per transaction). *)
val delay : t -> ?salt:int -> attempt:int -> unit -> float
