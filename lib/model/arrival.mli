(** Per-member arrival-rate estimator for the predictive autoscaler:
    Holt's double exponential smoothing (a level plus a per-second
    trend) over periodic rate samples.

    A plain EWMA lags a ramp by ~1/α samples — precisely the window a
    flash crowd exploits.  Tracking the trend as well lets
    {!forecast} extrapolate the rate [horizon] seconds out, so the
    autoscaler can act on where demand is {e going}.  Pure and
    allocation-free after {!create}; the caller owns the clock. *)

type t

(** [create ~alpha] — [alpha] smooths the level and [alpha /. 2.] the
    trend; [alpha] must lie in (0, 1].  Raises otherwise. *)
val create : alpha:float -> t

(** [observe t ~now ~rate] feeds one rate sample taken at [now]
    (seconds; must not move backwards between calls — raises on a
    non-positive interval after the first sample).  The first sample
    initializes the level with zero trend. *)
val observe : t -> now:float -> rate:float -> unit

(** Smoothed current rate (0 before any sample). *)
val rate : t -> float

(** Smoothed rate slope, per second (0 before two samples). *)
val slope : t -> float

(** [forecast t ~horizon] — level + slope × horizon, clamped at 0.
    Raises on a negative or non-finite horizon. *)
val forecast : t -> horizon:float -> float
