(** Holt double exponential smoothing over unevenly spaced rate
    samples: the level update uses the trend-projected previous level,
    and the trend smooths the per-second level delta, so a constant
    sampling period is the common case but not an assumption. *)

type t = {
  alpha : float;
  beta : float;
  mutable level : float;
  mutable trend : float; (* per second *)
  mutable last : float;  (* time of the last sample *)
  mutable primed : bool;
}

let create ~alpha =
  if not (Float.is_finite alpha) || alpha <= 0.0 || alpha > 1.0 then
    invalid_arg "Arrival: alpha must be in (0, 1]";
  { alpha; beta = alpha /. 2.0; level = 0.0; trend = 0.0; last = neg_infinity; primed = false }

let observe t ~now ~rate =
  if not (Float.is_finite rate) || rate < 0.0 then
    invalid_arg "Arrival: rate must be finite and >= 0";
  if not t.primed then begin
    t.level <- rate;
    t.trend <- 0.0;
    t.last <- now;
    t.primed <- true
  end
  else begin
    let dt = now -. t.last in
    if not (Float.is_finite dt) || dt <= 0.0 then
      invalid_arg "Arrival: sample times must be strictly increasing";
    let prev = t.level in
    let projected = prev +. (t.trend *. dt) in
    t.level <- (t.alpha *. rate) +. ((1.0 -. t.alpha) *. projected);
    t.trend <-
      (t.beta *. ((t.level -. prev) /. dt)) +. ((1.0 -. t.beta) *. t.trend);
    t.last <- now
  end

let rate t = t.level
let slope t = t.trend

let forecast t ~horizon =
  if not (Float.is_finite horizon) || horizon < 0.0 then
    invalid_arg "Arrival: horizon must be finite and >= 0";
  Float.max 0.0 (t.level +. (t.trend *. horizon))
