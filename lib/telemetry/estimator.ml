(** Flow-size estimation from sampled counts (NetFlow-style inverse
    probability scaling).

    Each packet of a flow is sampled independently with probability
    [rate], so an observed count [c] over a window is Binomial(n, rate)
    for true count [n].  The Horvitz–Thompson estimator [c / rate] is
    unbiased, and a normal-approximation interval around it gives the
    confidence bounds the detection policy compares against the
    elephant threshold: declaring on the {e lower} bound trades a
    little detection latency for precision (few mice promoted). *)

(** One-sided 95% normal quantile: the detection policy's confidence
    level. *)
let z95 = 1.645

(** Unbiased estimate of the true packet count behind [c] samples. *)
let scaled ~rate c =
  if rate <= 0.0 || rate > 1.0 then invalid_arg "Estimator.scaled: rate must be in (0,1]";
  float_of_int c /. rate

(** [interval ~rate c] is a [(lo, hi)] confidence interval on the
    true count: [c ± z95·√c] scaled by [1/rate] (the binomial standard
    deviation is at most [√(c/rate)·…]; we use the conservative
    Poisson-style [√c] spread on the sample count itself).  [lo] is
    clamped at 0. *)
let interval ~rate c =
  if rate <= 0.0 || rate > 1.0 then invalid_arg "Estimator.interval: rate must be in (0,1]";
  let cf = float_of_int c in
  let spread = z95 *. sqrt cf in
  (Float.max 0.0 ((cf -. spread) /. rate), (cf +. spread +. (z95 *. z95)) /. rate)

(** Lower confidence bound on the packet rate — what the [Sampled]
    detection policy compares against [elephant_pkt_rate]. *)
let rate_lower ~rate ~window c =
  if window <= 0.0 then 0.0 else fst (interval ~rate c) /. window
