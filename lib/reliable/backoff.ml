(** Deterministic exponential backoff with jitter.

    The delay for attempt [n] is [min cap (base * factor^(n-1))],
    scaled by a jitter factor drawn from a PRNG stream keyed by
    [(seed, salt, attempt)].  Because the draw is a {e pure function}
    of those three values — not a read from an advancing stream — the
    schedule of any retrying transaction is reproducible and
    independent of how retries from different switches interleave,
    which keeps whole simulation runs bit-identical for a given seed.
    The jitter itself de-synchronizes retries that would otherwise
    thunder in lock-step after a shared outage. *)

(* The schedule's shape: 50 ms first retry, doubling per attempt, a
   1 s ceiling, each delay scaled by [1 ± jitter]. *)
let base = 0.05
let factor = 2.0
let cap = 1.0
let jitter = 0.25

type t = { seed : int }

let create ?(seed = 0) () = { seed }

let delay t ?(salt = 0) ~attempt () =
  if attempt < 1 then invalid_arg "Backoff.delay: attempt must be >= 1";
  let raw = Float.min cap (base *. (factor ** float_of_int (attempt - 1))) in
  let key = t.seed lxor (salt * 0x9E3779B9) lxor (attempt * 0x85EBCA6B) in
  let u = Scotch_util.Rng.float (Scotch_util.Rng.create key) 1.0 in
  raw *. (1.0 -. jitter +. (2.0 *. jitter *. u))
