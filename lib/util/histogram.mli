(** Fixed-bin histogram over a bounded range, with overflow/underflow
    bins; used for delay distributions. *)

type t

(** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal-width
    bins.  Raises [Invalid_argument] on a degenerate range. *)
val create : lo:float -> hi:float -> bins:int -> t

val nbins : t -> int
val bin_width : t -> float

(** Record one observation (out-of-range values land in the
    underflow/overflow bins). *)
val add : t -> float -> unit

(** Total observations, including under/overflow. *)
val count : t -> int

(** Observations below [lo] / at or above [hi]. *)
val underflow : t -> int

val overflow : t -> int

val bin_count : t -> int -> int

(** Midpoint of bin [i]. *)
val bin_center : t -> int -> float

(** Approximate quantile (resolution = bin width); [None] when empty. *)
val quantile_opt : t -> float -> float option
