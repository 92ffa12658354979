(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulator flows through a value of type {!t}
    so that every experiment is reproducible bit-for-bit given a seed. *)

type t

(** [create seed] returns a fresh generator.  Two generators created
    with the same seed produce identical streams. *)
val create : int -> t

(** [split t] derives an independent generator from [t], advancing [t].
    Give each traffic source its own stream so adding a source does not
    perturb the others. *)
val split : t -> t

(** [int t n] is uniform on [0, n-1].  Raises [Invalid_argument] if
    [n <= 0]. *)
val int : t -> int -> int

(** [float t x] is uniform on [0, x). *)
val float : t -> float -> float

(** [exponential t ~rate] draws from Exp(rate); mean [1/rate]. *)
val exponential : t -> rate:float -> float

(** [pareto t ~shape ~scale] draws from a Pareto distribution with shape
    (alpha) and minimum value [scale] — heavy-tailed for [shape <= 2];
    used for flow sizes (few elephants, many mice). *)
val pareto : t -> shape:float -> scale:float -> float

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [choice t arr] picks a uniform element; raises on empty arrays. *)
val choice : t -> 'a array -> 'a
