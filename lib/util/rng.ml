(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through a value of type {!t} so
    that every experiment is reproducible bit-for-bit given a seed.  The
    generator is splitmix64 (Steele et al.), which is fast, has a full
    64-bit period and passes BigCrush; it is more than adequate for
    workload generation. *)

(* The 64-bit state lives in an 8-byte buffer, read and written with
   the unboxed primitives: an [int64] record field would box every new
   state, three words a draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)
let create seed = of_state (Int64.of_int seed)

(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each traffic source its own stream so that adding a
    source does not perturb the others. *)
let split t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  of_state (Int64.mul s 0xBF58476D1CE4E5B9L)

let[@inline] next_int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [bits t] returns 62 uniformly random non-negative bits as an [int]. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t n] is uniform on [0, n-1].  Raises [Invalid_argument] if
    [n <= 0]. *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

(** [float t x] is uniform on [0, x). *)
let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  u /. 9007199254740992.0 *. x

(** Uniform on [0,1) with strictly positive values, suitable for [log]. *)
let uniform_pos t =
  let rec go () =
    let u = float t 1.0 in
    if u > 0.0 then u else go ()
  in
  go ()

(** [exponential t ~rate] draws from Exp(rate); mean [1/rate]. *)
let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (uniform_pos t) /. rate

(** [pareto t ~shape ~scale] draws from a Pareto distribution with the
    given shape (alpha) and minimum value [scale].  Heavy-tailed for
    [shape <= 2]; used for flow sizes (few elephants, many mice). *)
let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.pareto";
  scale /. (uniform_pos t ** (1.0 /. shape))

(** [bernoulli t p] is [true] with probability [p]. *)
let bernoulli t p = float t 1.0 < p

(** [choice t arr] picks a uniform element of [arr]. *)
let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))
