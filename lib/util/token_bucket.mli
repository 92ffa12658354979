(** Token-bucket rate limiter, used to model finite-rate servers (e.g. a
    data plane that forwards at most [rate] packets per second with a
    bounded burst). *)

type t

(** [create ~rate ~burst] starts full at time 0.  [rate] is tokens per
    second; [burst] the bucket depth.  Raises [Invalid_argument] on
    non-positive arguments. *)
val create : rate:float -> burst:float -> t

(** [take t ~now] consumes one token if available; returns whether the
    event is admitted.  [now] must not move backwards. *)
val take : t -> now:float -> bool
